#include "serve/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <iterator>
#include <list>
#include <map>
#include <tuple>
#include <utility>

#include "core/fleet_engine.hpp"
#include "core/forecast_cache.hpp"
#include "core/forecaster.hpp"
#include "core/race_shard.hpp"
#include "tensor/simd_kernels.hpp"
#include "util/rng.hpp"

namespace ranknet::serve {

using util::Status;

namespace {

/// Medians a client may actually act on: finite and inside a generous rank
/// band. This is the serving-side health signal that feeds probation
/// rollback — a model that passed its (configurable) shadow gate but emits
/// garbage in production gets caught here.
bool response_healthy(const wire::ForecastResponse& response) {
  for (const auto& car : response.cars) {
    for (double v : car.median) {
      if (!std::isfinite(v) || v < -1e4 || v > 1e4) return false;
    }
  }
  return true;
}

double seconds_until(std::chrono::steady_clock::time_point deadline,
                     std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(deadline - now).count();
}

/// One dispatched micro-batch group, held by the worker until its job has
/// returned. The pins keep the model's engines and the routed shard alive
/// while the job borrows them (RaceShard::submit's lifetime contract: the
/// submitter, never the job, owns the shard).
struct InFlight {
  std::shared_ptr<const ServingModel> model;
  std::shared_ptr<core::RaceShard> shard;
  std::size_t requests = 0;
  bool answered = false;  // set by the job, under the queue mutex
  std::future<void> done;
};

}  // namespace

ForecastServer::ForecastServer(ModelRegistry& registry, ServerConfig config)
    : registry_(registry), config_(std::move(config)) {
  auto& reg = obs::Registry::instance();
  m_.conns_accepted = &reg.counter("serve.conn.accepted");
  m_.conns_rejected = &reg.counter("serve.conn.rejected");
  m_.conns_slow_dropped = &reg.counter("serve.conn.slow_dropped");
  m_.frames_received = &reg.counter("serve.frames.received");
  m_.frames_corrupt_skipped = &reg.counter("serve.frames.corrupt_skipped");
  m_.frames_bad_header = &reg.counter("serve.frames.bad_header");
  m_.requests_received = &reg.counter("serve.requests.received");
  m_.requests_bad = &reg.counter("serve.requests.bad");
  m_.shed_queue_full = &reg.counter("serve.admission.shed_queue_full");
  m_.admitted_degraded = &reg.counter("serve.admission.degraded");
  m_.unknown_race = &reg.counter("serve.admission.unknown_race");
  m_.expired_in_queue = &reg.counter("serve.deadline.expired_in_queue");
  m_.tier_full = &reg.counter("serve.tier.full");
  m_.tier_cached = &reg.counter("serve.tier.cached");
  m_.tier_partial = &reg.counter("serve.tier.partial");
  m_.tier_fallback = &reg.counter("serve.tier.fallback");
  m_.tier_rejected = &reg.counter("serve.tier.rejected");
  m_.batch_groups = &reg.counter("serve.batch.groups");
  m_.batch_dedup_hits = &reg.counter("serve.batch.dedup_hits");
  m_.write_failures = &reg.counter("serve.write.failures");
  m_.request_latency = &reg.latency_histogram("serve.request.latency");
  static const double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64};
  m_.batch_size = &reg.histogram("serve.batch.size", kBatchBounds);
  // Pin the serving numerics point into the metrics surface: forecast
  // bytes (and cache keys) depend on the active kernel variant, so an
  // operator reading a serve dashboard can see at a glance whether this
  // process decodes with the scalar or the avx2 kernels.
  reg.gauge("serve.kernel.active_variant")
      .set(static_cast<double>(
          static_cast<int>(tensor::kernels::active_variant())));
}

ForecastServer::~ForecastServer() { stop(); }

Status ForecastServer::start() {
  if (running_.load()) {
    return Status::failed_precondition("server already running");
  }
  auto bound = util::UnixListener::bind(config_.socket_path);
  if (!bound.ok()) return bound.status();
  listener_ = std::move(bound).value();
  stop_requested_.store(false);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  worker_thread_ = std::thread([this] { worker_loop(); });
  return {};
}

void ForecastServer::stop() {
  stop_requested_.store(true);
  queue_cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();
  if (worker_thread_.joinable()) worker_thread_.join();
  conns_.clear();
  listener_.close();
  running_.store(false, std::memory_order_release);
}

void ForecastServer::add_race(telemetry::RaceLog race) {
  // Bucket-sharded insert: loading race N+1 never blocks admission lookups
  // for races already being served out of other buckets.
  races_.insert(std::move(race));
}

// --- I/O thread ------------------------------------------------------------

void ForecastServer::io_loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint8_t> scratch(64 * 1024);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : conns_) {
      fds.push_back({conn->stream.fd(), POLLIN, 0});
    }
    int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/5);
    if (rc < 0 && errno != EINTR) break;
    const auto now = Clock::now();
    // fds indexes the pre-accept connection list; remember its size so a
    // connection accepted below is not polled against a stale pollfd.
    const std::size_t polled = conns_.size();

    if (fds[0].revents & POLLIN) {
      auto accepted = listener_.accept(0.0);
      if (accepted.ok()) {
        if (conns_.size() >= config_.max_connections) {
          m_.conns_rejected->add(1);  // stream closes on scope exit
        } else {
          auto conn = std::make_shared<Conn>();
          conn->stream = std::move(accepted).value();
          conn->last_progress = now;
          conns_.push_back(std::move(conn));
          m_.conns_accepted->add(1);
        }
      }
    }

    for (std::size_t i = 0; i < polled; ++i) {
      auto& conn = conns_[i];
      if (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) {
        auto got = conn->stream.recv_some(scratch.data(), scratch.size(), 0.0);
        if (!got.ok() || got.value() == 0) {
          if (!got.ok() &&
              got.status().code() == util::StatusCode::kUnavailable &&
              !(fds[i + 1].revents & (POLLHUP | POLLERR))) {
            continue;  // spurious wakeup, not a close
          }
          conn->dead.store(true);
          continue;
        }
        conn->buf.insert(conn->buf.end(), scratch.data(),
                         scratch.data() + got.value());
        conn->last_progress = now;
        if (!drain_frames(conn)) conn->dead.store(true);
      }
      // Slow-client guard: a partial frame parked with no progress holds
      // reassembly memory hostage — cut it loose.
      if (!conn->buf.empty() &&
          seconds_until(now, conn->last_progress) >
              config_.slow_client_timeout_seconds) {
        m_.conns_slow_dropped->add(1);
        conn->dead.store(true);
      }
    }

    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::shared_ptr<Conn>& c) {
                                  return c->dead.load();
                                }),
                 conns_.end());
  }
}

bool ForecastServer::drain_frames(const std::shared_ptr<Conn>& conn) {
  auto& buf = conn->buf;
  while (buf.size() >= wire::kHeaderSize) {
    auto header = wire::decode_header(buf);
    if (!header.ok()) {
      // Bad magic/version/length: the byte stream is no longer a frame
      // stream; nothing after this point can be trusted.
      m_.frames_bad_header->add(1);
      return false;
    }
    const std::size_t frame_size =
        wire::kHeaderSize + header.value().payload_len;
    if (buf.size() < frame_size) return true;  // incomplete, wait for more
    const std::span<const std::uint8_t> payload(
        buf.data() + wire::kHeaderSize, header.value().payload_len);
    m_.frames_received->add(1);
    if (auto st = wire::verify_payload(header.value(), payload); !st.ok()) {
      // One corrupt payload costs one frame, not the connection: framing
      // is still aligned thanks to the length prefix.
      m_.frames_corrupt_skipped->add(1);
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(frame_size));
      continue;
    }
    switch (header.value().type) {
      case wire::FrameType::kForecastRequest:
        handle_forecast_frame(conn, payload);
        break;
      case wire::FrameType::kLoadRace:
        handle_load_race(conn, payload);
        break;
      case wire::FrameType::kSwapModel: {
        auto req = wire::decode_swap_request(payload);
        if (req.ok()) {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          admin_.push_back(AdminOp{conn, std::move(req).value()});
          queue_cv_.notify_one();
        } else {
          wire::SwapAck ack;
          ack.status_code = static_cast<std::uint8_t>(req.status().code());
          ack.message = req.status().message();
          send_frame(conn, wire::FrameType::kSwapAck,
                     wire::encode_swap_ack(ack));
        }
        break;
      }
      case wire::FrameType::kShutdown:
        send_frame(conn, wire::FrameType::kShutdownAck,
                   wire::encode_status_ack(0, "stopping"));
        stop_requested_.store(true, std::memory_order_release);
        queue_cv_.notify_all();
        break;
      default:
        // A well-formed frame of a type only the server sends; ignore.
        break;
    }
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(frame_size));
  }
  return true;
}

void ForecastServer::handle_forecast_frame(
    const std::shared_ptr<Conn>& conn, std::span<const std::uint8_t> payload) {
  m_.requests_received->add(1);
  auto decoded = wire::decode_forecast_request(payload);
  if (!decoded.ok()) {
    m_.requests_bad->add(1);
    wire::ForecastResponse response;
    // Best effort to echo the id so the client can match the failure.
    if (payload.size() >= 8) {
      std::memcpy(&response.request_id, payload.data(), 8);
    }
    response.status_code =
        static_cast<std::uint8_t>(decoded.status().code());
    response.message = decoded.status().message();
    respond(conn, response);
    return;
  }
  Pending item;
  item.conn = conn;
  item.req = std::move(decoded).value();
  item.arrival = Clock::now();

  // Resolve the race once, here, and pin the immutable snapshot in the
  // queued request. The worker hot path never touches the race table.
  item.race = races_.find(item.req.race_id);
  if (!item.race) {
    m_.unknown_race->add(1);
    reject(item, Status::not_found("unknown race '" + item.req.race_id +
                                   "' (kLoadRace it first)"));
    return;
  }

  std::uint32_t deadline_us = item.req.deadline_us == 0
                                  ? config_.default_deadline_us
                                  : item.req.deadline_us;
  deadline_us = std::min(deadline_us, config_.max_deadline_us);
  item.deadline = item.arrival + std::chrono::microseconds(deadline_us);

  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (queue_.size() >= config_.queue_capacity) {
    m_.shed_queue_full->add(1);
    reject(item, Status::unavailable("queue full (capacity " +
                                     std::to_string(config_.queue_capacity) +
                                     ")"));
    return;
  }
  if (queue_.size() >= config_.overload_watermark) {
    item.degraded = true;
    m_.admitted_degraded->add(1);
  }
  queue_.push_back(std::move(item));
  queue_cv_.notify_one();
}

void ForecastServer::handle_load_race(const std::shared_ptr<Conn>& conn,
                                      std::span<const std::uint8_t> payload) {
  auto race = wire::decode_race(payload);
  if (!race.ok()) {
    send_frame(conn, wire::FrameType::kLoadRaceAck,
               wire::encode_status_ack(
                   static_cast<std::uint8_t>(race.status().code()),
                   race.status().message()));
    return;
  }
  add_race(std::move(race).value());
  send_frame(conn, wire::FrameType::kLoadRaceAck,
             wire::encode_status_ack(0, "loaded"));
}

// --- worker thread ---------------------------------------------------------

void ForecastServer::worker_loop() {
  // Dispatched groups whose responses are not all sent yet. Worker-owned;
  // a job only flips its own node's `answered` (under queue_mutex_), and
  // list nodes never move, so the job may hold a pointer to it.
  std::list<InFlight> in_flight;
  std::size_t in_flight_requests = 0;
  // serve.shard.<i>.* handles by shard index, resolved once per shard.
  std::vector<ShardMetrics> shard_metrics;
  const auto metrics_for = [&shard_metrics](std::size_t index) {
    auto& reg = obs::Registry::instance();
    while (shard_metrics.size() <= index) {
      const std::string prefix =
          "serve.shard." + std::to_string(shard_metrics.size()) + ".";
      shard_metrics.push_back(
          {&reg.counter(prefix + "groups"), &reg.counter(prefix + "requests")});
    }
    return shard_metrics[index];
  };
  const auto any_answered = [&in_flight] {
    return std::any_of(in_flight.begin(), in_flight.end(),
                       [](const InFlight& g) { return g.answered; });
  };

  while (true) {
    std::vector<AdminOp> admin;
    std::list<InFlight> answered;
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stop_requested_.load(std::memory_order_acquire) ||
               !admin_.empty() || any_answered() ||
               (!queue_.empty() && in_flight_requests < config_.batch_max);
      });
      stopping = stop_requested_.load(std::memory_order_acquire);
      while (!admin_.empty()) {
        admin.push_back(std::move(admin_.front()));
        admin_.pop_front();
      }
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        const auto next = std::next(it);
        if (it->answered) {
          in_flight_requests -= it->requests;
          answered.splice(answered.end(), in_flight, it);
        }
        it = next;
      }
    }
    // The pins drop here, off the lock, once each job has returned (it
    // flags `answered` just before it does).
    for (auto& g : answered) g.done.wait();
    answered.clear();

    // A swap, like a shutdown, first waits for every dispatched group: a
    // group answers on the model it was dispatched with, and nothing
    // dispatched after the ack sees the old one. The single worker thread
    // is what makes that ordering deterministic.
    if (stopping || !admin.empty()) {
      for (auto& g : in_flight) g.done.wait();
      in_flight.clear();
      in_flight_requests = 0;
    }
    for (auto& op : admin) {
      const auto outcome = registry_.swap(op.swap.artifact_path);
      wire::SwapAck ack;
      ack.status_code = static_cast<std::uint8_t>(outcome.status.code());
      ack.action = outcome.action;
      ack.active_version = outcome.active_version;
      ack.message = outcome.status.message();
      send_frame(op.conn, wire::FrameType::kSwapAck,
                 wire::encode_swap_ack(ack));
    }

    // Dispatched-but-unanswered requests never exceed batch_max, which
    // bounds the admitted work and so gives the shed and watermark
    // thresholds their meaning.
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      const std::size_t take =
          stopping ? queue_.size()
                   : std::min(queue_.size(),
                              config_.batch_max - in_flight_requests);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (stopping) {
      if (batch.empty() && admin.empty()) return;
      // Drain with explicit rejections — a shutdown sheds, it never hangs.
      for (auto& item : batch) {
        reject(item, Status::unavailable("server shutting down"));
      }
      continue;
    }
    if (batch.empty()) continue;
    m_.batch_size->observe(static_cast<double>(batch.size()));

    // Micro-batch grouping: identical (race, origin, horizon, samples,
    // seed) requests are one compute. Degraded admissions group separately
    // — they must not trigger a full primary forecast.
    std::map<std::tuple<std::string, std::int32_t, std::int32_t, std::int32_t,
                        std::uint64_t, bool>,
             std::vector<Pending>>
        groups;
    for (auto& item : batch) {
      groups[{item.req.race_id, item.req.origin_lap, item.req.horizon,
              item.req.num_samples, item.req.seed, item.degraded}]
          .push_back(std::move(item));
    }
    // Route every group to its race's shard and run it on the shard's
    // driver; one race's groups stay serialized (FIFO) on their shard while
    // different races overlap, and each group answers as soon as it is done.
    const auto model = registry_.active();
    for (auto& [key, members] : groups) {
      m_.batch_groups->add(1);
      if (members.size() > 1) m_.batch_dedup_hits->add(members.size() - 1);
      std::shared_ptr<core::RaceShard> shard;
      if (model && model->fleet) {
        shard = model->fleet->shard_for(std::get<0>(key));
      }
      if (!shard) {
        // Reject path: no model.
        process_group(members, model.get(), nullptr, {});
        continue;
      }
      InFlight& g = in_flight.emplace_back();
      g.model = model;
      g.shard = std::move(shard);
      g.requests = members.size();
      in_flight_requests += g.requests;
      core::RaceShard* const s = g.shard.get();
      // The job owns its requests and borrows the model and the shard,
      // which `g` pins until the job has returned.
      g.done = s->submit([this, members = std::move(members),
                          model = model.get(), s,
                          shard_m = metrics_for(s->index()), &g]() mutable {
        try {
          process_group(members, model, s, shard_m);
        } catch (...) {
          // The group's requests go unanswered (their clients time out),
          // but its slot must still come back.
        }
        {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          g.answered = true;
        }
        queue_cv_.notify_one();
      });
    }
  }
}

void ForecastServer::process_group(std::vector<Pending>& members,
                                   const ServingModel* model,
                                   core::RaceShard* shard,
                                   ShardMetrics shard_m) {
  const auto now = Clock::now();
  // Requests whose budget evaporated in the queue are explicit sheds.
  std::vector<Pending> live;
  for (auto& item : members) {
    if (item.deadline <= now) {
      m_.expired_in_queue->add(1);
      reject(item, Status::deadline_exceeded("deadline expired in queue"));
    } else {
      live.push_back(std::move(item));
    }
  }
  if (live.empty()) return;
  const auto& req = live.front().req;

  if (!model) {
    for (auto& item : live) {
      reject(item, Status::failed_precondition("no model published"));
    }
    return;
  }

  // The race snapshot was pinned at admission; there is no re-lookup (and
  // no lock) here, and no "race vanished" path — an admitted request is
  // always answered against the state it was admitted with.
  const telemetry::RaceLog& race = *live.front().race;
  if (req.origin_lap >= race.num_laps()) {
    for (auto& item : live) {
      reject(item, Status::out_of_range(
                       "origin_lap " + std::to_string(req.origin_lap) +
                       " beyond race (" +
                       std::to_string(race.num_laps()) + " laps)"));
    }
    return;
  }

  // One engine per shard: only this shard's driver thread mutates its
  // policy, so the per-group deadline arm below is single-writer. Without
  // a fleet (pre-init) fall back to the shard-0 alias.
  const auto& engine = shard ? shard->engine() : model->engine;
  if (shard) {
    shard_m.groups->add(1);
    shard_m.requests->add(live.size());
  }

  wire::ForecastResponse response;
  response.model_version = model->version;
  wire::Tier tier = wire::Tier::kFull;

  // The engine's base draw is the caller rng's first u64, so the key's
  // `base` — and with it cache/dedup identity — is a pure function of the
  // request's seed.
  util::Rng rng(req.seed);

  if (live.front().degraded) {
    // Overload tier: answer from the cache if the bytes already exist,
    // else from the cheap fallback model. Never the primary engine.
    const std::uint64_t base = util::Rng(req.seed)();
    core::RaceSamples samples;
    bool cached = false;
    if (const auto& cache = engine->forecast_cache()) {
      if (auto hit = cache->get(engine->cache_key(
              race, req.origin_lap, req.horizon, req.num_samples, base))) {
        samples = *std::move(hit);
        cached = true;
      }
    }
    if (!cached) {
      samples = registry_.fallback()->forecast(race, req.origin_lap,
                                               req.horizon, req.num_samples,
                                               rng);
    }
    tier = cached ? wire::Tier::kCached : wire::Tier::kFallback;
    for (const auto& [car_id, m] : samples) {
      response.cars.push_back({car_id, core::median_trajectory(m)});
    }
  } else {
    // Per-request budget rides the engine's deadline tier: the tightest
    // remaining deadline in the group bounds the whole compute, and a
    // blown budget degrades to a partial-sample merge instead of a stall.
    double budget_seconds = 1e9;
    for (const auto& item : live) {
      budget_seconds =
          std::min(budget_seconds, seconds_until(item.deadline, now));
    }
    core::ParallelForecastEngine::DegradationPolicy policy;
    policy.deadline_seconds = budget_seconds;
    policy.fallback = registry_.fallback();
    if (auto st = engine->set_degradation_policy(std::move(policy));
        !st.ok()) {
      for (auto& item : live) reject(item, st);
      return;
    }

    // Only this shard's driver drives its engine, so the engine's own
    // tallies move for this group alone; the process-wide
    // "forecast_cache.hits" also moves with hits on other shards.
    const auto hits_before = engine->stats().cache_hits;
    const auto deg_before = engine->degradation();
    core::RaceSamples samples;
    try {
      samples = engine->forecast(race, req.origin_lap, req.horizon,
                                 req.num_samples, rng);
    } catch (const std::exception& e) {
      for (auto& item : live) {
        reject(item, Status::failed_precondition(
                         std::string("forecast failed: ") + e.what()));
      }
      return;
    }
    const bool cache_hit = engine->stats().cache_hits > hits_before;
    const auto deg_after = engine->degradation();
    const auto fallback_delta =
        deg_after.fallback_cars() - deg_before.fallback_cars();
    const auto full_delta = deg_after.full_cars - deg_before.full_cars;
    if (cache_hit) {
      tier = wire::Tier::kCached;
    } else if (fallback_delta > 0) {
      tier = full_delta > 0 ? wire::Tier::kPartial : wire::Tier::kFallback;
    }
    for (const auto& [car_id, m] : samples) {
      response.cars.push_back({car_id, core::median_trajectory(m)});
    }
  }

  response.tier = tier;
  const bool healthy = response_healthy(response);
  if (!healthy) {
    response.status_code =
        static_cast<std::uint8_t>(util::StatusCode::kFailedPrecondition);
    response.message = "model emitted non-finite or implausible medians";
  }
  // Serving feedback: probation rollback triggers here when a freshly
  // promoted model misbehaves on real traffic.
  if (tier == wire::Tier::kFull || tier == wire::Tier::kPartial) {
    registry_.record_serving_result(model->version, healthy);
  }

  for (auto& item : live) {
    response.request_id = item.req.request_id;
    // Book metrics BEFORE the send: anyone who has observed the response is
    // guaranteed the counters already include it (the soak test snapshots
    // tier counters the instant the last response arrives).
    switch (tier) {
      case wire::Tier::kFull: m_.tier_full->add(1); break;
      case wire::Tier::kCached: m_.tier_cached->add(1); break;
      case wire::Tier::kPartial: m_.tier_partial->add(1); break;
      case wire::Tier::kFallback: m_.tier_fallback->add(1); break;
      case wire::Tier::kRejected: break;  // unreachable here
    }
    m_.request_latency->observe(
        std::chrono::duration<double>(Clock::now() - item.arrival).count());
    respond(item.conn, response);
  }
}

void ForecastServer::reject(const Pending& item, Status status) {
  wire::ForecastResponse response;
  response.request_id = item.req.request_id;
  response.status_code = static_cast<std::uint8_t>(status.code());
  response.tier = wire::Tier::kRejected;
  response.message = status.message();
  m_.tier_rejected->add(1);
  respond(item.conn, response);
}

void ForecastServer::respond(const std::shared_ptr<Conn>& conn,
                             const wire::ForecastResponse& response) {
  send_frame(conn, wire::FrameType::kForecastResponse,
             wire::encode_forecast_response(response));
}

void ForecastServer::send_frame(const std::shared_ptr<Conn>& conn,
                                wire::FrameType type,
                                std::span<const std::uint8_t> payload) {
  if (conn->dead.load()) return;
  const auto frame = wire::encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (auto st = conn->stream.send_all(frame.data(), frame.size(),
                                      config_.write_timeout_seconds);
      !st.ok()) {
    m_.write_failures->add(1);
    conn->dead.store(true);
  }
}

}  // namespace ranknet::serve
