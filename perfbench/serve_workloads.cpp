// Serving workloads against ForecastServer over AF_UNIX:
//   live_fanout   — open loop at a fixed offered rate, viewers of four live
//                   races asking for the current lap's Task-A forecast;
//   whatif_closed — closed loop of nproc analysts, every request unique.
// The clients speak the wire protocol directly (serve/wire.hpp) so the
// benchmark can time encode/decode and keep an open-loop schedule.
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "simulator/season.hpp"
#include "util/socket.hpp"

namespace perfbench {

namespace {

namespace wire = serve::wire;

// Request shape and load, shared by both serving workloads (NOTES.md).
constexpr int kSamples = 8;
/// Explicit per-request deadline: the server's 2 s ceiling, far above the
/// slowest cold forecast, so the tier mix stays all full/cached.
constexpr std::uint32_t kDeadlineUs = 2'000'000;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kCacheCapacity = 512;
/// Label the registry records as the artifact of the served generation.
constexpr const char* kArtifactLabel = "artifacts/Indy500-9ae0cc01a4229fcc.bin";

// live_fanout
constexpr int kLiveHorizon = 2;
constexpr double kLiveRate = 300.0;    // offered requests per second
constexpr double kLapSeconds = 0.5;    // race clock: seconds per lap
/// Every live race is at this lap when a window starts, so each run
/// forecasts the same (race, lap) keys and only the request stream and the
/// sample seeds depend on the workload seed.
constexpr int kLiveStartLap = 40;
constexpr int kLiveConnections = 2;    // open-loop generator threads
constexpr double kMaxLateMs = 20.0;    // p99 send lateness that voids a run
const char* const kLiveRaces[] = {"Indy500-2019", "Iowa-2019", "Pocono-2018",
                                  "Texas-2019"};
const double kPopularity[] = {0.4, 0.3, 0.2, 0.1};

// whatif_closed
constexpr int kWhatifHorizons[] = {2, 10};
constexpr std::size_t kWhatifScenarios = 96;

constexpr double kResponseTimeoutS = 10.0;

std::uint64_t medians_digest(const std::vector<wire::CarForecast>& cars) {
  core::Fnv1a h;
  for (const auto& car : cars) {
    h.update_u64(static_cast<std::uint64_t>(car.car_id));
    h.update_bytes(car.median.data(), car.median.size() * sizeof(double));
  }
  return h.digest();
}

/// The digest a correct response for `samples` carries: the server sends
/// core::median_trajectory per car, in car-id order.
std::uint64_t medians_digest(const core::RaceSamples& samples) {
  std::vector<wire::CarForecast> cars;
  for (const auto& [car_id, m] : samples) {
    cars.push_back({car_id, core::median_trajectory(m)});
  }
  return medians_digest(cars);
}

/// One client connection speaking the wire protocol directly.
class WireClient {
 public:
  void connect(const std::string& path) {
    auto stream = util::UnixStream::connect(path, 5.0);
    if (!stream.ok()) {
      throw BenchError("connect " + path + ": " + stream.status().to_string());
    }
    stream_ = std::move(stream).value();
  }

  /// Encode (timed) and send one request; false when the send failed.
  bool send(const wire::ForecastRequest& request) {
    const auto t0 = Clock::now();
    const auto frame =
        wire::encode_frame(wire::FrameType::kForecastRequest,
                           wire::encode_forecast_request(request));
    encode_s.push_back(seconds_since(t0));
    return stream_.send_all(frame.data(), frame.size(), 2.0).ok();
  }

  /// Wait up to `timeout_s` for data, then decode (timed) every complete
  /// response frame into `out`. False when the connection is gone.
  bool receive(double timeout_s, std::vector<wire::ForecastResponse>& out) {
    pollfd p{stream_.fd(), POLLIN, 0};
    const auto ns = static_cast<long long>(std::max(0.0, timeout_s) * 1e9);
    const timespec ts{static_cast<time_t>(ns / 1000000000LL),
                      static_cast<long>(ns % 1000000000LL)};
    const int rc = ::ppoll(&p, 1, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    if (rc == 0) return true;
    auto got = stream_.recv_some(scratch_.data(), scratch_.size(), 0.0);
    if (!got.ok()) return got.status().code() == util::StatusCode::kUnavailable;
    if (got.value() == 0) return false;
    buf_.insert(buf_.end(), scratch_.begin(), scratch_.begin() + got.value());
    std::size_t off = 0;
    while (buf_.size() - off >= wire::kHeaderSize) {
      auto header = wire::decode_header(
          std::span<const std::uint8_t>(buf_.data() + off, wire::kHeaderSize));
      if (!header.ok()) return false;
      const std::size_t size = wire::kHeaderSize + header.value().payload_len;
      if (buf_.size() - off < size) break;
      const std::span<const std::uint8_t> payload(
          buf_.data() + off + wire::kHeaderSize, header.value().payload_len);
      const auto t0 = Clock::now();
      if (header.value().type == wire::FrameType::kForecastResponse &&
          wire::verify_payload(header.value(), payload).ok()) {
        auto response = wire::decode_forecast_response(payload);
        decode_s.push_back(seconds_since(t0));
        if (response.ok()) out.push_back(std::move(response).value());
      }
      off += size;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  }

  std::vector<double> encode_s, decode_s;

 private:
  util::UnixStream stream_;
  std::vector<std::uint8_t> buf_;
  std::vector<std::uint8_t> scratch_ = std::vector<std::uint8_t>(64 * 1024);
};

/// Models, registry (nproc shards), server and connected clients.
struct ServeStack {
  Models models;
  std::vector<telemetry::RaceLog> races;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ForecastServer> server;
  std::vector<WireClient> clients;

  /// Per-shard engine wall time so far (shard busy time).
  std::vector<double> shard_busy() const {
    std::vector<double> busy;
    const auto& fleet = registry->active()->fleet;
    for (std::size_t i = 0; i < fleet->num_shards(); ++i) {
      busy.push_back(fleet->shard(i)->engine()->stats().wall_seconds);
    }
    return busy;
  }
};

struct Request {
  int race = 0;
  int origin = 0;
  int horizon = 0;
  std::uint64_t seed = 0;
};

wire::ForecastRequest to_wire(const ServeStack& stack, const Request& r,
                              std::uint64_t id) {
  wire::ForecastRequest req;
  req.request_id = id;
  req.seed = r.seed;
  req.race_id = stack.races[static_cast<std::size_t>(r.race)].id();
  req.origin_lap = r.origin;
  req.horizon = r.horizon;
  req.num_samples = kSamples;
  req.deadline_us = kDeadlineUs;
  return req;
}

/// Send every request on one connection and wait for all the answers.
void send_and_wait(ServeStack& stack, const std::vector<Request>& requests) {
  auto& client = stack.clients.front();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!client.send(to_wire(stack, requests[i], 1 + i))) {
      throw BenchError("warm-up send failed");
    }
  }
  std::size_t answered = 0;
  const auto t0 = Clock::now();
  std::vector<wire::ForecastResponse> got;
  while (answered < requests.size()) {
    if (seconds_since(t0) > 60.0 || !client.receive(1.0, got)) {
      throw BenchError("warm-up requests were not answered");
    }
    answered = got.size();
  }
  client.encode_s.clear();
  client.decode_s.clear();
}

/// Set-up: load the models, start the registry and the server with every
/// race preloaded whole, connect the clients and warm each race's shard.
std::unique_ptr<ServeStack> build_serve_stack(
    const Options& options, std::vector<telemetry::RaceLog> races,
    int connections, SpanLog* log) {
  auto stack = std::make_unique<ServeStack>();
  stack->models = load_models();
  stack->races = std::move(races);

  const Models* models = &stack->models;
  auto next_instance = std::make_shared<int>(0);
  serve::ModelFactory factory =
      [models, log, next_instance](const std::string&)
      -> util::Result<std::shared_ptr<core::RaceForecaster>> {
    auto forecaster = make_ranknet(*models);
    if (log == nullptr) {
      return std::shared_ptr<core::RaceForecaster>(std::move(forecaster));
    }
    return std::shared_ptr<core::RaceForecaster>(
        std::make_shared<TracedForecaster>(std::move(forecaster), *log,
                                           (*next_instance)++));
  };
  serve::RegistryConfig config;
  config.shards = static_cast<std::size_t>(nproc());
  config.engine_threads = 0;  // each shard decodes on its driver thread
  stack->registry = std::make_unique<serve::ModelRegistry>(factory, config);
  stack->registry->set_probe_race(stack->races.front());
  stack->registry->set_forecast_cache(std::make_shared<core::ForecastCache>(
      kCacheCapacity, static_cast<std::size_t>(nproc())));
  if (auto st = stack->registry->init(kArtifactLabel); !st.ok()) {
    throw BenchError("registry init: " + st.to_string());
  }

  serve::ServerConfig server_config;
  server_config.socket_path = options.work_dir + "/serve.sock";
  stack->server =
      std::make_unique<serve::ForecastServer>(*stack->registry, server_config);
  for (const auto& race : stack->races) stack->server->add_race(race);
  if (auto st = stack->server->start(); !st.ok()) {
    throw BenchError("server start: " + st.to_string());
  }
  stack->clients.resize(static_cast<std::size_t>(connections));
  for (auto& client : stack->clients) client.connect(server_config.socket_path);

  std::vector<Request> warm;
  for (std::size_t r = 0; r < stack->races.size(); ++r) {
    warm.push_back({static_cast<int>(r), 20, 2, 0x3a7e0000u + r});
  }
  send_and_wait(*stack, warm);
  return stack;
}

/// One request's fate as the client saw it.
struct Outcome {
  Request request;
  bool answered = false;
  bool ok = false;  // answered with status OK and a non-rejected tier
  wire::Tier tier = wire::Tier::kRejected;
  std::uint64_t digest = 0;
  double scheduled_s = 0;  // since window start (open loop: due time)
  double sent_s = 0;
  double done_s = 0;
};

/// Everything one timed window produced.
struct Window {
  std::vector<Outcome> outcomes;
  double wall_s = 0;
  std::vector<double> late_ms;
  std::vector<double> encode_s, decode_s;
  Clock::time_point start;

  /// Answered requests' latency, in send order.
  std::vector<double> latency_ms() const {
    std::vector<std::pair<double, double>> sent;
    for (const auto& o : outcomes) {
      if (!o.ok) continue;
      sent.emplace_back(o.scheduled_s, (o.done_s - o.scheduled_s) * 1e3);
    }
    std::sort(sent.begin(), sent.end());
    std::vector<double> out;
    for (const auto& [at, ms] : sent) out.push_back(ms);
    return out;
  }
  std::size_t count(bool (*pred)(const Outcome&)) const {
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(), pred));
  }
  std::size_t ok() const {
    return count([](const Outcome& o) { return o.ok; });
  }
  std::size_t degraded() const {
    return count([](const Outcome& o) {
      return o.ok && (o.tier == wire::Tier::kPartial ||
                      o.tier == wire::Tier::kFallback);
    });
  }
  double forecasts_per_s() const {
    return wall_s > 0 ? static_cast<double>(ok()) / wall_s : 0.0;
  }
};

void collect_wire_times(ServeStack& stack, Window& w) {
  for (auto& client : stack.clients) {
    w.encode_s.insert(w.encode_s.end(), client.encode_s.begin(),
                      client.encode_s.end());
    w.decode_s.insert(w.decode_s.end(), client.decode_s.begin(),
                      client.decode_s.end());
    client.encode_s.clear();
    client.decode_s.clear();
  }
}

void record_answer(Outcome& o, const wire::ForecastResponse& response,
                   double now_s) {
  o.answered = true;
  o.ok = response.ok() && response.tier != wire::Tier::kRejected;
  o.tier = response.tier;
  o.digest = medians_digest(response.cars);
  o.done_s = now_s;
}

// --- live_fanout --------------------------------------------------------------

/// The open-loop schedule of one window, built from the seed before the
/// window starts: arrival times (a Poisson process conditioned on its
/// count), race by popularity, lap from the scripted race clock, and one
/// seed per (race, lap) shared by all its viewers.
std::vector<Outcome> live_schedule(const ServeStack& stack, std::uint64_t seed,
                                   double seconds) {
  util::Rng rng(seed);
  const int laps_run = static_cast<int>(std::ceil(seconds / kLapSeconds)) + 1;
  for (const auto& race : stack.races) {
    if (kLiveStartLap + laps_run + kLiveHorizon > race.num_laps()) {
      throw BenchError("--seconds too long: " + race.id() +
                       " would run out of laps");
    }
  }
  const auto n = static_cast<std::size_t>(std::llround(kLiveRate * seconds));
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, seconds);
  std::sort(times.begin(), times.end());
  std::vector<Outcome> schedule(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto race = static_cast<int>(rng.categorical(kPopularity));
    // Race clocks are staggered by a quarter lap so lap changes (the cold
    // forecasts) of different races do not coincide.
    const double phase = kLapSeconds * race / 4.0;
    const int lap =
        kLiveStartLap + static_cast<int>((times[i] + phase) / kLapSeconds);
    auto& o = schedule[i];
    o.request = {race, lap, kLiveHorizon,
                 util::Rng::stream(seed, static_cast<std::uint64_t>(race),
                                   static_cast<std::uint64_t>(lap))()};
    o.scheduled_s = times[i];
  }
  return schedule;
}

/// One generator thread: sends its share of the schedule on time and reads
/// responses in between, on one connection.
void open_loop(const ServeStack& stack, WireClient& client,
               std::vector<Outcome>& outcomes, std::size_t first,
               std::size_t stride, std::uint64_t id_base,
               Clock::time_point t0, std::vector<double>& late_ms) {
  std::size_t next = first;
  std::size_t pending = 0;
  std::vector<wire::ForecastResponse> got;
  const double drain_until =
      (outcomes.empty() ? 0.0 : outcomes.back().scheduled_s) +
      kResponseTimeoutS;
  while (true) {
    double now = seconds_since(t0);
    while (next < outcomes.size() && outcomes[next].scheduled_s <= now) {
      auto& o = outcomes[next];
      late_ms.push_back((now - o.scheduled_s) * 1e3);
      o.sent_s = now;
      if (client.send(to_wire(stack, o.request, id_base + next))) ++pending;
      next += stride;
      now = seconds_since(t0);
    }
    const bool all_sent = next >= outcomes.size();
    if (all_sent && (pending == 0 || now > drain_until)) break;
    const double wait =
        all_sent ? 0.05 : outcomes[next].scheduled_s - now;
    got.clear();
    if (!client.receive(wait, got)) break;
    const double done = seconds_since(t0);
    for (const auto& response : got) {
      const std::uint64_t i = response.request_id - id_base;
      if (i >= outcomes.size() || outcomes[i].answered) continue;
      record_answer(outcomes[i], response, done);
      --pending;
    }
  }
}

Window live_window(ServeStack& stack, std::uint64_t seed, double seconds) {
  Window w;
  w.outcomes = live_schedule(stack, seed, seconds);
  std::vector<std::vector<double>> late(stack.clients.size());
  const std::uint64_t id_base = (seed & 0xffff) << 32;
  // Threads start a little before the first due time.
  w.start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::jthread> generators;
    for (std::size_t g = 0; g < stack.clients.size(); ++g) {
      generators.emplace_back([&, g] {
        open_loop(stack, stack.clients[g], w.outcomes, g,
                  stack.clients.size(), id_base, w.start, late[g]);
      });
    }
  }
  for (const auto& o : w.outcomes) w.wall_s = std::max(w.wall_s, o.done_s);
  for (const auto& l : late) w.late_ms.insert(w.late_ms.end(), l.begin(), l.end());
  collect_wire_times(stack, w);
  return w;
}

// --- whatif_closed ------------------------------------------------------------

/// The what-if scenarios: (random season race, random origin, h in
/// {2, 10} alternating), drawn once from a fixed seed so every run asks
/// about the same mix. The workload seed orders them per analyst and gives
/// every request its own sample seed, so no two requests share a key.
std::vector<Request> whatif_scenarios(const ServeStack& stack) {
  util::Rng rng(0x3a7f1f);
  std::vector<Request> pool(kWhatifScenarios);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    auto& r = pool[i];
    r.race = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(stack.races.size()) - 1));
    r.horizon = kWhatifHorizons[i % 2];
    r.origin = static_cast<int>(rng.uniform_int(
        10, stack.races[static_cast<std::size_t>(r.race)].num_laps() -
                r.horizon));
  }
  return pool;
}

/// One analyst: a unique request (the next scenario of its own seeded
/// order, with a fresh sample seed), then wait for its answer; repeat until
/// time is up.
void closed_loop(const ServeStack& stack, WireClient& client, std::uint64_t seed,
                 std::size_t index, double seconds, Clock::time_point t0,
                 std::vector<Outcome>& outcomes) {
  util::Rng rng = util::Rng::stream(seed, index + 1);
  const auto scenarios = whatif_scenarios(stack);
  std::vector<std::size_t> order(scenarios.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const std::uint64_t id_base = (index + 1) << 40;
  std::vector<wire::ForecastResponse> got;
  while (seconds_since(t0) < seconds) {
    Outcome o;
    o.request = scenarios[order[outcomes.size() % order.size()]];
    o.request.seed = rng();
    const std::uint64_t id = id_base + outcomes.size();
    o.scheduled_s = o.sent_s = seconds_since(t0);
    bool alive = client.send(to_wire(stack, o.request, id));
    while (alive && !o.answered &&
           seconds_since(t0) - o.sent_s < kResponseTimeoutS) {
      got.clear();
      alive = client.receive(0.5, got);
      for (const auto& response : got) {
        if (response.request_id == id) {
          record_answer(o, response, seconds_since(t0));
        }
      }
    }
    outcomes.push_back(o);
    if (!alive) break;
  }
}

Window whatif_window(ServeStack& stack, std::uint64_t seed, double seconds) {
  Window w;
  std::vector<std::vector<Outcome>> per_client(stack.clients.size());
  w.start = Clock::now();
  {
    std::vector<std::jthread> analysts;
    for (std::size_t c = 0; c < stack.clients.size(); ++c) {
      analysts.emplace_back([&, c] {
        closed_loop(stack, stack.clients[c], seed, c, seconds, w.start,
                    per_client[c]);
      });
    }
  }
  for (auto& outcomes : per_client) {
    for (auto& o : outcomes) {
      w.wall_s = std::max(w.wall_s, o.done_s);
      w.outcomes.push_back(o);
    }
  }
  collect_wire_times(stack, w);
  return w;
}

// --- oracle and reporting -------------------------------------------------------

struct Oracle {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  TaskAScore score;
};

/// Recompute `keys` through the public engine API on a separate RankNet-MLP
/// instance; every full or cached response to a key must carry the
/// reference medians bit for bit.
Oracle check_responses(const ServeStack& stack,
                       const std::vector<const Outcome*>& responses) {
  std::map<std::tuple<int, int, int, std::uint64_t>,
           std::vector<const Outcome*>>
      by_key;
  for (const Outcome* o : responses) {
    if (o->tier != wire::Tier::kFull && o->tier != wire::Tier::kCached) continue;
    by_key[{o->request.race, o->request.origin, o->request.horizon,
            o->request.seed}]
        .push_back(o);
  }
  core::ParallelForecastEngine engine(make_ranknet(stack.models),
                                      /*threads=*/0);
  Oracle oracle;
  for (const auto& [key, members] : by_key) {
    const auto& [race, origin, horizon, seed] = key;
    const auto& log = stack.races[static_cast<std::size_t>(race)];
    util::Rng rng(seed);
    const auto samples = engine.forecast(log, origin, horizon, kSamples, rng);
    const std::uint64_t reference = medians_digest(samples);
    for (const Outcome* o : members) {
      ++oracle.checked;
      if (o->digest != reference) ++oracle.mismatched;
    }
    oracle.score.add(samples, log, origin, horizon);
  }
  return oracle;
}

/// Fill correctness fields; returns the failed share.
double account(RunResult& result, const std::vector<const Window*>& windows,
               const Oracle& oracle) {
  std::size_t attempted = 0, ok = 0;
  for (const Window* w : windows) {
    attempted += w->outcomes.size();
    ok += w->ok();
  }
  result.attempted += attempted;
  result.failed += (attempted - ok) + oracle.mismatched;
  if (oracle.mismatched > 0) result.correct = false;
  std::fprintf(stderr, "oracle: %zu responses checked, %zu mismatched\n",
               oracle.checked, oracle.mismatched);
  return attempted == 0 ? 0.0
                        : static_cast<double>(attempted - ok +
                                              oracle.mismatched) /
                              static_cast<double>(attempted);
}

EndToEnd end_to_end(const Window& w, double setup_s, double failed_share,
                    const Oracle& oracle) {
  EndToEnd e;
  e.setup_s = setup_s;
  const auto latency = w.latency_ms();
  e.latency_p50_ms = sliced_quantile(latency, 0.50);
  e.latency_p99_ms = sliced_quantile(latency, 0.99);
  e.latency_samples = latency.size();
  e.forecasts_per_s = w.forecasts_per_s();
  e.failed_share = failed_share;
  e.degraded_share = w.outcomes.empty()
                         ? 0.0
                         : static_cast<double>(w.degraded()) /
                               static_cast<double>(w.outcomes.size());
  e.rank_mae = oracle.score.mae();
  e.risk90 = oracle.score.risk90();
  e.score_pairs = oracle.score.pairs();
  return e;
}

std::vector<double> to_us(const std::vector<double>& seconds) {
  std::vector<double> us;
  for (double s : seconds) us.push_back(s * 1e6);
  return us;
}

/// Outside readings of a traced serving window.
OutsideReadings serve_readings(const Window& traced, const Window& untraced,
                               const std::vector<double>& busy_before,
                               const std::vector<double>& busy_after) {
  OutsideReadings out;
  out.late_ms_p99 = quantile(traced.late_ms, 0.99);
  out.sent = static_cast<double>(traced.outcomes.size());
  std::vector<double> rtt_ms;
  for (const auto& o : traced.outcomes) {
    if (!o.ok) continue;
    rtt_ms.push_back((o.done_s - o.sent_s) * 1e3);
    out.request_seconds += o.done_s - o.scheduled_s;
  }
  out.client_rtt_ms_mean =
      rtt_ms.empty() ? 0.0
                     : std::accumulate(rtt_ms.begin(), rtt_ms.end(), 0.0) /
                           static_cast<double>(rtt_ms.size());
  out.wire_encode_us = median(to_us(traced.encode_s));
  out.wire_decode_us = median(to_us(traced.decode_s));
  set_shard_busy(out, busy_before, busy_after);
  out.fps_untraced = untraced.forecasts_per_s();
  out.fps_traced = traced.forecasts_per_s();
  return out;
}

void record_client_spans(SpanLog& log, const ServeStack& stack,
                         const Window& w) {
  const double offset = log.now() - seconds_since(w.start);
  for (const auto& o : w.outcomes) {
    if (!o.answered) continue;
    const auto& r = o.request;
    log.record({"client.request", offset + o.scheduled_s, offset + o.done_s,
                forecast_key(stack.races[static_cast<std::size_t>(r.race)].id(),
                             r.origin, r.horizon, kSamples,
                             util::Rng(r.seed)()),
                0, 0.0});
  }
}

using WindowFn = Window (*)(ServeStack&, std::uint64_t, double);

/// Runs either serving workload. Untraced: one timed window of
/// `seconds`. Traced: an untraced and a traced half-window on one traced
/// set-up, per-layer metrics from the traced half.
RunResult run_serving(const Options& options,
                      std::vector<telemetry::RaceLog> races, int connections,
                      WindowFn window,
                      std::vector<const Outcome*> (*to_check)(
                          const Window&, std::uint64_t)) {
  std::filesystem::create_directories(options.work_dir);
  SpanLog log;
  double setup_s = 0;
  auto stack = timed_setups(
      options.trace ? 1 : kSetupRepeats,
      [&] {
        return build_serve_stack(options, races, connections,
                                 options.trace ? &log : nullptr);
      },
      setup_s);

  // An open loop that fell behind its schedule did not offer the load it
  // claims: the run is void.
  const auto on_schedule = [](const Window& w) {
    const double late = quantile(w.late_ms, 0.99);
    if (late > kMaxLateMs) {
      throw BenchError("open-loop generator fell behind its schedule: send "
                       "lateness p99 " + std::to_string(late) + " ms");
    }
  };

  RunResult result;
  if (!options.trace) {
    const Window w = window(*stack, options.seed, options.seconds);
    on_schedule(w);
    const Oracle oracle = check_responses(*stack, to_check(w, options.seed));
    const double failed_share = account(result, {&w}, oracle);
    add_end_to_end(result, end_to_end(w, setup_s, failed_share, oracle));
    return result;
  }

  const Window untraced =
      window(*stack, options.seed, options.seconds / 2.0);
  // ranknet.partition_overhead is measured on the untraced window's first
  // answered keys, before the traced window zeroes the registry.
  std::vector<OverheadKey> keys;
  for (const auto& o : untraced.outcomes) {
    if (keys.size() == 3) break;
    if (!o.ok) continue;
    const auto& r = o.request;
    keys.push_back({&stack->races[static_cast<std::size_t>(r.race)], r.origin,
                    r.horizon, kSamples, util::Rng(r.seed)()});
  }
  const double overhead = partition_overhead(stack->models, keys);

  const auto busy_before = stack->shard_busy();
  log.set_enabled(true);
  begin_layer_window();
  const Window traced =
      window(*stack, options.seed ^ 0x7ace, options.seconds / 2.0);
  log.set_enabled(false);
  on_schedule(untraced);
  on_schedule(traced);
  OutsideReadings outside =
      serve_readings(traced, untraced, busy_before, stack->shard_busy());
  outside.partition_overhead = overhead;
  add_layer_metrics(result, model_work(log), outside);

  record_client_spans(log, *stack, traced);
  log.write(options.work_dir + "/spans-" + options.workload + ".jsonl");

  auto checks = to_check(untraced, options.seed);
  const auto traced_checks = to_check(traced, options.seed ^ 0x7ace);
  checks.insert(checks.end(), traced_checks.begin(), traced_checks.end());
  account(result, {&untraced, &traced}, check_responses(*stack, checks));
  return result;
}

std::vector<telemetry::RaceLog> live_races() {
  std::vector<telemetry::RaceLog> races;
  for (const char* id : kLiveRaces) {
    for (const auto& spec : sim::table2_specs()) {
      if (spec.event + "-" + std::to_string(spec.year) == id) {
        races.push_back(sim::simulate_race(spec));
      }
    }
  }
  return races;
}

/// live_fanout checks every answered response.
std::vector<const Outcome*> every_response(const Window& w, std::uint64_t) {
  std::vector<const Outcome*> out;
  for (const auto& o : w.outcomes) {
    if (o.ok) out.push_back(&o);
  }
  return out;
}

/// whatif_closed checks a seeded sample of the answered keys: one answered
/// request per scenario, so accuracy is scored on the same scenarios in
/// every run.
std::vector<const Outcome*> sampled_responses(const Window& w,
                                              std::uint64_t seed) {
  auto answered = every_response(w, seed);
  util::Rng rng = util::Rng::stream(seed, 0x0eac1e);
  rng.shuffle(answered);
  std::map<std::tuple<int, int, int>, const Outcome*> one_per_scenario;
  for (const Outcome* o : answered) {
    one_per_scenario.try_emplace(
        {o->request.race, o->request.origin, o->request.horizon}, o);
  }
  std::vector<const Outcome*> out;
  for (const auto& [scenario, o] : one_per_scenario) out.push_back(o);
  return out;
}

}  // namespace

RunResult run_live_fanout(const Options& options) {
  return run_serving(options, live_races(), kLiveConnections, &live_window,
                     &every_response);
}

RunResult run_whatif_closed(const Options& options) {
  return run_serving(options, sim::simulate_season(), nproc(), &whatif_window,
                     &sampled_responses);
}

}  // namespace perfbench
