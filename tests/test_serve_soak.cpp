// Serving soak: sustained load through the four fault profiles the serving
// front end must survive — clean (also under a tight per-request
// deadline), lossy transport (drop + truncate + corrupt), stalled clients
// alongside healthy traffic, and model-swap churn
// — asserting the server's core robustness claims end to end:
//   1. zero crashed/hung requests: every request is answered or explicitly
//      rejected (lossy-transport requests are re-driven until answered);
//   2. serve.* counters are monotone across phases and the tier counters
//      account for every response the server produced;
//   3. clean cache-hit replays are byte-identical across phases while the
//      model version is stable, and under swap churn at least one promotion
//      AND one automatic probation rollback land while traffic is flowing.
//
// The harness pipelines raw frames (chunks of 50) rather than using the
// synchronous client so 10k+ requests per profile stay inside a tier-1 time
// budget on a single-core box. Transport faults are injected client-side
// through sim::WireFaultInjector; because apply() returns the exact bytes
// it mutated, the harness knows precisely which requests can still be
// answered on the current connection — no guess-and-timeout tails:
//   dropped            -> never sent, re-queue
//   payload corrupted  -> checksum skip server-side, framing survives
//   truncated / header -> the connection's framing is gone; the chunk's
//     corrupted            remainder is void and re-queues on a fresh conn
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/forecast_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "serve/client.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "simulator/fault_injector.hpp"
#include "simulator/season.hpp"
#include "util/socket.hpp"

namespace {

using namespace ranknet;
namespace wire = serve::wire;

constexpr int kRequestsPerProfile = 10000;
constexpr std::size_t kChunk = 50;
constexpr int kSeedSpace = 64;  // distinct seeds => bounded cache footprint

// Tier counters: their per-phase delta must equal the number of responses
// the server emitted (this binary is the only traffic source).
const char* const kTierCounters[] = {
    "serve.tier.full",     "serve.tier.cached",   "serve.tier.partial",
    "serve.tier.fallback", "serve.tier.rejected",
};
// Everything the soak watches for monotonicity across phases.
const char* const kMonotoneCounters[] = {
    "serve.tier.full",
    "serve.tier.cached",
    "serve.tier.partial",
    "serve.tier.fallback",
    "serve.tier.rejected",
    "serve.admission.shed_queue_full",
    "serve.admission.degraded",
    "serve.deadline.expired_in_queue",
    "serve.frames.corrupt_skipped",
    "serve.frames.bad_header",
    "serve.conn.slow_dropped",
    "serve.registry.promoted",
    "serve.registry.rolled_back",
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

std::vector<std::uint64_t> snapshot(const char* const* names, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = counter_value(names[i]);
  return out;
}

serve::ModelFactory affine_factory() {
  return [](const std::string& path)
             -> util::Result<std::shared_ptr<core::RaceForecaster>> {
    auto model = std::make_shared<serve::AffineRankModel>();
    if (auto st = model->load_artifact(path); !st.ok()) return st;
    return std::shared_ptr<core::RaceForecaster>(std::move(model));
  };
}

util::Result<wire::ForecastResponse> read_response(util::UnixStream& stream,
                                                   double timeout) {
  std::uint8_t header_bytes[wire::kHeaderSize];
  if (auto st = stream.recv_all(header_bytes, sizeof(header_bytes), timeout);
      !st.ok()) {
    return st;
  }
  auto header = wire::decode_header(header_bytes);
  if (!header.ok()) return header.status();
  std::vector<std::uint8_t> payload(header.value().payload_len);
  if (auto st = stream.recv_all(payload.data(), payload.size(), timeout);
      !st.ok()) {
    return st;
  }
  if (auto st = wire::verify_payload(header.value(), payload); !st.ok()) {
    return st;
  }
  return wire::decode_forecast_response(payload);
}

std::vector<std::uint8_t> flatten(const wire::ForecastResponse& response) {
  std::vector<std::uint8_t> bytes;
  for (const auto& car : response.cars) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(car.median.data());
    bytes.insert(bytes.end(), p, p + car.median.size() * sizeof(double));
  }
  return bytes;
}

class ServeSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    race_ = std::make_unique<telemetry::RaceLog>(
        sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest}));
    serve::AffineRankModel::save_artifact(kIdentityArtifact, 1.0, 0.0);
    serve::AffineRankModel::save_artifact(kScaledArtifact, 2.0, 3.0);
    serve::AffineRankModel::save_artifact(
        kNanArtifact, std::numeric_limits<double>::quiet_NaN(), 0.0);

    serve::RegistryConfig reg_cfg;
    reg_cfg.gate.probe_origin_lap = 30;
    reg_cfg.gate.probe_horizon = 5;
    reg_cfg.gate.probe_num_samples = 4;
    // Gate off: the swap-churn phase needs a rotten model to reach serving
    // so the probation rollback fires under live traffic.
    reg_cfg.gate.max_prediction_failure_rate = 1.0;
    registry_ =
        std::make_unique<serve::ModelRegistry>(affine_factory(), reg_cfg);
    registry_->set_probe_race(*race_);
    registry_->set_forecast_cache(std::make_shared<core::ForecastCache>(256));
    ASSERT_TRUE(registry_->init(kIdentityArtifact).ok());

    serve::ServerConfig cfg;
    cfg.socket_path = "/tmp/ranknet_serve_soak.sock";
    cfg.slow_client_timeout_seconds = 0.1;
    server_ = std::make_unique<serve::ForecastServer>(*registry_, cfg);
    server_->add_race(*race_);
    ASSERT_TRUE(server_->start().ok());
    socket_path_ = cfg.socket_path;
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  wire::ForecastRequest make_request(std::uint64_t id, std::uint64_t seed,
                                     std::uint32_t deadline_us = 0) {
    wire::ForecastRequest req;
    req.request_id = id;
    req.seed = seed;
    req.race_id = race_->id();
    req.origin_lap = 30;
    req.horizon = 5;
    req.num_samples = 4;
    req.deadline_us = deadline_us;
    return req;
  }

  std::vector<wire::ForecastRequest> make_batch(int count,
                                                std::uint64_t seed_base,
                                                std::uint32_t deadline_us = 0) {
    std::vector<wire::ForecastRequest> reqs;
    reqs.reserve(count);
    for (int i = 0; i < count; ++i) {
      reqs.push_back(make_request(next_id_++, seed_base + (i % kSeedSpace),
                                  deadline_us));
    }
    return reqs;
  }

  /// Record/verify the byte-identical-replay invariant for a successful
  /// version-1 response. First sighting of a seed stores the bytes; every
  /// later sighting must match exactly.
  void check_replay(std::uint64_t seed, const wire::ForecastResponse& r) {
    if (!r.ok() || r.model_version != 1) return;
    auto bytes = flatten(r);
    auto it = replay_.find(seed);
    if (it == replay_.end()) {
      replay_.emplace(seed, std::move(bytes));
    } else {
      EXPECT_EQ(bytes, it->second)
          << "cache-hit replay for seed " << seed << " not byte-identical";
    }
  }

  /// Pipeline `reqs` over clean transport; every request must come back
  /// (any order — the worker's group map may reorder within a batch).
  /// Returns the number answered.
  int drive_clean(const std::vector<wire::ForecastRequest>& reqs,
                  bool verify_replay) {
    std::map<std::uint64_t, std::uint64_t> id_to_seed;
    for (const auto& r : reqs) id_to_seed[r.request_id] = r.seed;
    auto stream = util::UnixStream::connect(socket_path_, 1.0);
    EXPECT_TRUE(stream.ok());
    if (!stream.ok()) return 0;
    int answered = 0;
    for (std::size_t base = 0; base < reqs.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, reqs.size() - base);
      std::vector<std::uint8_t> out;
      for (std::size_t i = 0; i < n; ++i) {
        const auto frame = wire::encode_frame(
            wire::FrameType::kForecastRequest,
            wire::encode_forecast_request(reqs[base + i]));
        out.insert(out.end(), frame.begin(), frame.end());
      }
      EXPECT_TRUE(stream.value().send_all(out.data(), out.size(), 5.0).ok());
      for (std::size_t i = 0; i < n; ++i) {
        auto response = read_response(stream.value(), 10.0);
        EXPECT_TRUE(response.ok())
            << "request starved at offset " << (base + i) << ": "
            << response.status().to_string();
        if (!response.ok()) return answered;
        ++answered;
        const auto& r = response.value();
        auto seed_it = id_to_seed.find(r.request_id);
        EXPECT_NE(seed_it, id_to_seed.end()) << "unsolicited response";
        if (verify_replay && seed_it != id_to_seed.end()) {
          check_replay(seed_it->second, r);
        }
      }
    }
    return answered;
  }

  static constexpr const char* kIdentityArtifact =
      "/tmp/ranknet_soak_identity.bin";
  static constexpr const char* kScaledArtifact =
      "/tmp/ranknet_soak_scaled.bin";
  static constexpr const char* kNanArtifact = "/tmp/ranknet_soak_nan.bin";

  std::unique_ptr<telemetry::RaceLog> race_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::ForecastServer> server_;
  std::string socket_path_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::vector<std::uint8_t>> replay_;  // seed->bytes
};

TEST_F(ServeSoakTest, SustainedLoadThroughFaultProfiles) {
  auto monotone_prev =
      snapshot(kMonotoneCounters, std::size(kMonotoneCounters));
  auto check_monotone = [&](const char* phase) {
    auto now = snapshot(kMonotoneCounters, std::size(kMonotoneCounters));
    for (std::size_t i = 0; i < now.size(); ++i) {
      EXPECT_GE(now[i], monotone_prev[i])
          << kMonotoneCounters[i] << " decreased during phase " << phase;
    }
    monotone_prev = std::move(now);
  };
  auto tier_total = [] {
    std::uint64_t sum = 0;
    for (const char* name : kTierCounters) sum += counter_value(name);
    return sum;
  };

  // ---- Phase 1: clean transport ---------------------------------------
  {
    const auto tiers_before = tier_total();
    const int answered =
        drive_clean(make_batch(kRequestsPerProfile, 1000), true);
    ASSERT_EQ(answered, kRequestsPerProfile);
    EXPECT_EQ(tier_total() - tiers_before,
              static_cast<std::uint64_t>(kRequestsPerProfile));
    EXPECT_GE(replay_.size(), static_cast<std::size_t>(kSeedSpace));
    EXPECT_GT(counter_value("serve.tier.cached"), 0u)
        << "seed cycling never hit the forecast cache";
  }
  check_monotone("clean");

  // ---- Phase 1b: clean transport under a 2 ms per-request deadline -----
  // A tight budget may degrade a forecast or reject it in the queue, but
  // every request still comes back with exactly one tier. Fresh seeds, so
  // the first sighting of each is a cold forecast under the budget.
  {
    constexpr int kDeadlineRequests = kRequestsPerProfile / 5;
    const auto tiers_before = tier_total();
    const int answered = drive_clean(
        make_batch(kDeadlineRequests, 5000, /*deadline_us=*/2000), false);
    ASSERT_EQ(answered, kDeadlineRequests);
    EXPECT_EQ(tier_total() - tiers_before,
              static_cast<std::uint64_t>(kDeadlineRequests));
  }
  check_monotone("deadline");

  // ---- Phase 2: lossy transport (drop + truncate + corrupt) -----------
  {
    sim::WireFaultProfile profile;
    profile.drop_rate = 0.01;
    profile.truncate_rate = 0.003;
    profile.corrupt_rate = 0.01;
    sim::WireFaultInjector injector(profile, 0xfa01);
    auto pending = make_batch(kRequestsPerProfile, 1000);  // same seed space
    std::map<std::uint64_t, std::uint64_t> id_to_seed;
    for (const auto& r : pending) id_to_seed[r.request_id] = r.seed;

    int rounds = 0;
    int answered = 0;
    while (!pending.empty()) {
      ASSERT_LT(++rounds, 400)
          << pending.size()
          << " requests still unanswered — the lossy phase stopped "
             "converging";
      std::vector<wire::ForecastRequest> next_round;
      for (std::size_t base = 0; base < pending.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, pending.size() - base);
        // Fresh connection per chunk: a poisoned frame only voids the rest
        // of its own chunk, and the server's slow-client guard reaps the
        // carcass on its own schedule.
        auto stream = util::UnixStream::connect(socket_path_, 1.0);
        ASSERT_TRUE(stream.ok());
        std::vector<std::uint8_t> out;
        std::set<std::uint64_t> expecting;
        bool poisoned = false;
        std::size_t i = 0;
        for (; i < n && !poisoned; ++i) {
          const auto& req = pending[base + i];
          const auto frame = wire::encode_frame(
              wire::FrameType::kForecastRequest,
              wire::encode_forecast_request(req));
          auto mutated = injector.apply(frame);
          if (!mutated.has_value()) {  // dropped on the floor
            next_round.push_back(req);
            continue;
          }
          out.insert(out.end(), mutated->begin(), mutated->end());
          const bool truncated = mutated->size() < frame.size();
          const bool header_hit =
              !truncated && std::memcmp(mutated->data(), frame.data(),
                                        wire::kHeaderSize) != 0;
          if (truncated || header_hit) {
            // Framing on this connection is no longer trustworthy.
            next_round.push_back(req);
            poisoned = true;
          } else if (!std::equal(mutated->begin(), mutated->end(),
                                 frame.begin())) {
            next_round.push_back(req);  // checksum skip, no answer coming
          } else {
            expecting.insert(req.request_id);
          }
        }
        for (; i < n; ++i) next_round.push_back(pending[base + i]);

        if (!out.empty() &&
            !stream.value().send_all(out.data(), out.size(), 5.0).ok()) {
          // Connection already gone; everything we expected re-queues.
          for (std::uint64_t id : expecting) {
            next_round.push_back(make_request(id, id_to_seed.at(id)));
          }
          continue;
        }
        while (!expecting.empty()) {
          auto response = read_response(stream.value(), 10.0);
          if (!response.ok()) {
            for (std::uint64_t id : expecting) {
              next_round.push_back(make_request(id, id_to_seed.at(id)));
            }
            break;
          }
          const auto& r = response.value();
          ASSERT_EQ(expecting.erase(r.request_id), 1u)
              << "response for a request this chunk never sent: "
              << r.request_id;
          ++answered;
          check_replay(id_to_seed.at(r.request_id), r);
        }
      }
      pending = std::move(next_round);
    }
    EXPECT_EQ(answered, kRequestsPerProfile);
    const auto& c = injector.counters();
    EXPECT_GT(c.dropped, 0u);
    EXPECT_GT(c.truncated, 0u);
    EXPECT_GT(c.corrupted, 0u);
  }
  check_monotone("lossy");

  // ---- Phase 3: stalled clients alongside healthy traffic -------------
  {
    const auto slow_before = counter_value("serve.conn.slow_dropped");
    // Three connections park half a frame each and go quiet.
    std::vector<util::UnixStream> stalled;
    for (int i = 0; i < 3; ++i) {
      auto conn = util::UnixStream::connect(socket_path_, 1.0);
      ASSERT_TRUE(conn.ok());
      const auto frame = wire::encode_frame(
          wire::FrameType::kForecastRequest,
          wire::encode_forecast_request(make_request(next_id_++, 1)));
      ASSERT_TRUE(
          conn.value().send_all(frame.data(), frame.size() / 2, 1.0).ok());
      stalled.push_back(std::move(conn).value());
    }
    const int answered =
        drive_clean(make_batch(kRequestsPerProfile, 1000), true);
    ASSERT_EQ(answered, kRequestsPerProfile);
    // 10k pipelined requests take far longer than the 0.1s stall budget, so
    // the guard must have culled all three bystanders by now.
    EXPECT_GE(counter_value("serve.conn.slow_dropped"), slow_before + 3);
  }
  check_monotone("stalled");

  // ---- Phase 4: model-swap churn under load ---------------------------
  {
    const auto promoted_before = counter_value("serve.registry.promoted");
    const auto rolled_before = counter_value("serve.registry.rolled_back");
    const auto tiers_before = tier_total();
    serve::ClientConfig swap_cfg;
    swap_cfg.socket_path = socket_path_;
    serve::ForecastClient swapper(swap_cfg);

    // Fresh seeds: swap-churn traffic must reach the full tier (cache
    // misses) so the rotten model actually serves and probation trips.
    const auto reqs = make_batch(kRequestsPerProfile, 50000);
    auto stream = util::UnixStream::connect(socket_path_, 1.0);
    ASSERT_TRUE(stream.ok());
    int answered = 0;
    int chunk_index = 0;
    for (std::size_t base = 0; base < reqs.size(); base += kChunk) {
      // Churn: a healthy candidate, then a rotten one that probation rolls
      // back as soon as it serves full-tier traffic.
      if (chunk_index % 40 == 10) {
        ASSERT_TRUE(swapper.swap_model(kScaledArtifact).ok());
      } else if (chunk_index % 40 == 30) {
        ASSERT_TRUE(swapper.swap_model(kNanArtifact).ok());
      }
      ++chunk_index;
      const std::size_t n = std::min(kChunk, reqs.size() - base);
      std::vector<std::uint8_t> out;
      for (std::size_t i = 0; i < n; ++i) {
        const auto frame = wire::encode_frame(
            wire::FrameType::kForecastRequest,
            wire::encode_forecast_request(reqs[base + i]));
        out.insert(out.end(), frame.begin(), frame.end());
      }
      ASSERT_TRUE(stream.value().send_all(out.data(), out.size(), 5.0).ok());
      for (std::size_t i = 0; i < n; ++i) {
        auto response = read_response(stream.value(), 10.0);
        ASSERT_TRUE(response.ok()) << "request starved during swap churn: "
                                   << response.status().to_string();
        ++answered;
      }
    }
    EXPECT_EQ(answered, kRequestsPerProfile);
    EXPECT_EQ(tier_total() - tiers_before,
              static_cast<std::uint64_t>(kRequestsPerProfile));
    EXPECT_GT(counter_value("serve.registry.promoted"), promoted_before)
        << "no hot-swap promotion landed under load";
    EXPECT_GT(counter_value("serve.registry.rolled_back"), rolled_before)
        << "no automatic rollback fired under load";
  }
  check_monotone("swap-churn");

  // ---- Epilogue: the survivor still serves clean, finite forecasts ----
  serve::ClientConfig cfg;
  cfg.socket_path = socket_path_;
  serve::ForecastClient client(cfg);
  auto final_response = client.forecast(make_request(next_id_++, 424242));
  ASSERT_TRUE(final_response.ok());
  ASSERT_TRUE(final_response.value().ok()) << final_response.value().message;
  ASSERT_FALSE(final_response.value().cars.empty());
  for (const auto& car : final_response.value().cars) {
    for (double v : car.median) EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
