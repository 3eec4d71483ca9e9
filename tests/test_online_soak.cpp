// End-to-end soak of the online learning loop (DESIGN.md "Online learning
// & promotion gates"): simulated races stream through the fault injector
// and the StreamIngestor into the replay buffer; the OnlineTrainer fits
// affine candidates, shadow-scores them against the registry's active
// engine, and promotes / rejects / rolls back through the ModelRegistry.
//
// The scenario is scripted to force every lifecycle edge at least once —
// a strictly better candidate promotes, a gate-tightened step rejects, a
// sabotaged candidate slips a permissive gate and probation rolls it back,
// byte-restoring the pre-sabotage serving output. The whole run is
// deterministic under the scripted clock and seeded simulator, so the
// promote/rollback trace must be byte-identical across engine thread
// counts {1, 2, 8} and across repeated runs — and every swap must be
// exactly accounted in the serve.online.* counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/online_loop.hpp"
#include "simulator/fault_injector.hpp"
#include "simulator/season.hpp"
#include "test_support.hpp"

namespace {

using namespace ranknet;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

serve::ModelFactory affine_factory() {
  return [](const std::string& path)
             -> util::Result<std::shared_ptr<core::RaceForecaster>> {
    auto model = std::make_shared<serve::AffineRankModel>();
    if (auto st = model->load_artifact(path); !st.ok()) return st;
    return std::shared_ptr<core::RaceForecaster>(std::move(model));
  };
}

struct CounterDeltas {
  std::uint64_t online_promoted, online_rejected, online_rolled_back,
      online_steps, registry_promoted, registry_rolled_back;
  static CounterDeltas snapshot() {
    auto& reg = obs::Registry::instance();
    return {reg.counter("serve.online.promoted").value(),
            reg.counter("serve.online.rejected_gate").value(),
            reg.counter("serve.online.rolled_back").value(),
            reg.counter("serve.online.steps").value(),
            reg.counter("serve.registry.promoted").value(),
            reg.counter("serve.registry.rolled_back").value()};
  }
};

/// Serialized medians through the active engine — the "what clients see
/// right now" byte probe (same idiom as the registry fault tests).
std::vector<double> serve_once(serve::ModelRegistry& registry,
                               const telemetry::RaceLog& race) {
  auto model = registry.active();
  EXPECT_NE(model, nullptr);
  util::Rng rng(77);
  const auto samples = model->engine->forecast(race, 30, 5, 4, rng);
  std::vector<double> flat;
  for (const auto& [car_id, m] : samples) {
    const auto median = core::median_trajectory(m);
    flat.insert(flat.end(), median.begin(), median.end());
  }
  EXPECT_FALSE(flat.empty());
  return flat;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct ScenarioResult {
  std::string trace;
  std::size_t promoted = 0, rejected = 0, rolled_back = 0, steps = 0;
};

/// The full scripted soak at one engine thread count. All randomness is
/// seeded and time is a scripted counter, so two runs with the same
/// `engine_threads` — or different ones — must produce identical traces.
ScenarioResult run_scenario(std::size_t engine_threads) {
  const std::string dir = test_support::unique_temp_path(
      "online_soak_t" + std::to_string(engine_threads));
  std::filesystem::create_directories(dir);

  const auto before = CounterDeltas::snapshot();

  // Scripted clock: every read advances 1ms. Latency becomes a function of
  // the (deterministic) clock-call sequence, not the wall.
  auto now = std::make_shared<double>(0.0);
  util::ClockFn clock = [now] {
    *now += 1e-3;
    return *now;
  };

  serve::RegistryConfig rcfg;
  rcfg.shards = 1;
  rcfg.engine_threads = engine_threads;
  rcfg.gate.max_prediction_failure_rate = 1.0;  // trainer's gate is in charge
  rcfg.probation_requests = 0;  // probation is driven by the trainer here
  serve::ModelRegistry registry(affine_factory(), rcfg);
  registry.set_clock(clock);

  // Mediocre initial champion: every prediction is 3 ranks off.
  const std::string champion_path = dir + "/champion.bin";
  serve::AffineRankModel::save_artifact(champion_path, 1.0, 3.0);
  EXPECT_TRUE(registry.init(champion_path).ok());

  // Sabotage switch: when armed, the fitter emits a grossly biased model
  // instead of the honest refit — the "bad model slips a permissive gate"
  // actor of the rollback act.
  auto sabotage = std::make_shared<bool>(false);
  auto honest = serve::make_affine_fitter({/*horizon=*/5, /*decay=*/0.9});
  core::CandidateFitter fitter =
      [sabotage, honest](const telemetry::RaceWindow& train,
                         std::uint64_t seed, const std::string& path)
      -> util::Result<core::FittedCandidate> {
    if (*sabotage) {
      serve::AffineRankModel::save_artifact(path, 1.0, 50.0);
      core::FittedCandidate out;
      out.forecaster = std::make_shared<serve::AffineRankModel>(1.0, 50.0);
      out.artifact_path = path;
      out.summary = "sabotage offset=50";
      return out;
    }
    return honest(train, seed, path);
  };

  serve::OnlineLoopConfig lcfg;
  lcfg.trainer.train_window = 3;
  lcfg.trainer.probe_window = 2;
  lcfg.trainer.probe.origin_laps = {30, 45};
  lcfg.trainer.probe.horizon = 5;
  lcfg.trainer.probe.num_samples = 4;
  lcfg.trainer.probe.seed = 0x50a5;
  lcfg.trainer.gate.max_nll_delta = 0.0;
  lcfg.trainer.gate.max_mae_delta = 0.0;
  lcfg.trainer.gate.max_prediction_failure_rate = 0.0;
  lcfg.trainer.probation_steps = 2;
  lcfg.trainer.rollback_mae_margin = 0.5;
  lcfg.trainer.artifact_dir = dir;
  lcfg.trainer.seed = 42;
  serve::OnlineLoop loop(registry, fitter, lcfg);
  loop.trainer().set_clock(clock);

  const core::OnlineGateConfig strict = lcfg.trainer.gate;

  // --- Act 1: clean-ish feed; the honest refit beats the offset-3 champion.
  std::vector<telemetry::RaceLog> clean_races;
  std::vector<core::TraceEvent> events;
  sim::FaultProfile light;
  light.drop_rate = 0.02;
  light.duplicate_rate = 0.02;
  light.reorder_depth = 2;
  for (int k = 0; k < 6; ++k) {
    const auto race = sim::simulate_race(
        {"Indy500", 2013 + k, 60, sim::Usage::kTest});
    clean_races.push_back(race);
    sim::FaultInjector feed(race.records(), light, 900 + k);
    (void)loop.ingest_race(race.info(), feed.drain());
    events.push_back(loop.step());
  }
  std::size_t act1_promotions = 0;
  for (const auto& e : events) {
    if (e.action == core::TraceEvent::Action::kPromoted) ++act1_promotions;
  }
  EXPECT_GE(act1_promotions, 1u)
      << "the honest refit never beat the offset-3 champion";

  // --- Act 2: tighten the gate beyond satisfiability; the step must reject.
  core::OnlineGateConfig impossible = strict;
  impossible.max_mae_delta = -1000.0;  // nothing beats the champion by 1000
  loop.trainer().gate().set_config(impossible);
  {
    const auto race = sim::simulate_race(
        {"Indy500", 2019, 60, sim::Usage::kTest});
    sim::FaultProfile heavy = light;
    heavy.corrupt_rate = 0.3;
    sim::FaultInjector feed(race.records(), heavy, 906);
    (void)loop.ingest_race(race.info(), feed.drain());
    events.push_back(loop.step());
    EXPECT_EQ(events.back().action, core::TraceEvent::Action::kRejectedGate);
  }

  // --- Act 3: permissive gate + sabotaged fitter — the degraded candidate
  // is promoted (this is the failure mode probation exists for).
  const auto baseline = serve_once(registry, clean_races.front());
  core::OnlineGateConfig permissive = strict;
  permissive.max_nll_delta = 1e9;
  permissive.max_mae_delta = 1e9;
  permissive.max_prediction_failure_rate = 1.0;
  loop.trainer().gate().set_config(permissive);
  *sabotage = true;
  events.push_back(loop.step());
  EXPECT_EQ(events.back().action, core::TraceEvent::Action::kPromoted)
      << events.back().detail;
  *sabotage = false;
  loop.trainer().gate().set_config(strict);
  EXPECT_FALSE(same_bytes(serve_once(registry, clean_races.front()), baseline))
      << "sabotaged model did not change serving output";

  // --- Act 4: the next step's probation check sees the displaced champion
  // beating the sabotaged one by miles and rolls back, byte-restoring the
  // pre-sabotage serving output.
  events.push_back(loop.step());
  EXPECT_EQ(events.back().action, core::TraceEvent::Action::kRolledBack)
      << events.back().detail;
  EXPECT_TRUE(same_bytes(serve_once(registry, clean_races.front()), baseline))
      << "rollback did not restore the pre-sabotage champion's bytes";

  ScenarioResult result;
  result.trace = loop.trainer().trace_string();
  result.steps = events.size();
  for (const auto& e : events) {
    switch (e.action) {
      case core::TraceEvent::Action::kPromoted: ++result.promoted; break;
      case core::TraceEvent::Action::kRejectedGate: ++result.rejected; break;
      case core::TraceEvent::Action::kRolledBack: ++result.rolled_back; break;
      default: break;
    }
  }
  EXPECT_GE(result.promoted, 2u);   // at least the honest + sabotage swaps
  EXPECT_GE(result.rejected, 1u);
  EXPECT_GE(result.rolled_back, 1u);

  // --- Byte accounting: every lifecycle transition of this scenario — and
  // nothing else — must appear in the serve.online.* counters, and the
  // registry must have performed exactly the promoted/rolled-back swaps the
  // trace claims (init books one extra registry promotion).
  const auto after = CounterDeltas::snapshot();
  EXPECT_EQ(after.online_steps - before.online_steps, result.steps);
  EXPECT_EQ(after.online_promoted - before.online_promoted, result.promoted);
  EXPECT_EQ(after.online_rejected - before.online_rejected, result.rejected);
  EXPECT_EQ(after.online_rolled_back - before.online_rolled_back,
            result.rolled_back);
  EXPECT_EQ(after.registry_promoted - before.registry_promoted,
            result.promoted + 1);
  EXPECT_EQ(after.registry_rolled_back - before.registry_rolled_back,
            result.rolled_back);
  return result;
}

TEST(OnlineSoak, FullLifecycleDeterministicAcrossThreadCounts) {
  const auto t0 = std::chrono::steady_clock::now();

  const auto base = run_scenario(1);
  ASSERT_FALSE(base.trace.empty());

  // Same scenario, same trace — byte for byte — at 2 and 8 engine threads
  // (the champion is scored through the parallel engine, whose forecasts
  // are thread-count invariant), and on a same-thread-count rerun.
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto other = run_scenario(threads);
    EXPECT_EQ(base.trace, other.trace) << "trace diverged at " << threads
                                       << " engine threads";
  }
  const auto rerun = run_scenario(1);
  EXPECT_EQ(base.trace, rerun.trace) << "trace diverged between reruns";

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!kSanitizerBuild) {
    EXPECT_LT(seconds, 5.0) << "online soak exceeded its tier-1 wall budget";
  }
}

}  // namespace
