// Unit + property tests of the online learning loop's pieces: the
// champion/challenger gate (monotone admission, NaN hostility, check
// order), the shadow scorer, the OnlineTrainer lifecycle against a fake
// promotion target (promote / reject / fit-fail / probation rollback /
// async == sync), fuzz + adversarial coverage of the v3 artifact parser on
// trainer-emitted artifacts, the registry-level rollback byte-restore
// property, and the incremental LSTM refit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/online_gate.hpp"
#include "core/online_trainer.hpp"
#include "core/training.hpp"
#include "nn/serialize.hpp"
#include "serve/affine_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/online_loop.hpp"
#include "simulator/season.hpp"
#include "test_support.hpp"
#include "util/string_util.hpp"

namespace {

using namespace ranknet;
using core::ChampionChallengerGate;
using core::OnlineGateConfig;
using core::ShadowMetrics;
using core::TraceEvent;

// ---------------------------------------------------------------------------
// Gate properties
// ---------------------------------------------------------------------------

ShadowMetrics random_metrics(util::Rng& rng) {
  ShadowMetrics m;
  m.probe_points = static_cast<std::size_t>(rng.uniform_int(0, 40));
  m.nll = rng.uniform(-2.0, 8.0);
  m.mae = rng.uniform(0.0, 10.0);
  m.prediction_failure_rate = rng.uniform(0.0, 1.0);
  m.sigma_saturation_rate = rng.uniform(0.0, 1.0);
  m.latency_seconds = rng.uniform(0.0, 1.0);
  return m;
}

/// Strictly improve every axis of `m` (more evidence, lower everything).
ShadowMetrics dominate(const ShadowMetrics& m, util::Rng& rng) {
  ShadowMetrics a = m;
  a.probe_points = m.probe_points + static_cast<std::size_t>(
                                        rng.uniform_int(0, 8));
  a.nll = m.nll - rng.uniform(0.0, 3.0);
  a.mae = m.mae * rng.uniform(0.0, 1.0);
  a.prediction_failure_rate = m.prediction_failure_rate * rng.uniform(0.0, 1.0);
  a.sigma_saturation_rate = m.sigma_saturation_rate * rng.uniform(0.0, 1.0);
  a.latency_seconds = m.latency_seconds * rng.uniform(0.0, 1.0);
  return a;
}

TEST(OnlineGate, AdmissionIsMonotoneInChallengerQuality) {
  // Property: if some challenger B passes the gate, any challenger A that
  // dominates B (better or equal on every axis) must pass too — a gate
  // that could punish improvement would make promotion order incoherent.
  util::Rng rng(0x6a7e);
  std::size_t passes = 0;
  for (int iter = 0; iter < 500; ++iter) {
    OnlineGateConfig cfg;
    cfg.max_nll_delta = rng.uniform(-1.0, 1.0);
    cfg.max_mae_delta = rng.uniform(-1.0, 1.0);
    cfg.max_prediction_failure_rate = rng.uniform(0.0, 1.0);
    cfg.max_sigma_saturation_rate = rng.uniform(0.0, 1.0);
    cfg.max_latency_factor = rng.bernoulli(0.5) ? rng.uniform(0.5, 3.0) : 0.0;
    cfg.min_probe_points = static_cast<std::size_t>(rng.uniform_int(0, 10));
    ChampionChallengerGate gate(cfg);

    const ShadowMetrics champion = random_metrics(rng);
    const ShadowMetrics b = random_metrics(rng);
    const ShadowMetrics a = dominate(b, rng);
    if (gate.evaluate(champion, b).promote) {
      ++passes;
      EXPECT_TRUE(gate.evaluate(champion, a).promote)
          << "dominating challenger rejected where the dominated one passed";
    }
  }
  EXPECT_GT(passes, 10u) << "property vacuous: gate never passed anything";
}

TEST(OnlineGate, NanChallengerMetricsNeverPromote) {
  ChampionChallengerGate gate(OnlineGateConfig{
      .max_nll_delta = 1e9,
      .max_mae_delta = 1e9,
      .max_prediction_failure_rate = 1.0,
      .max_sigma_saturation_rate = 1.0,
      .max_latency_factor = 1e9,
      .min_probe_points = 1});
  ShadowMetrics champion;
  champion.probe_points = 10;
  champion.latency_seconds = 1.0;
  ShadowMetrics good;
  good.probe_points = 10;
  good.latency_seconds = 0.5;
  ASSERT_TRUE(gate.evaluate(champion, good).promote);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int field = 0; field < 5; ++field) {
    ShadowMetrics bad = good;
    switch (field) {
      case 0: bad.nll = nan; break;
      case 1: bad.mae = nan; break;
      case 2: bad.prediction_failure_rate = nan; break;
      case 3: bad.sigma_saturation_rate = nan; break;
      case 4: bad.latency_seconds = nan; break;
    }
    EXPECT_FALSE(gate.evaluate(champion, bad).promote)
        << "NaN in field " << field << " slipped the gate";
  }
}

TEST(OnlineGate, FirstFailingCheckNamesItself) {
  OnlineGateConfig cfg;  // all-strict defaults
  cfg.min_probe_points = 5;
  ChampionChallengerGate gate(cfg);
  ShadowMetrics champ;
  champ.probe_points = 10;
  champ.nll = 1.0;
  champ.mae = 2.0;

  ShadowMetrics c;
  c.probe_points = 1;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "probe_points");
  c.probe_points = 10;
  c.prediction_failure_rate = 0.5;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "failure_rate");
  c.prediction_failure_rate = 0.0;
  c.sigma_saturation_rate = 2.0;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "saturation");
  c.sigma_saturation_rate = 0.0;
  c.nll = 1.5;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "nll");
  c.nll = 0.5;
  c.mae = 3.0;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "mae");
  c.mae = 1.0;
  EXPECT_EQ(gate.evaluate(champ, c).reason, "pass");
  EXPECT_TRUE(gate.evaluate(champ, c).promote);
}

// ---------------------------------------------------------------------------
// Shadow scorer
// ---------------------------------------------------------------------------

telemetry::RaceWindow make_window(int races, int laps = 40) {
  telemetry::RaceWindow window;
  for (int k = 0; k < races; ++k) {
    window.push_back(std::make_shared<const telemetry::RaceLog>(
        sim::simulate_race({"Indy500", 2015 + k, laps, sim::Usage::kTest})));
  }
  return window;
}

util::ClockFn counting_clock(std::shared_ptr<double> t, double step = 1e-3) {
  return [t, step] {
    *t += step;
    return *t;
  };
}

core::ProbeConfig small_probe() {
  core::ProbeConfig probe;
  probe.origin_laps = {20, 30};
  probe.horizon = 5;
  probe.num_samples = 4;
  probe.seed = 7;
  return probe;
}

TEST(ShadowScorer, DeterministicAndRanksModelQuality) {
  const auto window = make_window(2);
  auto t = std::make_shared<double>(0.0);
  core::ShadowScorer scorer(small_probe(), counting_clock(t));

  serve::AffineRankModel good(1.0, 0.0);
  serve::AffineRankModel biased(1.0, 6.0);
  const auto m_good_1 = scorer.score(good, window);
  const auto m_good_2 = scorer.score(good, window);
  const auto m_biased = scorer.score(biased, window);

  EXPECT_GT(m_good_1.probe_points, 0u);
  EXPECT_EQ(m_good_1.probe_points, m_good_2.probe_points);
  EXPECT_EQ(m_good_1.nll, m_good_2.nll);
  EXPECT_EQ(m_good_1.mae, m_good_2.mae);
  EXPECT_EQ(m_good_1.to_string().substr(0, m_good_1.to_string().rfind("lat=")),
            m_good_2.to_string().substr(0,
                                        m_good_2.to_string().rfind("lat=")));
  // Scripted clock: every score is exactly two reads, so latency is the
  // scripted step regardless of real elapsed time.
  EXPECT_DOUBLE_EQ(m_good_1.latency_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(m_biased.latency_seconds, 1e-3);
  // A 6-rank bias must cost 6 MAE points against the same probe.
  EXPECT_GT(m_biased.mae, m_good_1.mae + 3.0);
  EXPECT_GT(m_biased.nll, m_good_1.nll);
}

TEST(ShadowScorer, ThrowingForecasterIsTotalFailure) {
  class Thrower : public core::RaceForecaster {
   public:
    std::string name() const override { return "thrower"; }
    core::RaceSamples forecast(const telemetry::RaceLog&, int, int, int,
                               util::Rng&) override {
      throw std::runtime_error("model exploded");
    }
  };
  const auto window = make_window(1);
  core::ShadowScorer scorer(small_probe(),
                            counting_clock(std::make_shared<double>(0.0)));
  Thrower thrower;
  const auto m = scorer.score(thrower, window);
  EXPECT_EQ(m.probe_points, 0u);
  EXPECT_DOUBLE_EQ(m.prediction_failure_rate, 1.0);
}

// ---------------------------------------------------------------------------
// OnlineTrainer lifecycle against a fake target
// ---------------------------------------------------------------------------

/// Shared state between the controllable fitter, the fake target, and the
/// champion view — a miniature registry.
struct FakeWorld {
  std::shared_ptr<core::RaceForecaster> active =
      std::make_shared<serve::AffineRankModel>(1.0, 5.0);
  std::shared_ptr<core::RaceForecaster> prior;
  std::shared_ptr<core::RaceForecaster> last_fitted;
  std::uint64_t version = 1;
  double fitter_offset = 0.0;   // quality knob of the next candidate
  bool fail_fit = false;
  bool fail_promote = false;
};

class FakeTarget : public core::PromotionTarget {
 public:
  explicit FakeTarget(std::shared_ptr<FakeWorld> world)
      : world_(std::move(world)) {}
  util::Result<std::uint64_t> promote(const std::string&) override {
    if (world_->fail_promote) {
      return util::Status::unavailable("target refused the install");
    }
    world_->prior = world_->active;
    world_->active = world_->last_fitted;
    return ++world_->version;
  }
  util::Result<std::uint64_t> rollback(const std::string&) override {
    if (!world_->prior) {
      return util::Status::failed_precondition("nothing to roll back to");
    }
    world_->active = world_->prior;
    world_->prior = nullptr;
    return ++world_->version;
  }

 private:
  std::shared_ptr<FakeWorld> world_;
};

core::CandidateFitter fake_fitter(std::shared_ptr<FakeWorld> world) {
  return [world](const telemetry::RaceWindow&, std::uint64_t,
                 const std::string& path)
             -> util::Result<core::FittedCandidate> {
    if (world->fail_fit) {
      return util::Status::unavailable("fit diverged");
    }
    serve::AffineRankModel::save_artifact(path, 1.0, world->fitter_offset);
    world->last_fitted =
        std::make_shared<serve::AffineRankModel>(1.0, world->fitter_offset);
    core::FittedCandidate out;
    out.forecaster = world->last_fitted;
    out.artifact_path = path;
    out.summary = util::format("fake offset=%.3g", world->fitter_offset);
    return out;
  };
}

struct TrainerRig {
  std::shared_ptr<FakeWorld> world = std::make_shared<FakeWorld>();
  telemetry::ReplayBuffer replay{{.capacity = 8}};
  FakeTarget target{world};
  std::unique_ptr<core::OnlineTrainer> trainer;

  explicit TrainerRig(std::size_t races, core::OnlineTrainerConfig cfg = {}) {
    cfg.train_window = 1;
    cfg.probe_window = 1;
    cfg.probe = small_probe();
    cfg.artifact_dir = test_support::unique_temp_path("trainer_artifacts");
    std::filesystem::create_directories(cfg.artifact_dir);
    trainer = std::make_unique<core::OnlineTrainer>(
        cfg, replay, fake_fitter(world), target,
        [w = world] { return w->active; });
    trainer->set_clock(counting_clock(std::make_shared<double>(0.0)));
    for (std::size_t k = 0; k < races; ++k) {
      replay.push(sim::simulate_race(
          {"Indy500", 2015 + static_cast<int>(k), 40, sim::Usage::kTest}));
    }
  }
};

TEST(OnlineTrainer, PromotesStrictlyBetterRejectsStrictlyWorse) {
  core::OnlineTrainerConfig cfg;
  cfg.probation_steps = 0;
  TrainerRig rig(2, cfg);
  // The initial champion is 5 ranks biased; the honest candidate (offset 0)
  // strictly beats it and must promote.
  rig.world->fitter_offset = 0.0;
  auto e = rig.trainer->step();
  EXPECT_EQ(e.action, TraceEvent::Action::kPromoted) << e.detail;
  EXPECT_EQ(e.version, 2u);
  EXPECT_EQ(rig.world->active, rig.world->last_fitted);

  // A candidate 10 ranks worse than the new champion must be rejected and
  // must not disturb the active model.
  const auto active_before = rig.world->active;
  rig.world->fitter_offset = 10.0;
  e = rig.trainer->step();
  EXPECT_EQ(e.action, TraceEvent::Action::kRejectedGate) << e.detail;
  EXPECT_EQ(rig.world->active, active_before);
}

TEST(OnlineTrainer, SkipsUntilEnoughRacesBuffered) {
  TrainerRig rig(0);
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kSkipped);
  rig.replay.push(sim::simulate_race({"Indy500", 2015, 40, sim::Usage::kTest}));
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kSkipped)
      << "one race cannot fill train + probe windows";
}

TEST(OnlineTrainer, FitAndTargetFailuresAreBookedNotFatal) {
  core::OnlineTrainerConfig cfg;
  cfg.probation_steps = 0;
  TrainerRig rig(2, cfg);
  rig.world->fail_fit = true;
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kFitFailed);

  rig.world->fail_fit = false;
  rig.world->fail_promote = true;
  const auto active_before = rig.world->active;
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kRejectedTarget);
  EXPECT_EQ(rig.world->active, active_before);

  rig.world->fail_promote = false;
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kPromoted);
}

TEST(OnlineTrainer, ProbationRollsBackDegradedPromotionAndRestoresChampion) {
  core::OnlineTrainerConfig cfg;
  cfg.probation_steps = 2;
  cfg.rollback_mae_margin = 0.5;
  cfg.gate.max_nll_delta = 1e9;  // permissive: let the degraded model in
  cfg.gate.max_mae_delta = 1e9;
  cfg.gate.max_prediction_failure_rate = 1.0;
  TrainerRig rig(2, cfg);
  const auto original = rig.world->active;

  rig.world->fitter_offset = 50.0;  // grossly degraded candidate
  auto e = rig.trainer->step();
  ASSERT_EQ(e.action, TraceEvent::Action::kPromoted) << e.detail;
  EXPECT_EQ(rig.trainer->probation_remaining(), 2u);
  EXPECT_NE(rig.world->active, original);

  // Next step: the probation check scores the displaced champion against
  // the degraded one on the fresh probe and must roll back — restoring the
  // exact displaced object (bytes included, trivially).
  e = rig.trainer->step();
  EXPECT_EQ(e.action, TraceEvent::Action::kRolledBack) << e.detail;
  EXPECT_EQ(rig.world->active, original);
  EXPECT_EQ(rig.trainer->probation_remaining(), 0u);
}

TEST(OnlineTrainer, HealthyPromotionSurvivesProbation) {
  core::OnlineTrainerConfig cfg;
  cfg.probation_steps = 2;
  TrainerRig rig(2, cfg);
  rig.world->fitter_offset = 0.0;
  ASSERT_EQ(rig.trainer->step().action, TraceEvent::Action::kPromoted);
  const auto promoted = rig.world->active;
  // Two probation steps with the fitter disabled, so each step runs only
  // the probation check: the displaced (worse) champion never wins, the
  // window closes, and the promoted model keeps serving. (With the fitter
  // live, an equal-quality refit legitimately re-promotes under the
  // delta <= 0 gate and re-arms probation — not what this test is about.)
  rig.world->fail_fit = true;
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kFitFailed);
  EXPECT_EQ(rig.trainer->probation_remaining(), 1u);
  EXPECT_EQ(rig.trainer->step().action, TraceEvent::Action::kFitFailed);
  EXPECT_EQ(rig.trainer->probation_remaining(), 0u);
  EXPECT_EQ(rig.world->active, promoted);
}

TEST(OnlineTrainer, AsyncWorkerTraceMatchesSyncTrace) {
  core::OnlineTrainerConfig cfg;
  cfg.probation_steps = 1;
  auto run_sync = [&] {
    TrainerRig rig(2, cfg);
    rig.world->fitter_offset = 0.0;
    for (int i = 0; i < 4; ++i) (void)rig.trainer->step();
    return rig.trainer->trace_string();
  };
  auto run_async = [&] {
    TrainerRig rig(2, cfg);
    rig.world->fitter_offset = 0.0;
    rig.trainer->start();
    for (int i = 0; i < 4; ++i) rig.trainer->notify();
    rig.trainer->stop();  // drains all pending steps before joining
    return rig.trainer->trace_string();
  };
  const auto sync_trace = run_sync();
  EXPECT_FALSE(sync_trace.empty());
  EXPECT_EQ(sync_trace, run_async());
}

// ---------------------------------------------------------------------------
// v3 artifact parser fuzz
// ---------------------------------------------------------------------------

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A v3 affine artifact with one calibration entry named "affine". Its
/// layout is fixed: the last 30 payload bytes are that entry (name length
/// 8 + "affine" 6 + absmax 8 + zero point 8), preceded by the u64 entry
/// count.
void emit_v3_artifact(const std::string& path) {
  serve::AffineRankModel model(0.95, 0.5);
  test_support::write_v3_artifact(path, model.params(), {{"affine", 33.0}});
}

/// Assert that loading `path` fails and leaves the model's coefficients
/// exactly as they were — the staged-commit contract.
void expect_rejected_without_half_install(const std::string& path,
                                          const char* what) {
  serve::AffineRankModel model(2.5, -1.5);
  const auto st = model.load_artifact(path);
  EXPECT_FALSE(st.ok()) << what << ": corrupt artifact loaded successfully";
  EXPECT_DOUBLE_EQ(model.scale(), 2.5) << what;
  EXPECT_DOUBLE_EQ(model.offset(), -1.5) << what;
}

TEST(V3ArtifactFuzz, EveryTruncationIsRejectedWithoutHalfInstall) {
  const std::string good = test_support::unique_temp_path("v3_fuzz_base.bin");
  const std::string cut = test_support::unique_temp_path("v3_fuzz_trunc.bin");
  emit_v3_artifact(good);
  const auto clean = read_file(good);
  ASSERT_GT(clean.size(), 40u);
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    write_file(cut, {clean.begin(),
                     clean.begin() + static_cast<std::ptrdiff_t>(keep)});
    expect_rejected_without_half_install(
        cut, ("truncated to " + std::to_string(keep)).c_str());
  }
  // The untouched artifact still loads — the rejections were earned.
  serve::AffineRankModel model;
  EXPECT_TRUE(model.load_artifact(good).ok());
}

TEST(V3ArtifactFuzz, RandomBitFlipsAreRejectedWithoutHalfInstall) {
  const std::string good = test_support::unique_temp_path("v3_fuzz_base2.bin");
  const std::string flip = test_support::unique_temp_path("v3_fuzz_flip.bin");
  emit_v3_artifact(good);
  const auto clean = read_file(good);
  util::Rng rng(0xf11b);
  for (int iter = 0; iter < 256; ++iter) {
    auto corrupt = clean;
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
    write_file(flip, corrupt);
    expect_rejected_without_half_install(
        flip,
        ("bit " + std::to_string(bit) + " of byte " + std::to_string(byte))
            .c_str());
  }
}

/// Rewrite a v2+ artifact's payload with an HONESTLY regenerated size and
/// checksum — the adversary who can recompute FNV-1a. Only structural
/// validation can catch these.
void rewrite_payload(const std::string& path, std::vector<char> payload) {
  const auto file = read_file(path);
  ASSERT_GE(file.size(), 28u);
  std::vector<char> out(file.begin(), file.begin() + 12);  // magic + version
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum =
      util::fnv1a(std::string_view(payload.data(), payload.size()));
  const auto append = [&out](const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    out.insert(out.end(), c, c + n);
  };
  append(&size, sizeof(size));
  append(&checksum, sizeof(checksum));
  out.insert(out.end(), payload.begin(), payload.end());
  write_file(path, out);
}

TEST(V3ArtifactFuzz, RegeneratedChecksumAdversariesAreStillRejected) {
  const std::string good = test_support::unique_temp_path("v3_fuzz_base3.bin");
  const std::string adv = test_support::unique_temp_path("v3_fuzz_adv.bin");
  emit_v3_artifact(good);
  const auto file = read_file(good);
  const std::vector<char> payload(file.begin() + 28, file.end());

  // (a) trailing garbage after the calibration section, checksum honest:
  // pre-strict-tail parsing this loaded fine (bytes silently ignored).
  {
    auto p = payload;
    p.push_back('\x5a');
    p.push_back('\x5a');
    write_file(adv, file);
    rewrite_payload(adv, p);
    expect_rejected_without_half_install(adv, "trailing garbage");
  }
  // (b) calibration entry count shrunk to 0: the real entry's bytes become
  // trailing garbage — strict tail parsing must refuse.
  {
    auto p = payload;
    // The calibration count sits 8 bytes before the 30-byte entry (see
    // emit_v3_artifact).
    const std::size_t calib_count_at = p.size() - 30 - 8;
    std::uint64_t zero = 0;
    std::memcpy(p.data() + calib_count_at, &zero, sizeof(zero));
    write_file(adv, file);
    rewrite_payload(adv, p);
    expect_rejected_without_half_install(adv, "shrunk calibration count");
  }
  // (c) nonzero zero point: the v3 writer only emitted symmetric entries.
  {
    auto p = payload;
    double zp = 1.0;
    std::memcpy(p.data() + p.size() - sizeof(double), &zp, sizeof(zp));
    write_file(adv, file);
    rewrite_payload(adv, p);
    expect_rejected_without_half_install(adv, "asymmetric zero point");
  }
  // (d) calibration count inflated: the declared extra entry truncates.
  {
    auto p = payload;
    const std::size_t calib_count_at = p.size() - 30 - 8;
    std::uint64_t two = 2;
    std::memcpy(p.data() + calib_count_at, &two, sizeof(two));
    write_file(adv, file);
    rewrite_payload(adv, p);
    expect_rejected_without_half_install(adv, "inflated calibration count");
  }
}

TEST(V3ArtifactFuzz, RegistrySwapStaysAtomicUnderCorruptArtifacts) {
  const auto probe_race =
      sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
  serve::RegistryConfig cfg;
  cfg.engine_threads = 0;
  serve::ModelRegistry registry(
      [](const std::string& path)
          -> util::Result<std::shared_ptr<core::RaceForecaster>> {
        auto model = std::make_shared<serve::AffineRankModel>();
        if (auto st = model->load_artifact(path); !st.ok()) return st;
        return std::shared_ptr<core::RaceForecaster>(std::move(model));
      },
      cfg);
  const std::string good =
      test_support::unique_temp_path("v3_fuzz_reg_good.bin");
  const std::string cand =
      test_support::unique_temp_path("v3_fuzz_reg_cand.bin");
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  ASSERT_TRUE(registry.init(good).ok());

  emit_v3_artifact(cand);
  const auto clean = read_file(cand);
  util::Rng rng(0xabad);
  for (int iter = 0; iter < 32; ++iter) {
    auto corrupt = clean;
    if (iter % 2 == 0) {
      corrupt.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1)));
    } else {
      const auto byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1));
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    }
    write_file(cand, corrupt);
    const auto outcome = registry.swap(cand);
    EXPECT_EQ(outcome.action, serve::wire::SwapAction::kRejected);
    EXPECT_EQ(registry.active_version(), 1u)
        << "corrupt candidate disturbed the active model";
  }
  // The intact v3 artifact promotes: the registry factory accepts the v3
  // calibration section end to end.
  write_file(cand, clean);
  EXPECT_EQ(registry.swap(cand).action, serve::wire::SwapAction::kPromoted);
}

// ---------------------------------------------------------------------------
// Rollback byte-restore property at the registry level
// ---------------------------------------------------------------------------

TEST(RollbackProperty, RegistryRollbackAlwaysRestoresPriorChampionBytes) {
  const auto race = sim::simulate_race({"Indy500", 2018, 60, sim::Usage::kTest});
  serve::RegistryConfig cfg;
  cfg.engine_threads = 0;
  serve::ModelRegistry registry(
      [](const std::string& path)
          -> util::Result<std::shared_ptr<core::RaceForecaster>> {
        auto model = std::make_shared<serve::AffineRankModel>();
        if (auto st = model->load_artifact(path); !st.ok()) return st;
        return std::shared_ptr<core::RaceForecaster>(std::move(model));
      },
      cfg);
  const std::string a = test_support::unique_temp_path("rb_prop_a.bin");
  const std::string b = test_support::unique_temp_path("rb_prop_b.bin");

  auto serve_bytes = [&] {
    auto model = registry.active();
    util::Rng rng(99);
    const auto samples = model->engine->forecast(race, 25, 4, 4, rng);
    std::vector<double> flat;
    for (const auto& [car, m] : samples) {
      const auto med = core::median_trajectory(m);
      flat.insert(flat.end(), med.begin(), med.end());
    }
    return flat;
  };

  util::Rng rng(0x0b0b);
  serve::AffineRankModel::save_artifact(a, 1.0, 0.0);
  ASSERT_TRUE(registry.init(a).ok());
  for (int iter = 0; iter < 20; ++iter) {
    // Promote a random champion, snapshot its serving bytes, promote a
    // second random challenger, roll back — the snapshot must return
    // bit-for-bit, whatever the coefficients were.
    serve::AffineRankModel::save_artifact(a, rng.uniform(0.5, 2.0),
                                          rng.uniform(-5.0, 5.0));
    ASSERT_EQ(registry.swap(a).action, serve::wire::SwapAction::kPromoted);
    const auto champion_bytes = serve_bytes();

    serve::AffineRankModel::save_artifact(b, rng.uniform(0.5, 2.0),
                                          rng.uniform(-5.0, 5.0));
    ASSERT_EQ(registry.swap(b).action, serve::wire::SwapAction::kPromoted);
    ASSERT_EQ(registry.rollback("property test").action,
              serve::wire::SwapAction::kRolledBack);

    const auto restored = serve_bytes();
    ASSERT_EQ(restored.size(), champion_bytes.size());
    EXPECT_EQ(std::memcmp(restored.data(), champion_bytes.data(),
                          restored.size() * sizeof(double)),
              0)
        << "rollback " << iter << " did not restore the champion's bytes";
  }
}

// ---------------------------------------------------------------------------
// Incremental LSTM refit
// ---------------------------------------------------------------------------

TEST(IncrementalLstm, RefitReducesNllDeterministically) {
  std::vector<telemetry::RaceLog> races;
  for (int k = 0; k < 2; ++k) {
    races.push_back(
        sim::simulate_race({"Indy500", 2016 + k, 40, sim::Usage::kTest}));
  }
  const features::CarVocab vocab(races);
  features::WindowConfig wcfg;
  wcfg.encoder_length = 12;
  wcfg.decoder_length = 2;
  wcfg.stride = 4;
  wcfg.covariates = {.race_status = false,
                     .age_features = false,
                     .context_features = false,
                     .shift_features = false};
  core::SeqModelConfig mcfg;
  mcfg.cov_dim = 0;
  mcfg.hidden = 8;
  mcfg.num_layers = 1;
  mcfg.embed_dim = 2;
  mcfg.vocab = vocab.size();

  core::IncrementalConfig icfg;
  icfg.steps = 12;
  icfg.lr = 1e-2;
  icfg.seed = 3;

  auto run = [&] {
    core::LstmSeqModel model(mcfg);
    model.set_scaler(core::fit_rank_scaler(races));
    return core::incremental_update_sequence_model(model, races, vocab, wcfg,
                                                   icfg);
  };
  const auto s1 = run();
  ASSERT_GT(s1.windows, 0u);
  EXPECT_GT(s1.steps_run, 0);
  EXPECT_LT(s1.nll_after, s1.nll_before)
      << "a dozen Adam steps from random init must reduce NLL";
  // Bitwise deterministic: same seed, same windows, same result.
  const auto s2 = run();
  EXPECT_EQ(s1.nll_before, s2.nll_before);
  EXPECT_EQ(s1.nll_after, s2.nll_after);
}

TEST(IncrementalLstm, FitterEmitsLoadableV2ArtifactAndLeavesBaseUntouched) {
  std::vector<telemetry::RaceLog> races;
  races.push_back(sim::simulate_race({"Indy500", 2016, 40, sim::Usage::kTest}));
  races.push_back(sim::simulate_race({"Indy500", 2017, 40, sim::Usage::kTest}));
  const features::CarVocab vocab(races);
  features::WindowConfig wcfg;
  wcfg.encoder_length = 12;
  wcfg.decoder_length = 2;
  wcfg.stride = 4;
  wcfg.covariates = {.race_status = false,
                     .age_features = false,
                     .context_features = false,
                     .shift_features = false};
  core::SeqModelConfig mcfg;
  mcfg.cov_dim = 0;
  mcfg.hidden = 8;
  mcfg.num_layers = 1;
  mcfg.embed_dim = 2;
  mcfg.vocab = vocab.size();

  auto base = std::make_shared<core::LstmSeqModel>(mcfg);
  base->set_scaler(core::fit_rank_scaler(races));
  std::vector<tensor::Matrix> base_params;
  for (auto* p : base->params()) base_params.push_back(p->value);

  core::IncrementalConfig icfg;
  icfg.steps = 4;
  icfg.lr = 1e-2;
  auto fitter = core::make_incremental_lstm_fitter(
      base, vocab, wcfg, icfg, core::StatusSource::kOracle);

  telemetry::RaceWindow window;
  for (const auto& r : races) {
    window.push_back(std::make_shared<const telemetry::RaceLog>(r));
  }
  const std::string path = test_support::unique_temp_path("incr_lstm.bin");
  auto fitted = fitter(window, 5, path);
  ASSERT_TRUE(fitted.ok()) << fitted.status().to_string();
  EXPECT_NE(fitted.value().forecaster, nullptr);
  EXPECT_FALSE(fitted.value().summary.empty());

  // The emitted artifact is v2 and loads back into a same-shape model.
  const auto bytes = read_file(path);
  ASSERT_GE(bytes.size(), 12u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, 2u);
  core::LstmSeqModel reloaded(mcfg);
  EXPECT_TRUE(nn::try_load_params(path, reloaded.params()).ok());

  // The base (serving) model's weights were never touched by the fit.
  auto params_now = base->params();
  for (std::size_t i = 0; i < params_now.size(); ++i) {
    const auto& before = base_params[i];
    const auto& after = params_now[i]->value;
    ASSERT_TRUE(after.same_shape(before));
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          after.rows() * after.cols() * sizeof(double)),
              0)
        << "base model parameter " << i << " mutated by the fitter";
  }

  // Determinism: the same window + seed re-fits to the same summary.
  auto fitted2 =
      fitter(window, 5, test_support::unique_temp_path("incr_lstm2.bin"));
  ASSERT_TRUE(fitted2.ok());
  EXPECT_EQ(fitted.value().summary, fitted2.value().summary);
}

}  // namespace
