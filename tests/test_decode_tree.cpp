// Shared-prefix decode tree differential harness.
//
// The tree decode (DecodeMode::kTree, src/core/ranknet.cpp +
// LstmSeqModel::sample_forward_tree) claims to be BIT-identical to the
// historical independent decode while running the shared trajectory prefix
// (encoder-tail replay + first decode step) at branch width instead of row
// width. These tests prove the claim the same way the PR-5 kernel harness
// proved SIMD equivalence: compute both ways, memcmp the bytes.
//
// Coverage axes (ISSUE acceptance):
//  * every RankNet status variant — Oracle, PitModel, Joint, DeepAR,
//  * both kernel variants — the whole binary is re-run under
//    RANKNET_KERNEL=scalar|avx2 by CTest, plus an explicit in-process
//    variant-flip test,
//  * engine thread counts {1, 2, 8},
//  * ForecastCache hits byte-identical to the cold compute that filled
//    them, under the same rng protocol.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/baselines.hpp"
#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "obs/metrics.hpp"
#include "simulator/season.hpp"
#include "tensor/simd_kernels.hpp"

namespace {

using namespace ranknet;
namespace tk = tensor::kernels;

// Bytewise equality of two sample maps (same cars, same shapes, same bits).
::testing::AssertionResult SamplesIdentical(const core::RaceSamples& a,
                                            const core::RaceSamples& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "car count " << a.size() << " vs " << b.size();
  }
  for (const auto& [car_id, m] : a) {
    const auto it = b.find(car_id);
    if (it == b.end()) {
      return ::testing::AssertionFailure() << "car " << car_id << " missing";
    }
    const auto& n = it->second;
    if (m.rows() != n.rows() || m.cols() != n.cols()) {
      return ::testing::AssertionFailure()
             << "car " << car_id << " shape mismatch";
    }
    if (std::memcmp(m.flat().data(), n.flat().data(),
                    m.flat().size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "car " << car_id << " bytes differ";
    }
  }
  return ::testing::AssertionSuccess();
}

// Process-registry counter, read by name as perfbench and the export do.
std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// The "decode_tree.*" counters, zeroed before a test reads them absolutely.
void reset_decode_tree_counters() {
  for (const char* name : {"decode_tree.decodes", "decode_tree.rows",
                           "decode_tree.branches",
                           "decode_tree.shared_rows"}) {
    obs::Registry::instance().counter(name).reset();
  }
}

class DecodeTreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    vocab_ = new features::CarVocab({*race_});

    core::SeqModelConfig cfg;
    cfg.cov_dim = features::CovariateConfig{}.dim();
    cfg.hidden = 8;
    cfg.embed_dim = 2;
    cfg.vocab = vocab_->size();
    model_ = std::make_shared<core::LstmSeqModel>(cfg);
    model_->set_scaler(features::StandardScaler(17.0, 9.0));

    pit_ = std::make_shared<core::PitModel>();
    pit_->set_scaler(features::StandardScaler(15.0, 6.0));

    // Joint: no covariates, 3-dim target [Rank, TrackStatus, LapStatus].
    core::SeqModelConfig jcfg;
    jcfg.cov_dim = 0;
    jcfg.target_dim = 3;
    jcfg.hidden = 8;
    jcfg.embed_dim = 2;
    jcfg.vocab = vocab_->size();
    joint_ = std::make_shared<core::LstmSeqModel>(jcfg);
    joint_->set_scaler(features::StandardScaler(17.0, 9.0));

    // DeepAR: same machinery, zero covariates, scalar target.
    core::SeqModelConfig dcfg;
    dcfg.cov_dim = 0;
    dcfg.hidden = 8;
    dcfg.embed_dim = 2;
    dcfg.vocab = vocab_->size();
    deepar_ = std::make_shared<core::LstmSeqModel>(dcfg);
    deepar_->set_scaler(features::StandardScaler(17.0, 9.0));
  }
  static void TearDownTestSuite() {
    model_.reset();
    pit_.reset();
    joint_.reset();
    deepar_.reset();
    delete vocab_;
    delete race_;
  }

  static features::CovariateConfig no_covariates() {
    features::CovariateConfig c;
    c.race_status = false;
    c.age_features = false;
    c.context_features = false;
    c.shift_features = false;
    return c;
  }

  /// Joint keeps race status in the window rows: the leading covariates
  /// become the aux target dims (ModelZoo::joint_window_config).
  static features::CovariateConfig joint_covariates() {
    features::CovariateConfig c = no_covariates();
    c.race_status = true;
    return c;
  }

  /// The differential: forecast with the independent decode, then with the
  /// tree decode, same seed — bytes and caller rng state must match. Then
  /// wrap in engines at threads {1, 2, 8} in tree mode and require the
  /// same bytes again.
  static void ExpectTreeMatchesIndependent(core::RankNetForecaster& f,
                                           int origin, int horizon,
                                           int samples, std::uint64_t seed) {
    f.set_decode_mode(core::DecodeMode::kIndependent);
    util::Rng ref_rng(seed);
    const auto ref = f.forecast(*race_, origin, horizon, samples, ref_rng);
    ASSERT_FALSE(ref.empty());
    const std::uint64_t ref_next = ref_rng();

    f.set_decode_mode(core::DecodeMode::kTree);
    util::Rng tree_rng(seed);
    const auto tree = f.forecast(*race_, origin, horizon, samples, tree_rng);
    EXPECT_TRUE(SamplesIdentical(ref, tree)) << f.name() << " direct tree";
    EXPECT_EQ(tree_rng(), ref_next) << f.name() << " rng state diverged";

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      core::ParallelForecastEngine engine(f, threads);
      util::Rng rng(seed);
      const auto out = engine.forecast(*race_, origin, horizon, samples, rng);
      EXPECT_TRUE(SamplesIdentical(ref, out))
          << f.name() << " tree at " << threads << " threads";
      EXPECT_EQ(rng(), ref_next)
          << f.name() << " engine rng state diverged at " << threads
          << " threads";
    }
    f.set_decode_mode(core::DecodeMode::kTree);
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
  static std::shared_ptr<core::PitModel> pit_;
  static std::shared_ptr<core::LstmSeqModel> joint_;
  static std::shared_ptr<core::LstmSeqModel> deepar_;
};
telemetry::RaceLog* DecodeTreeTest::race_ = nullptr;
features::CarVocab* DecodeTreeTest::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> DecodeTreeTest::model_;
std::shared_ptr<core::PitModel> DecodeTreeTest::pit_;
std::shared_ptr<core::LstmSeqModel> DecodeTreeTest::joint_;
std::shared_ptr<core::LstmSeqModel> DecodeTreeTest::deepar_;

// ---------------------------------------------------------------------------
// Differential: tree == independent, per status variant.

TEST_F(DecodeTreeTest, OracleTreeBitIdentical) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  ExpectTreeMatchesIndependent(f, 50, 5, 9, 9001);
}

TEST_F(DecodeTreeTest, PitModelTreeBitIdentical) {
  // kPitModel is the interesting case: the sampled status realization
  // perturbs the teacher-forced tail covariates per sample, so branches
  // are discovered by bit-equality grouping instead of assumed per car.
  core::RankNetForecaster f(model_, pit_, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "mlp");
  ExpectTreeMatchesIndependent(f, 60, 4, 7, 1234);
}

TEST_F(DecodeTreeTest, JointTreeBitIdentical) {
  core::RankNetForecaster f(joint_, nullptr, *vocab_, joint_covariates(),
                            core::StatusSource::kJoint, "joint");
  ExpectTreeMatchesIndependent(f, 50, 4, 6, 4242);
}

TEST_F(DecodeTreeTest, DeepArTreeBitIdentical) {
  core::RankNetForecaster f(deepar_, nullptr, *vocab_, no_covariates(),
                            core::StatusSource::kOracle, "deepar");
  ExpectTreeMatchesIndependent(f, 55, 5, 8, 31337);
}

TEST_F(DecodeTreeTest, SingleSampleAndShortHorizonEdges) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  // One sample per car -> every branch has exactly one member; horizon 1
  // -> the decode is nothing but the shared step.
  ExpectTreeMatchesIndependent(f, 40, 1, 1, 7);
  ExpectTreeMatchesIndependent(f, 40, 1, 5, 7);
  // Early origin clamps the PitModel tail (origin - 2 < shift).
  core::RankNetForecaster p(model_, pit_, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "mlp");
  ExpectTreeMatchesIndependent(p, 3, 3, 4, 99);
}

TEST_F(DecodeTreeTest, DefaultIsTreeAndSettable) {
  // A new forecaster decodes as a tree; the setter flips it.
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  EXPECT_EQ(f.decode_mode(), core::DecodeMode::kTree);
  f.set_decode_mode(core::DecodeMode::kIndependent);
  EXPECT_EQ(f.decode_mode(), core::DecodeMode::kIndependent);
}

// ---------------------------------------------------------------------------
// Kernel variants: the suite is re-run whole under RANKNET_KERNEL=scalar and
// =avx2 by CTest (decode_tree_kernels_* tests); this fixture additionally
// flips the variant in-process so one binary proves both sides.

class DecodeTreeKernelVariants : public DecodeTreeTest {
 protected:
  void SetUp() override {
    saved_ = tk::active_variant();
    if (!tk::cpu_supports(tk::Variant::kAvx2)) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA; variant differential skipped";
    }
  }
  void TearDown() override { ASSERT_TRUE(tk::set_variant(saved_).ok()); }
  tk::Variant saved_ = tk::Variant::kScalar;
};

TEST_F(DecodeTreeKernelVariants, TreeBitIdenticalUnderAllVariants) {
  core::RankNetForecaster f(model_, pit_, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "mlp");
  for (const tk::Variant v : {tk::Variant::kScalar, tk::Variant::kAvx2}) {
    ASSERT_TRUE(tk::set_variant(v).ok());
    ExpectTreeMatchesIndependent(f, 60, 4, 6, 2026);
  }
}

// ---------------------------------------------------------------------------
// Observability: branch-reuse counters must reflect the sharing actually
// achieved (Oracle shares perfectly: one branch per car).

TEST_F(DecodeTreeTest, OracleCountersReportOneBranchPerCar) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  f.set_decode_mode(core::DecodeMode::kTree);
  reset_decode_tree_counters();

  constexpr int kSamples = 9;
  util::Rng rng(11);
  const auto out = f.forecast(*race_, 50, 3, kSamples, rng);
  ASSERT_FALSE(out.empty());

  const auto cars = static_cast<std::uint64_t>(out.size());
  EXPECT_EQ(counter("decode_tree.decodes"), 1u);
  EXPECT_EQ(counter("decode_tree.rows"), cars * kSamples);
  // Oracle covariates are ground truth -> identical for every sample of a
  // car: exactly one branch per car (kSamples rows per branch), and
  // (tail == 0) one shared row-step per coalesced row.
  EXPECT_EQ(counter("decode_tree.branches"), cars);
  EXPECT_EQ(counter("decode_tree.shared_rows"), cars * (kSamples - 1));
  f.set_decode_mode(core::DecodeMode::kTree);
}

TEST_F(DecodeTreeTest, PitModelCountersShowCoalescing) {
  core::RankNetForecaster f(model_, pit_, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "mlp");
  f.set_decode_mode(core::DecodeMode::kTree);
  reset_decode_tree_counters();

  constexpr int kSamples = 8;
  util::Rng rng(5);
  const auto out = f.forecast(*race_, 60, 3, kSamples, rng);
  ASSERT_FALSE(out.empty());

  const auto cars = static_cast<std::uint64_t>(out.size());
  const auto rows = counter("decode_tree.rows");
  const auto branches = counter("decode_tree.branches");
  EXPECT_EQ(rows, cars * kSamples);
  // Sampled statuses can split a car's samples into several branches, but
  // never more than one branch per row, and grouping must find at least
  // some sharing at green-flag laps.
  EXPECT_GE(branches, cars);
  EXPECT_LT(branches, rows);  // some reuse must exist
  f.set_decode_mode(core::DecodeMode::kTree);
}

// ---------------------------------------------------------------------------
// ForecastCache through the engine: a hit must return the exact bytes of
// the cold compute and observe the identical rng protocol.

TEST_F(DecodeTreeTest, CacheHitReturnsColdBytes) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  core::ParallelForecastEngine engine(f, 2);
  auto cache = std::make_shared<core::ForecastCache>(8);
  engine.set_forecast_cache(cache);

  const auto hits0 = counter("forecast_cache.hits");
  const auto misses0 = counter("forecast_cache.misses");
  const auto inserts0 = counter("forecast_cache.insertions");

  util::Rng cold_rng(321);
  const auto cold = engine.forecast(*race_, 50, 4, 7, cold_rng);
  const std::uint64_t cold_next = cold_rng();
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_EQ(counter("forecast_cache.misses"), misses0 + 1);
  EXPECT_EQ(counter("forecast_cache.insertions"), inserts0 + 1);

  util::Rng hit_rng(321);
  const auto hit = engine.forecast(*race_, 50, 4, 7, hit_rng);
  EXPECT_TRUE(SamplesIdentical(cold, hit));
  // The hit consumes exactly the one base draw a cold forecast would.
  EXPECT_EQ(hit_rng(), cold_next);
  EXPECT_EQ(counter("forecast_cache.hits"), hits0 + 1);
  EXPECT_EQ(cache->size(), 1u);
}

TEST_F(DecodeTreeTest, CacheKeyDiscriminatesRequests) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  core::ParallelForecastEngine engine(f, 1);
  auto cache = std::make_shared<core::ForecastCache>(16);
  engine.set_forecast_cache(cache);

  util::Rng r1(7);
  (void)engine.forecast(*race_, 50, 4, 7, r1);
  EXPECT_EQ(cache->size(), 1u);

  // Different seed -> different base -> different entry.
  util::Rng r2(8);
  (void)engine.forecast(*race_, 50, 4, 7, r2);
  EXPECT_EQ(cache->size(), 2u);
  // Different origin / horizon / sample count each miss too.
  util::Rng r3(7);
  (void)engine.forecast(*race_, 51, 4, 7, r3);
  util::Rng r4(7);
  (void)engine.forecast(*race_, 50, 3, 7, r4);
  util::Rng r5(7);
  (void)engine.forecast(*race_, 50, 4, 6, r5);
  EXPECT_EQ(cache->size(), 5u);
  // Model version bump invalidates logically (new key), old entry remains
  // until evicted.
  engine.set_model_version(engine.model_version() + 1);
  util::Rng r6(7);
  (void)engine.forecast(*race_, 50, 4, 7, r6);
  EXPECT_EQ(cache->size(), 6u);
}

TEST_F(DecodeTreeTest, CacheSharedAcrossEnginesAndRaceStateSensitive) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  auto cache = std::make_shared<core::ForecastCache>(8);
  core::ParallelForecastEngine a(f, 1), b(f, 2);
  a.set_forecast_cache(cache);
  b.set_forecast_cache(cache);

  util::Rng ra(55);
  const auto cold = a.forecast(*race_, 50, 4, 7, ra);
  const auto hits0 = counter("forecast_cache.hits");
  util::Rng rb(55);
  const auto hit = b.forecast(*race_, 50, 4, 7, rb);
  EXPECT_TRUE(SamplesIdentical(cold, hit));
  EXPECT_EQ(counter("forecast_cache.hits"), hits0 + 1);
  EXPECT_EQ(b.stats().cache_hits, 1u);
  EXPECT_EQ(a.stats().cache_hits, 0u);

  // A different race state (same request otherwise) must not hit.
  const auto other = sim::simulate_race({"Indy500", 2019, 201,
                                         sim::Usage::kTest});
  EXPECT_NE(race_->digest(), other.digest());
}

TEST_F(DecodeTreeTest, DegradedForecastsAreNeverCached) {
  core::RankNetForecaster primary(model_, nullptr, *vocab_,
                                  features::CovariateConfig{},
                                  core::StatusSource::kOracle, "oracle");
  core::ParallelForecastEngine engine(primary, 2);
  auto cache = std::make_shared<core::ForecastCache>(8);
  engine.set_forecast_cache(cache);

  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<core::CurRankForecaster>();
  policy.series_damaged = [](int car_id, int) { return car_id % 2 == 1; };
  ASSERT_TRUE(engine.set_degradation_policy(policy).ok());

  util::Rng rng(9);
  const auto out = engine.forecast(*race_, 30, 4, 5, rng);
  ASSERT_FALSE(out.empty());
  EXPECT_GT(engine.degradation().fallback_cars(), 0u);
  // A degraded result must not be replayed after the system recovers.
  EXPECT_EQ(cache->size(), 0u);
}

}  // namespace
