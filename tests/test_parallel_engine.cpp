// ParallelForecastEngine determinism harness.
//
// The engine's contract (src/core/parallel_engine.hpp) is that forecasts
// are BIT-identical for any thread count — including 1 — and identical to
// calling the wrapped forecaster directly. These tests compare raw bytes,
// not values-within-tolerance: a single reordered floating-point add in the
// partitioned path would fail them.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>

#include "core/baselines.hpp"
#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "obs/metrics.hpp"
#include "simulator/season.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ranknet;

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

TEST(ThreadPool, RunsSubmittedTasksOnWorkers) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SizeZeroRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const auto tid = std::this_thread::get_id();
  auto fut = pool.submit([tid] { return std::this_thread::get_id() == tid; });
  EXPECT_TRUE(fut.get());
}

TEST(RngStream, KeyedStreamsAreDeterministicAndDistinct) {
  util::Rng a = util::Rng::stream(42, 3, 7);
  util::Rng b = util::Rng::stream(42, 3, 7);
  EXPECT_EQ(a(), b());
  // Neighbouring keys and bases must decorrelate.
  EXPECT_NE(util::Rng::stream(42, 3, 7)(), util::Rng::stream(42, 3, 8)());
  EXPECT_NE(util::Rng::stream(42, 3, 7)(), util::Rng::stream(42, 4, 7)());
  EXPECT_NE(util::Rng::stream(42, 3, 7)(), util::Rng::stream(43, 3, 7)());
}

class ParallelEngineTest : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    model_.reset();
    pit_.reset();
    delete vocab_;
    delete race_;
  }

  /// Forecast through engines at several thread counts and require every
  /// result byte-identical to the direct (unwrapped) call with the same
  /// seed. Also checks the rng protocol: engine and direct call must leave
  /// the caller's generator in the same state.
  static void ExpectThreadInvariant(core::RaceForecaster& forecaster,
                                    int origin, int horizon, int samples,
                                    std::uint64_t seed) {
    util::Rng direct_rng(seed);
    const auto direct =
        forecaster.forecast(*race_, origin, horizon, samples, direct_rng);
    ASSERT_FALSE(direct.empty());
    const std::uint64_t direct_next = direct_rng();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      core::ParallelForecastEngine engine(forecaster, threads);
      util::Rng rng(seed);
      const auto out =
          engine.forecast(*race_, origin, horizon, samples, rng);
      EXPECT_TRUE(SamplesIdentical(direct, out))
          << forecaster.name() << " at " << threads << " threads";
      EXPECT_EQ(rng(), direct_next)
          << forecaster.name() << " rng state diverged at " << threads
          << " threads";
    }
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
  static std::shared_ptr<core::PitModel> pit_;
};
telemetry::RaceLog* ParallelEngineTest::race_ = nullptr;
features::CarVocab* ParallelEngineTest::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> ParallelEngineTest::model_;
std::shared_ptr<core::PitModel> ParallelEngineTest::pit_;

TEST_F(ParallelEngineTest, RankNetOracleThreadInvariant) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  ExpectThreadInvariant(f, 50, 3, 7, 9001);
}

TEST_F(ParallelEngineTest, RankNetPitModelThreadInvariant) {
  // kPitModel couples cars through the shared status realization — the
  // hardest case for partition invariance.
  core::RankNetForecaster f(model_, pit_, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kPitModel, "mlp");
  ExpectThreadInvariant(f, 60, 4, 5, 1234);
}

TEST_F(ParallelEngineTest, ArimaThreadInvariant) {
  core::ArimaForecaster f;
  ExpectThreadInvariant(f, 50, 5, 11, 777);
}

TEST_F(ParallelEngineTest, CurRankThreadInvariant) {
  core::CurRankForecaster f;
  ExpectThreadInvariant(f, 50, 5, 11, 777);
}

TEST_F(ParallelEngineTest, TaskGranularityDoesNotChangeBits) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  core::ParallelForecastEngine one_car_tasks(f, 2, /*max_cars_per_task=*/1);
  core::ParallelForecastEngine one_big_task(f, 2, /*max_cars_per_task=*/100);
  util::Rng rng_a(5), rng_b(5);
  const auto a = one_car_tasks.forecast(*race_, 50, 3, 7, rng_a);
  const auto b = one_big_task.forecast(*race_, 50, 3, 7, rng_b);
  EXPECT_TRUE(SamplesIdentical(a, b));
  EXPECT_GT(one_car_tasks.stats().tasks, one_big_task.stats().tasks);
}

TEST_F(ParallelEngineTest, NonPartitionableFallsBackToDelegation) {
  core::TransformerConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  cfg.infer_context = 12;
  auto tf = std::make_shared<core::TransformerSeqModel>(cfg);
  tf->set_scaler(features::StandardScaler(17.0, 9.0));
  core::TransformerForecaster f(tf, nullptr, *vocab_,
                                features::CovariateConfig{},
                                core::StatusSource::kOracle, "tf");

  core::ParallelForecastEngine engine(f, 4);
  EXPECT_FALSE(engine.partitioned());
  util::Rng rng_a(4), rng_b(4);
  const auto direct = f.forecast(*race_, 40, 2, 3, rng_a);
  const auto wrapped = engine.forecast(*race_, 40, 2, 3, rng_b);
  EXPECT_TRUE(SamplesIdentical(direct, wrapped));
}

TEST_F(ParallelEngineTest, WorkspaceStaysWarmAcrossEngineForecasts) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "oracle");
  using test_support::arena_counts;

  // threads=0 runs every task inline on the calling thread, so arena reuse
  // is deterministic (one thread_local workspace serves every epoch).
  core::ParallelForecastEngine engine(f, 0);
  const auto cold = arena_counts();
  util::Rng warm_rng(31);
  (void)engine.forecast(*race_, 50, 3, 6, warm_rng);   // grows the arena
  EXPECT_GT(arena_counts().epochs, cold.epochs);
  util::Rng warm2_rng(31);
  (void)engine.forecast(*race_, 50, 3, 6, warm2_rng);  // closes warm epochs

  const auto before = arena_counts();
  util::Rng rng(31);
  (void)engine.forecast(*race_, 50, 3, 6, rng);
  const auto after = arena_counts();
  EXPECT_GT(after.epochs, before.epochs);
  EXPECT_EQ(after.block_allocs, before.block_allocs)
      << "steady-state forecast allocated arena blocks";
  EXPECT_EQ(after.epochs - before.epochs,
            after.reused_epochs - before.reused_epochs)
      << "steady-state forecast had a non-reused workspace epoch";

  // Worker threads book into the same process-wide counters.
  core::ParallelForecastEngine threaded(f, 2);
  const auto pooled = arena_counts();
  util::Rng trng(31);
  (void)threaded.forecast(*race_, 50, 3, 6, trng);
  const auto pooled_after = arena_counts();
  EXPECT_GT(pooled_after.epochs, pooled.epochs);
  EXPECT_GE(pooled_after.epochs - pooled.epochs,
            pooled_after.reused_epochs - pooled.reused_epochs);
}

TEST_F(ParallelEngineTest, OwningConstructorAndStats) {
  auto f = std::make_shared<core::CurRankForecaster>();
  core::ParallelForecastEngine engine(f, 2);
  EXPECT_EQ(engine.name(), f->name());
  EXPECT_TRUE(engine.partitioned());

  auto& reg = obs::Registry::instance();
  const auto forecasts0 = reg.counter("engine.forecasts").value();
  const auto tasks0 = reg.counter("engine.tasks").value();
  util::Rng rng(1);
  (void)engine.forecast(*race_, 50, 3, 4, rng);
  (void)engine.forecast(*race_, 60, 3, 4, rng);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.forecasts, 2u);
  EXPECT_GE(stats.tasks, 2u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.task_seconds, 0.0);

  // The process-wide "engine.*" counters sum the per-engine stats.
  EXPECT_EQ(reg.counter("engine.forecasts").value() - forecasts0, 2u);
  EXPECT_EQ(reg.counter("engine.tasks").value() - tasks0, stats.tasks);

  engine.reset_stats();
  EXPECT_EQ(engine.stats().forecasts, 0u);
}

}  // namespace
