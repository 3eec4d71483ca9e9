// FleetEngine byte-identity and resharding property harness.
//
// The fleet's contract (src/core/fleet_engine.hpp) extends the parallel
// engine's: forecasts are BIT-identical for any SHARD count — including
// across a live reshard mid-workload — and identical to calling the wrapped
// forecaster directly. As in test_parallel_engine.cpp these tests compare
// raw bytes, never values-within-tolerance, and they also pin the caller
// rng protocol (exactly one u64 consumed, so caller generator end states
// are shard-count- and reshard-invariant too).
//
// The concurrent cases (reshard under traffic, parallel season jobs) are
// the `fleet` label's TSan targets: build the tsan preset and run
// `ctest --preset fleet-tsan`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/baselines.hpp"
#include "core/fleet_engine.hpp"
#include "core/forecast_cache.hpp"
#include "core/ranknet.hpp"
#include "simulator/season.hpp"

namespace {

using namespace ranknet;

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

class FleetEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A small multi-race workload: distinct ids so routing actually spreads
    // across shards.
    races_ = new std::vector<telemetry::RaceLog>();
    races_->push_back(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    races_->push_back(
        sim::simulate_race({"Iowa", 2018, 300, sim::Usage::kTest}));
    races_->push_back(
        sim::simulate_race({"Texas", 2019, 248, sim::Usage::kTest}));
    races_->push_back(
        sim::simulate_race({"Pocono", 2019, 200, sim::Usage::kTest}));

    vocab_ = new features::CarVocab({(*races_)[0]});
    core::SeqModelConfig cfg;
    cfg.cov_dim = features::CovariateConfig{}.dim();
    cfg.hidden = 8;
    cfg.embed_dim = 2;
    cfg.vocab = vocab_->size();
    model_ = std::make_shared<core::LstmSeqModel>(cfg);
    model_->set_scaler(features::StandardScaler(17.0, 9.0));
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete vocab_;
    delete races_;
  }

  static std::vector<core::FleetEngine::SeasonJob> season_jobs(
      int num_samples = 6) {
    std::vector<core::FleetEngine::SeasonJob> jobs;
    for (const auto& race : *races_) {
      auto shared = std::make_shared<const telemetry::RaceLog>(race);
      for (int origin : {50, 90}) {
        jobs.push_back({shared, origin, 5, num_samples});
      }
    }
    return jobs;
  }

  /// Forecast the whole workload through fleets at shard counts {1, 2, 8}
  /// and require (a) bytes identical to the direct (unfleeted) forecaster
  /// call and (b) identical caller rng end states.
  static void ExpectShardCountInvariant(
      const core::ForecasterFactory& factory) {
    auto direct = factory();
    struct Ref {
      core::RaceSamples samples;
      std::uint64_t rng_next;
    };
    std::vector<Ref> reference;
    for (std::size_t r = 0; r < races_->size(); ++r) {
      util::Rng rng(1000 + r);
      Ref ref;
      ref.samples = direct->forecast((*races_)[r], 50, 5, 6, rng);
      ref.rng_next = rng();
      ASSERT_FALSE(ref.samples.empty());
      reference.push_back(std::move(ref));
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      core::FleetConfig cfg;
      cfg.shards = shards;
      core::FleetEngine fleet(factory, cfg);
      ASSERT_EQ(fleet.num_shards(), shards);
      for (std::size_t r = 0; r < races_->size(); ++r) {
        util::Rng rng(1000 + r);
        const auto out = fleet.forecast((*races_)[r], 50, 5, 6, rng);
        EXPECT_TRUE(SamplesIdentical(reference[r].samples, out))
            << direct->name() << " race " << r << " at " << shards
            << " shards";
        EXPECT_EQ(rng(), reference[r].rng_next)
            << direct->name() << " rng state diverged, race " << r << " at "
            << shards << " shards";
      }
    }
  }

  static std::vector<telemetry::RaceLog>* races_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
};
std::vector<telemetry::RaceLog>* FleetEngineTest::races_ = nullptr;
features::CarVocab* FleetEngineTest::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> FleetEngineTest::model_;

TEST_F(FleetEngineTest, RaceKeyIsStableAndRoutingConsistent) {
  const auto key = core::FleetEngine::race_key("Indy500-2019");
  EXPECT_EQ(key, core::FleetEngine::race_key("Indy500-2019"));
  EXPECT_NE(key, core::FleetEngine::race_key("Indy500-2018"));

  core::FleetConfig cfg;
  cfg.shards = 8;
  core::FleetEngine fleet([] { return std::make_shared<core::CurRankForecaster>(); },
                          cfg);
  const auto idx = fleet.shard_index("Indy500-2019");
  EXPECT_LT(idx, fleet.num_shards());
  EXPECT_EQ(idx, fleet.shard_index("Indy500-2019"));
  EXPECT_EQ(fleet.shard_for("Indy500-2019").get(), fleet.shard(idx).get());
}

TEST_F(FleetEngineTest, JobBaseIsPureAndKeySensitive) {
  const auto k = core::FleetEngine::race_key("Iowa-2018");
  const auto b = core::FleetEngine::job_base(7, k, 50, 5, 6);
  EXPECT_EQ(b, core::FleetEngine::job_base(7, k, 50, 5, 6));
  EXPECT_NE(b, core::FleetEngine::job_base(8, k, 50, 5, 6));
  EXPECT_NE(b, core::FleetEngine::job_base(7, k + 1, 50, 5, 6));
  EXPECT_NE(b, core::FleetEngine::job_base(7, k, 51, 5, 6));
  EXPECT_NE(b, core::FleetEngine::job_base(7, k, 50, 6, 6));
  EXPECT_NE(b, core::FleetEngine::job_base(7, k, 50, 5, 7));
}

TEST_F(FleetEngineTest, CurRankShardCountByteInvariant) {
  ExpectShardCountInvariant(
      [] { return std::make_shared<core::CurRankForecaster>(); });
}

TEST_F(FleetEngineTest, ArimaShardCountByteInvariant) {
  ExpectShardCountInvariant(
      [] { return std::make_shared<core::ArimaForecaster>(); });
}

TEST_F(FleetEngineTest, RankNetOracleShardCountByteInvariant) {
  // Every factory call builds a fresh forecaster instance over the SAME
  // shared weights — the per-shard-instance contract the serving registry
  // relies on.
  ExpectShardCountInvariant([] {
    return std::make_shared<core::RankNetForecaster>(
        model_, nullptr, *vocab_, features::CovariateConfig{},
        core::StatusSource::kOracle, "oracle");
  });
}

TEST_F(FleetEngineTest, ForecastKeyedMatchesRngSurface) {
  core::FleetConfig cfg;
  cfg.shards = 2;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
  // forecast(rng) consumes exactly the one u64 that forecast_keyed takes
  // explicitly, so seeding both ways must agree bit-for-bit.
  util::Rng rng(0xabcd);
  const std::uint64_t base = util::Rng(0xabcd)();
  const auto via_rng = fleet.forecast((*races_)[1], 60, 4, 5, rng);
  const auto via_base = fleet.forecast_keyed((*races_)[1], 60, 4, 5, base);
  EXPECT_TRUE(SamplesIdentical(via_rng, via_base));
}

TEST_F(FleetEngineTest, RunSeasonShardCountByteInvariant) {
  const auto jobs = season_jobs();
  std::vector<std::vector<core::RaceSamples>> runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    core::FleetConfig cfg;
    cfg.shards = shards;
    core::FleetEngine fleet(
        [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
    runs.push_back(fleet.run_season(jobs, /*season_seed=*/42));
    ASSERT_EQ(runs.back().size(), jobs.size());
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(SamplesIdentical(runs[0][i], runs[r][i]))
          << "job " << i << ", run " << r;
    }
  }
  // And a different season seed must actually change the bytes (the seed is
  // live, not ignored).
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); },
      core::FleetConfig{});
  const auto other = fleet.run_season(jobs, /*season_seed=*/43);
  EXPECT_FALSE(SamplesIdentical(runs[0][0], other[0]));
}

TEST_F(FleetEngineTest, LiveReshardIsByteInvariant) {
  const auto jobs = season_jobs();
  core::FleetConfig cfg;
  cfg.shards = 1;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
  const auto before = fleet.run_season(jobs, 42);
  for (const std::size_t n : {std::size_t{2}, std::size_t{8},
                              std::size_t{3}}) {
    fleet.reshard(n);
    ASSERT_EQ(fleet.num_shards(), n);
    const auto after = fleet.run_season(jobs, 42);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(SamplesIdentical(before[i], after[i]))
          << "job " << i << " after reshard to " << n;
    }
    // Caller rng surface too: the single-forecast path consumes one u64
    // regardless of the live shard count.
    util::Rng rng(99);
    (void)fleet.forecast((*races_)[0], 50, 5, 6, rng);
    util::Rng expect(99);
    (void)expect();
    EXPECT_EQ(rng(), expect());
  }
}

TEST_F(FleetEngineTest, ReshardUnderTrafficKeepsBytesAndAnswersEveryone) {
  // The fleet-tsan centerpiece: four client threads hammer forecast_keyed
  // while the main thread reshards through {2, 8, 1, 4}. Every in-flight
  // job must complete on the shard generation it grabbed and every byte
  // must match the single-shard reference.
  core::FleetConfig cfg;
  cfg.shards = 2;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);

  constexpr int kPerThread = 12;
  std::vector<core::RaceSamples> reference;
  for (std::size_t r = 0; r < races_->size(); ++r) {
    const auto base = core::FleetEngine::job_base(
        7, core::FleetEngine::race_key((*races_)[r].id()), 50, 5, 6);
    reference.push_back(fleet.forecast_keyed((*races_)[r], 50, 5, 6, base));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t r = (t + static_cast<std::size_t>(i)) %
                              races_->size();
        const auto base = core::FleetEngine::job_base(
            7, core::FleetEngine::race_key((*races_)[r].id()), 50, 5, 6);
        const auto out =
            fleet.forecast_keyed((*races_)[r], 50, 5, 6, base);
        if (!SamplesIdentical(reference[r], out)) mismatches.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  for (const std::size_t n : {std::size_t{8}, std::size_t{1}, std::size_t{4},
                              std::size_t{2}}) {
    fleet.reshard(n);
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(answered.load(), 4 * kPerThread);
}

TEST_F(FleetEngineTest, DegradationPolicyForwardsToEveryShard) {
  core::FleetConfig cfg;
  cfg.shards = 3;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<core::CurRankForecaster>();
  // Damage tier: every car is "damaged", so the fallback serves everything
  // on whichever shard the forecast lands on.
  policy.series_damaged = [](int, int) { return true; };
  ASSERT_TRUE(fleet.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(5);
  (void)fleet.forecast((*races_)[2], 50, 5, 6, rng);
  const auto deg = fleet.degradation();
  EXPECT_GT(deg.damaged_fallback_cars, 0u);
  EXPECT_EQ(deg.full_cars, 0u);

  // The policy must survive a reshard (re-applied to the fresh shard set).
  fleet.reshard(2);
  util::Rng rng2(5);
  (void)fleet.forecast((*races_)[2], 50, 5, 6, rng2);
  EXPECT_GT(fleet.degradation().damaged_fallback_cars, 0u);
}

TEST_F(FleetEngineTest, StatsAggregateAcrossShards) {
  core::FleetConfig cfg;
  cfg.shards = 4;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::CurRankForecaster>(); }, cfg);
  const auto jobs = season_jobs();
  (void)fleet.run_season(jobs, 42);
  EXPECT_EQ(fleet.stats().forecasts, jobs.size());
}

TEST_F(FleetEngineTest, PerShardCacheHitReplaysExactBytes) {
  core::FleetConfig cfg;
  cfg.shards = 2;
  cfg.shard.cache_capacity = 8;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
  const auto base = core::FleetEngine::job_base(
      7, core::FleetEngine::race_key((*races_)[0].id()), 50, 5, 6);
  const auto cold = fleet.forecast_keyed((*races_)[0], 50, 5, 6, base);
  EXPECT_EQ(fleet.stats().cache_hits, 0u);
  const auto hit = fleet.forecast_keyed((*races_)[0], 50, 5, 6, base);
  EXPECT_EQ(fleet.stats().cache_hits, 1u);
  EXPECT_TRUE(SamplesIdentical(cold, hit));
}

TEST_F(FleetEngineTest, SharedCacheIsWiredIntoEveryShard) {
  auto shared = std::make_shared<core::ForecastCache>(32, /*stripes=*/4);
  core::FleetConfig cfg;
  cfg.shards = 3;
  cfg.shard.cache_capacity = 8;  // must be overridden by the shared cache
  cfg.shared_cache = shared;
  core::FleetEngine fleet(
      [] { return std::make_shared<core::ArimaForecaster>(); }, cfg);
  for (std::size_t i = 0; i < fleet.num_shards(); ++i) {
    EXPECT_EQ(fleet.shard(i)->cache().get(), shared.get()) << "shard " << i;
    EXPECT_EQ(fleet.shard(i)->engine()->forecast_cache().get(), shared.get());
  }
}

TEST_F(FleetEngineTest, RunSeasonRejectsNullRace) {
  core::FleetEngine fleet(
      [] { return std::make_shared<core::CurRankForecaster>(); },
      core::FleetConfig{});
  std::vector<core::FleetEngine::SeasonJob> jobs(1);  // null race
  EXPECT_THROW((void)fleet.run_season(jobs, 1), std::invalid_argument);
}

}  // namespace
