// Cross-cutting property tests (parameterized sweeps) over the pieces the
// forecasting pipeline relies on: quantile/risk optimality, joint sorting,
// covariate reconstruction, and simulator invariants across all events.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/forecaster.hpp"
#include "core/metrics.hpp"
#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "features/window.hpp"
#include "simulator/season.hpp"
#include "telemetry/analysis.hpp"
#include "util/stats.hpp"

namespace {

using namespace ranknet;

// ---------------------------------------------------------------------
// ρ-risk: among constant predictors, the empirical ρ-quantile of the data
// minimizes ρ-risk. This is the property that makes 90-risk a meaningful
// score for the q90 forecast.
class RhoRiskProperty : public ::testing::TestWithParam<double> {};

TEST_P(RhoRiskProperty, QuantileMinimizesRisk) {
  const double rho = GetParam();
  util::Rng rng(17);
  std::vector<double> z;
  for (int i = 0; i < 400; ++i) z.push_back(rng.normal(10.0, 3.0));
  const double qstar = util::quantile(z, rho);
  const std::vector<double> pred_star(z.size(), qstar);
  const double risk_star = core::rho_risk(pred_star, z, rho);
  for (double delta : {-2.0, -0.7, 0.7, 2.0}) {
    const std::vector<double> pred(z.size(), qstar + delta);
    EXPECT_GE(core::rho_risk(pred, z, rho), risk_star - 1e-9)
        << "rho=" << rho << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Quantiles, RhoRiskProperty,
                         ::testing::Values(0.1, 0.5, 0.9));

// ---------------------------------------------------------------------
// Joint sorting: for any sampled values, each (sample, lap) slice becomes a
// permutation of 1..C, and sorting is monotone (higher raw value -> higher
// rank).
class SortToRanksProperty : public ::testing::TestWithParam<int> {};

TEST_P(SortToRanksProperty, ProducesPermutationsAndMonotonicity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t cars = 3 + static_cast<std::size_t>(GetParam()) % 7;
  const std::size_t samples = 5, horizon = 3;
  core::RaceSamples raw;
  for (std::size_t c = 0; c < cars; ++c) {
    tensor::Matrix m(samples, horizon);
    for (auto& v : m.flat()) v = rng.uniform(1.0, 33.0);
    raw.emplace(static_cast<int>(c) + 1, std::move(m));
  }
  const auto ranks = core::sort_to_ranks(raw);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t h = 0; h < horizon; ++h) {
      std::vector<double> slice;
      for (const auto& [car, m] : ranks) slice.push_back(m(s, h));
      std::sort(slice.begin(), slice.end());
      for (std::size_t i = 0; i < cars; ++i) {
        EXPECT_DOUBLE_EQ(slice[i], static_cast<double>(i + 1));
      }
      // Monotonicity vs raw values.
      for (const auto& [car_a, ma] : raw) {
        for (const auto& [car_b, mb] : raw) {
          if (ma(s, h) < mb(s, h)) {
            EXPECT_LT(ranks.at(car_a)(s, h), ranks.at(car_b)(s, h));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SortToRanksProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Covariate reconstruction: build_covariates recomputes age features from
// raw statuses; on ground-truth streams this must agree with the per-car
// transform for every event and car.
class CovariateConsistency
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CovariateConsistency, AgeFeaturesMatchTransforms) {
  const auto race = sim::simulate_race({GetParam(), 2016, 120,
                                        sim::Usage::kTrain});
  features::CovariateConfig cfg;  // full
  for (int car_id : race.car_ids()) {
    const auto streams = features::StatusStreams::from_race(race, car_id);
    const auto covs = features::build_covariates(streams, cfg);
    const auto status = features::compute_status_features(race.car(car_id));
    const std::size_t dim = cfg.dim();
    ASSERT_EQ(covs.size(), streams.laps() * dim);
    for (std::size_t t = 0; t < streams.laps(); ++t) {
      const double* row = covs.data() + t * dim;
      ASSERT_NEAR(row[2] * 10.0, status.caution_laps[t], 1e-9);
      ASSERT_NEAR(row[3] * 40.0, status.pit_age[t], 1e-9);
      ASSERT_EQ(row[0], status.track_status[t]);
      ASSERT_EQ(row[1], status.lap_status[t]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Events, CovariateConsistency,
                         ::testing::Values("Indy500", "Texas", "Iowa",
                                           "Pocono"));

// ---------------------------------------------------------------------
// Simulator invariants across every event preset.
class EventInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(EventInvariants, RecordsWellFormed) {
  const auto race =
      sim::simulate_race({GetParam(), 2017, 0, sim::Usage::kTrain});
  const auto track = sim::track_by_name(GetParam());
  EXPECT_EQ(race.num_laps(), track.total_laps);
  for (const auto& rec : race.records()) {
    EXPECT_GE(rec.rank, 1);
    EXPECT_LE(rec.rank, track.max_cars);
    EXPECT_GT(rec.lap_time, 0.3 * track.base_lap_seconds());
    EXPECT_GE(rec.time_behind_leader, 0.0);
  }
  // Pit stops are sparse and present.
  const double ratio = telemetry::pit_laps_ratio(race);
  EXPECT_GT(ratio, 0.005);
  EXPECT_LT(ratio, 0.06);
}

TEST_P(EventInvariants, WindowsCoverTrainingRaces) {
  const auto ds = sim::build_event_dataset(GetParam());
  features::CarVocab vocab(ds.train);
  auto wcfg = features::WindowConfig{};
  wcfg.encoder_length = 30;
  wcfg.stride = 8;
  const auto windows = features::build_windows(ds.train, vocab, wcfg);
  EXPECT_GT(windows.size(), 300u);
  for (const auto& w : windows) {
    ASSERT_EQ(w.target.size(), 32u);
    for (double rank : w.target) {
      ASSERT_GE(rank, 1.0);
      ASSERT_LE(rank, 40.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Events, EventInvariants,
                         ::testing::Values("Indy500", "Texas", "Iowa",
                                           "Pocono"));

// ---------------------------------------------------------------------
// End-to-end rank validity on PARALLEL-engine output: whatever the thread
// count and task partition did, jointly sorting the merged samples must
// yield a permutation of 1..N in every (sample, lap) slice, with raw-value
// ties broken by ascending car id (stable sort over map order).
TEST(ParallelEngineProperty, SortedRanksArePermutationsPerSlice) {
  const auto race =
      sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest});
  features::CarVocab vocab({race});
  core::SeqModelConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.hidden = 8;
  cfg.embed_dim = 2;
  cfg.vocab = vocab.size();
  auto model = std::make_shared<core::LstmSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  core::RankNetForecaster forecaster(model, nullptr, vocab,
                                     features::CovariateConfig{},
                                     core::StatusSource::kOracle, "oracle");
  core::ParallelForecastEngine engine(forecaster, 2,
                                      /*max_cars_per_task=*/3);

  util::Rng rng(31);
  const auto raw = engine.forecast(race, 50, 4, 9, rng);
  ASSERT_FALSE(raw.empty());
  const auto ranks = core::sort_to_ranks(raw);
  const std::size_t cars = ranks.size();
  const std::size_t samples = ranks.begin()->second.rows();
  const std::size_t horizon = ranks.begin()->second.cols();

  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t h = 0; h < horizon; ++h) {
      std::vector<bool> seen(cars, false);
      for (const auto& [car_id, m] : ranks) {
        const double r = m(s, h);
        ASSERT_EQ(r, std::floor(r)) << "non-integer rank";
        const auto pos = static_cast<std::size_t>(r) - 1;
        ASSERT_LT(pos, cars) << "rank out of range at s=" << s << " h=" << h;
        ASSERT_FALSE(seen[pos]) << "duplicate rank at s=" << s << " h=" << h;
        seen[pos] = true;
      }
      // Ties in the raw samples resolve by ascending car id.
      for (auto a = raw.begin(); a != raw.end(); ++a) {
        for (auto b = std::next(a); b != raw.end(); ++b) {
          if (a->second(s, h) == b->second(s, h)) {
            EXPECT_LT(ranks.at(a->first)(s, h), ranks.at(b->first)(s, h))
                << "tie between cars " << a->first << " and " << b->first
                << " not broken by car id";
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Decode-tree properties: the tree decode's branch construction must be
// invisible in the bits. Randomized sweeps (seeded by the test parameter)
// over sample counts, partition compositions, and cache interleavings.

core::RaceSamples merge(std::initializer_list<core::RaceSamples> parts) {
  core::RaceSamples out;
  for (const auto& p : parts) {
    for (const auto& [car, m] : p) out.emplace(car, m);
  }
  return out;
}

bool bits_equal(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

class DecodeTreeProperty : public ::testing::TestWithParam<int> {
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

  static core::RankNetForecaster make(core::StatusSource source) {
    return core::RankNetForecaster(
        model_, source == core::StatusSource::kPitModel ? pit_ : nullptr,
        *vocab_, features::CovariateConfig{}, source, "prop");
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
  static std::shared_ptr<core::PitModel> pit_;
};
telemetry::RaceLog* DecodeTreeProperty::race_ = nullptr;
features::CarVocab* DecodeTreeProperty::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> DecodeTreeProperty::model_;
std::shared_ptr<core::PitModel> DecodeTreeProperty::pit_;

// Row streams are keyed by (car, sample), never by the batch shape: asking
// for fewer samples must reproduce a bit-identical prefix of the larger
// request, with the tree regrouping branches under both shapes.
TEST_P(DecodeTreeProperty, SampleCountPrefixInvariance) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const auto source :
       {core::StatusSource::kOracle, core::StatusSource::kPitModel}) {
    auto f = make(source);
    f.set_decode_mode(core::DecodeMode::kTree);
    util::Rng big_rng(seed);
    const auto big = f.forecast(*race_, 52, 4, 9, big_rng);
    util::Rng small_rng(seed);
    const auto small = f.forecast(*race_, 52, 4, 4, small_rng);
    ASSERT_EQ(big.size(), small.size());
    for (const auto& [car, bm] : big) {
      const auto& sm = small.at(car);
      ASSERT_EQ(sm.rows(), 4u);
      for (std::size_t s = 0; s < sm.rows(); ++s) {
        for (std::size_t h = 0; h < sm.cols(); ++h) {
          ASSERT_EQ(bm(s, h), sm(s, h))
              << "car " << car << " sample " << s << " lap " << h;
        }
      }
    }
  }
}

// Branch discovery happens per partition call: splitting the car set into
// random pieces (and visiting them in random order) regroups every branch,
// yet each car's bytes must match the single full-set call.
TEST_P(DecodeTreeProperty, PartitionCompositionInvariance) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng shuffle_rng(seed * 31 + 7);
  for (const auto source :
       {core::StatusSource::kOracle, core::StatusSource::kPitModel}) {
    auto f = make(source);
    f.set_decode_mode(core::DecodeMode::kTree);
    f.prepare(*race_);
    const auto cars = f.forecast_cars(*race_, 55);
    ASSERT_GT(cars.size(), 3u);
    const std::uint64_t base = shuffle_rng();
    const auto full =
        f.forecast_partition(*race_, 55, 3, 6, base, cars);

    // Random composition: cut the (shuffled) car list into 2-4 pieces.
    std::vector<int> shuffled = cars;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[shuffle_rng() % i]);
    }
    const std::size_t pieces = 2 + shuffle_rng() % 3;
    std::vector<std::vector<int>> parts(pieces);
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      parts[i % pieces].push_back(shuffled[i]);
    }
    core::RaceSamples merged;
    for (const auto& part : parts) {
      merged = merge({merged, f.forecast_partition(*race_, 55, 3, 6, base,
                                                   part)});
    }
    ASSERT_EQ(merged.size(), full.size());
    for (const auto& [car, m] : full) {
      EXPECT_TRUE(bits_equal(m, merged.at(car)))
          << status_source_name(source) << " car " << car;
    }
  }
}

// Cache hits must replay cold bytes under any interleaving of requests and
// thread counts: several engines share one cache, requests arrive in a
// randomized order with repeats, every repeat must equal its first compute.
TEST_P(DecodeTreeProperty, CacheHitsMatchColdUnderRandomInterleavings) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto f = make(core::StatusSource::kOracle);
  f.set_decode_mode(core::DecodeMode::kTree);
  auto cache = std::make_shared<core::ForecastCache>(16);
  std::vector<std::unique_ptr<core::ParallelForecastEngine>> engines;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    engines.push_back(
        std::make_unique<core::ParallelForecastEngine>(f, threads));
    engines.back()->set_forecast_cache(cache);
  }

  struct Request {
    int origin;
    std::uint64_t rng_seed;
  };
  const Request kRequests[] = {{50, 1}, {50, 2}, {55, 1}, {60, 3}};
  // Each request three times, randomly interleaved, on random engines.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < std::size(kRequests); ++i) {
    order.insert(order.end(), 3, i);
  }
  util::Rng shuffle_rng(seed * 101 + 13);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle_rng() % i]);
  }

  std::map<std::size_t, core::RaceSamples> first_seen;
  for (const std::size_t i : order) {
    auto& engine = *engines[shuffle_rng() % engines.size()];
    util::Rng rng(kRequests[i].rng_seed);
    auto out = engine.forecast(*race_, kRequests[i].origin, 3, 5, rng);
    const auto it = first_seen.find(i);
    if (it == first_seen.end()) {
      first_seen.emplace(i, std::move(out));
      continue;
    }
    ASSERT_EQ(out.size(), it->second.size());
    for (const auto& [car, m] : it->second) {
      EXPECT_TRUE(bits_equal(m, out.at(car)))
          << "request " << i << " car " << car;
    }
  }
  // Every repeat after the first compute of a request must have hit.
  EXPECT_LE(cache->size(), std::size(kRequests));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeTreeProperty,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Dataset determinism: the same spec and seed always produce the same race.
TEST(Determinism, SimulateRaceIsAFunctionOfSpecAndSeed) {
  const sim::RaceSpec spec{"Texas", 2018, 248, sim::Usage::kTest};
  const auto a = sim::simulate_race(spec, 777);
  const auto b = sim::simulate_race(spec, 777);
  const auto c = sim::simulate_race(spec, 778);
  EXPECT_EQ(a.num_records(), b.num_records());
  EXPECT_EQ(a.to_csv().to_string(), b.to_csv().to_string());
  EXPECT_NE(a.to_csv().to_string(), c.to_csv().to_string());
}

}  // namespace
