// Golden-trajectory regression test.
//
// A fixed-seed simulated race is forecast by RankNet (oracle status) and
// two baselines (CurRank, ARIMA); the per-car median trajectories are
// compared against CSVs committed under tests/golden/. Any change to the
// simulator, feature pipeline, model initialization, rng stream layout, or
// sampling path shows up here as a concrete numeric diff — which is the
// point: refactors like the parallel engine must NOT move these numbers.
//
// Regenerate (after an intentional behavior change) with:
//   RANKNET_UPDATE_GOLDEN=1 ./tests/test_golden_regression
// and commit the rewritten CSVs alongside the change that explains them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/ranknet.hpp"
#include "core/registry.hpp"
#include "simulator/season.hpp"
#include "tensor/simd_kernels.hpp"
#include "util/fnv1a.hpp"

namespace {

using namespace ranknet;

#ifndef RANKNET_GOLDEN_DIR
#error "RANKNET_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

constexpr std::uint64_t kSeed = 2468;
constexpr int kHorizon = 5;
constexpr int kNumSamples = 32;
const std::vector<int> kOrigins{40, 90, 140};

// rows keyed (origin, car_id) -> median predicted rank per horizon lap.
using Trajectories = std::map<std::pair<int, int>, std::vector<double>>;

Trajectories median_trajectories(core::RaceForecaster& forecaster,
                                 const telemetry::RaceLog& race) {
  Trajectories out;
  util::Rng rng(kSeed);
  for (const int origin : kOrigins) {
    const auto ranks = core::sort_to_ranks(
        forecaster.forecast(race, origin, kHorizon, kNumSamples, rng));
    for (const auto& [car_id, m] : ranks) {
      std::vector<double> med(m.cols());
      for (std::size_t h = 0; h < m.cols(); ++h) {
        med[h] = core::sample_quantile(m, h, 0.5);
      }
      out.emplace(std::make_pair(origin, car_id), std::move(med));
    }
  }
  return out;
}

std::string golden_path(const std::string& model) {
  return std::string(RANKNET_GOLDEN_DIR) + "/" + model + "_median.csv";
}

void write_golden(const std::string& model, const Trajectories& t) {
  std::ofstream out(golden_path(model));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(model);
  out << "origin,car_id";
  for (int h = 1; h <= kHorizon; ++h) out << ",h" << h;
  out << "\n";
  char buf[64];
  for (const auto& [key, med] : t) {
    out << key.first << "," << key.second;
    for (const double v : med) {
      // %.17g round-trips doubles exactly; the comparison tolerance below
      // exists only to absorb decimal parsing, not computation drift.
      std::snprintf(buf, sizeof(buf), ",%.17g", v);
      out << buf;
    }
    out << "\n";
  }
}

Trajectories read_golden(const std::string& model) {
  Trajectories t;
  std::ifstream in(golden_path(model));
  if (!in.good()) return t;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    std::getline(row, cell, ',');
    const int origin = std::stoi(cell);
    std::getline(row, cell, ',');
    const int car_id = std::stoi(cell);
    std::vector<double> med;
    while (std::getline(row, cell, ',')) med.push_back(std::stod(cell));
    t.emplace(std::make_pair(origin, car_id), std::move(med));
  }
  return t;
}

void check_against_golden(const std::string& model,
                          core::RaceForecaster& forecaster,
                          const telemetry::RaceLog& race) {
  const auto actual = median_trajectories(forecaster, race);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("RANKNET_UPDATE_GOLDEN") != nullptr) {
    write_golden(model, actual);
    GTEST_SKIP() << "rewrote " << golden_path(model);
  }

  const auto expected = read_golden(model);
  ASSERT_FALSE(expected.empty())
      << golden_path(model)
      << " missing — generate with RANKNET_UPDATE_GOLDEN=1";
  ASSERT_EQ(actual.size(), expected.size()) << model << " row set changed";
  for (const auto& [key, med] : actual) {
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end())
        << model << " new row origin=" << key.first << " car=" << key.second;
    ASSERT_EQ(med.size(), it->second.size());
    for (std::size_t h = 0; h < med.size(); ++h) {
      EXPECT_NEAR(med[h], it->second[h], 1e-9)
          << model << " origin=" << key.first << " car=" << key.second
          << " h=" << h + 1;
    }
  }
}

class GoldenRegression : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(
        sim::simulate_race({"Indy500", 2019, 200, sim::Usage::kTest}));
    vocab_ = new features::CarVocab({*race_});
  }
  static void TearDownTestSuite() {
    delete vocab_;
    delete race_;
  }
  // Goldens are pinned to the scalar reference variant (see DESIGN.md,
  // "Golden-file policy"): the scalar kernels are byte-frozen, so these
  // CSVs stay valid no matter which SIMD variant the host CPU or a
  // RANKNET_KERNEL override would otherwise select. Regenerate with the
  // same pin in place.
  void SetUp() override {
    saved_ = tensor::kernels::active_variant();
    ASSERT_TRUE(
        tensor::kernels::set_variant(tensor::kernels::Variant::kScalar).ok());
  }
  void TearDown() override {
    ASSERT_TRUE(tensor::kernels::set_variant(saved_).ok());
  }
  tensor::kernels::Variant saved_ = tensor::kernels::Variant::kScalar;
  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
};
telemetry::RaceLog* GoldenRegression::race_ = nullptr;
features::CarVocab* GoldenRegression::vocab_ = nullptr;

TEST_F(GoldenRegression, RankNetMedianTrajectories) {
  core::SeqModelConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.hidden = 8;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  auto model = std::make_shared<core::LstmSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  core::RankNetForecaster f(model, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "RankNet");
  check_against_golden("ranknet", f, *race_);
}

TEST_F(GoldenRegression, CurRankMedianTrajectories) {
  core::CurRankForecaster f;
  check_against_golden("currank", f, *race_);
}

TEST_F(GoldenRegression, ArimaMedianTrajectories) {
  core::ArimaForecaster f;
  check_against_golden("arima", f, *race_);
}

// ---- covariate-layout pins ---------------------------------------------
// The training batches and the Transformer decode have no CSV golden, and a
// refactor of how covariate rows are laid out or read must leave them where
// they were. A batch is pure data movement, so it is pinned by an FNV-1a
// digest of its bytes. The Transformer's layer norm and attention run
// outside the dispatched kernels, under the build's own floating-point
// contraction, so their bytes differ between the release and sanitizer
// builds by rounding; its forecasts are pinned by two order-sensitive sums
// compared at the goldens' 1e-9, which a misread covariate row moves by
// whole ranks.

void digest_doubles(util::Fnv1a& h, const double* data, std::size_t n) {
  h.update_bytes(data, n * sizeof(double));
}

std::uint64_t batch_digest(const core::LstmSeqModel::Batch& b) {
  util::Fnv1a h;
  h.update_u64(b.batch);
  h.update_u64(b.dec_len);
  for (const auto& x : b.xs_base) digest_doubles(h, x.data(), x.size());
  digest_doubles(h, b.z_dec.data(), b.z_dec.size());
  digest_doubles(h, b.weights.data(), b.weights.size());
  h.update_bytes(b.car_index.data(), b.car_index.size() * sizeof(int));
  return h.digest();
}

/// Every sample value of some forecasts, cars in id order and each car's
/// samples row by row: their count, sum and sum weighted by position.
struct ValueSums {
  std::size_t count = 0;
  double sum = 0.0;
  double weighted = 0.0;
  void add(const core::RaceSamples& samples) {
    for (const auto& [car_id, m] : samples) {
      for (const double v : m.flat()) {
        ++count;
        sum += v;
        weighted += static_cast<double>(count) * v;
      }
    }
  }
};

TEST_F(GoldenRegression, TrainingBatchBytes) {
  // Every training window of the race, packed as one batch, for each
  // canonical window configuration: RankNet (9 covariates), DeepAR (none)
  // and Joint (3-dim target whose aux dims come from the window rows).
  struct Case {
    const char* name;
    features::WindowConfig wcfg;
    std::size_t cov_dim;
    std::size_t target_dim;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"ranknet", core::ModelZoo::ranknet_window_config(), 9, 1,
       0x6961dd48b7b3093aULL},
      {"deepar", core::ModelZoo::deepar_window_config(), 0, 1,
       0x0e47278c42d07f74ULL},
      {"joint", core::ModelZoo::joint_window_config(), 0, 3,
       0x9aad9f3f3659c790ULL},
  };
  for (const auto& c : cases) {
    const auto windows = features::build_windows({*race_}, *vocab_, c.wcfg);
    ASSERT_GT(windows.size(), 1000u) << c.name;
    std::vector<const features::SeqExample*> ptrs;
    for (const auto& w : windows) ptrs.push_back(&w);
    core::SeqModelConfig cfg;
    cfg.cov_dim = c.cov_dim;
    cfg.target_dim = c.target_dim;
    cfg.hidden = 8;
    cfg.vocab = vocab_->size();
    core::LstmSeqModel model(cfg);
    model.set_scaler(features::StandardScaler(17.0, 9.0));
    const auto batch = model.make_batch(
        ptrs, static_cast<std::size_t>(c.wcfg.decoder_length));
    EXPECT_EQ(batch_digest(batch), c.digest)
        << c.name << ": 0x" << std::hex << batch_digest(batch);
  }
}

TEST_F(GoldenRegression, TransformerForecastValues) {
  // A ragged 40-lap field: one car withdrawn after lap 21, one stopped
  // after lap 2 (too short to forecast). At origin 18 the 6-lap horizon
  // runs past the withdrawn car's log, so the Oracle decode reads zero rows
  // there; at origin 8 the context is shorter than infer_context.
  const auto ids = race_->car_ids();
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race_->records()) {
    if (rec.lap > 40) continue;
    if (rec.car_id == ids[0] && rec.lap > 21) continue;
    if (rec.car_id == ids[1] && rec.lap > 2) continue;
    records.push_back(rec);
  }
  const telemetry::RaceLog ragged(race_->info(), std::move(records));

  core::TransformerConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = vocab_->size();
  cfg.infer_context = 12;
  auto model = std::make_shared<core::TransformerSeqModel>(cfg);
  model->set_scaler(features::StandardScaler(17.0, 9.0));
  // Untrained, with stints of about two laps: sampled pit stops land
  // inside the horizon, so the realization differs between samples.
  auto pit = std::make_shared<core::PitModel>();
  pit->set_scaler(features::StandardScaler(2.0, 1.0));

  struct Case {
    core::StatusSource source;
    ValueSums want;
  };
  const Case cases[] = {
      {core::StatusSource::kOracle,
       {2976, 79768.751192702563, 109740173.93051031}},
      {core::StatusSource::kPitModel,
       {2976, 71586.800430800344, 104897419.73500447}},
  };
  for (const auto& c : cases) {
    core::TransformerForecaster f(model, pit, *vocab_,
                                  features::CovariateConfig{}, c.source, "tf");
    util::Rng rng(kSeed);
    ValueSums got;
    for (const int origin : {8, 18}) {
      const auto samples = f.forecast(ragged, origin, 6, 8, rng);
      ASSERT_EQ(samples.count(ids[0]), 1u);
      ASSERT_EQ(samples.count(ids[1]), 0u);
      got.add(samples);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu, %.17g, %.17g", got.count, got.sum,
                  got.weighted);
    const char* name = core::status_source_name(c.source);
    EXPECT_EQ(got.count, c.want.count) << name << ": " << buf;
    EXPECT_NEAR(got.sum, c.want.sum, 1e-9 * c.want.sum) << name << ": " << buf;
    EXPECT_NEAR(got.weighted, c.want.weighted, 1e-9 * c.want.weighted)
        << name << ": " << buf;
  }
}

}  // namespace
