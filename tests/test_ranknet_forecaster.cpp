// Forecaster-level tests of RankNetForecaster / TransformerForecaster using
// tiny untrained models (fast): shape contracts, determinism for a fixed
// seed, cache behavior, status-source differences, the windowed status
// realization, the per-forecast status context under partitioning and
// concurrency, and forecasts from checkpointed encoder traces against
// full ones (the ForecastContext suite also runs under the `fleet` label,
// so the fleet-tsan preset vets it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <map>
#include <span>

#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "core/status_forecast.hpp"
#include "obs/metrics.hpp"
#include "simulator/season.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ranknet;

class ForecasterContract : public ::testing::Test {
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

  /// An untrained one-block Transformer with a 12-lap inference context.
  static std::shared_ptr<core::TransformerSeqModel> TinyTransformer() {
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
    return tf;
  }

  static telemetry::RaceLog* race_;
  static features::CarVocab* vocab_;
  static std::shared_ptr<core::LstmSeqModel> model_;
  static std::shared_ptr<core::PitModel> pit_;
};
telemetry::RaceLog* ForecasterContract::race_ = nullptr;
features::CarVocab* ForecasterContract::vocab_ = nullptr;
std::shared_ptr<core::LstmSeqModel> ForecasterContract::model_;
std::shared_ptr<core::PitModel> ForecasterContract::pit_;

bool BitsEqual(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every car present in both, with byte-identical samples.
bool SamplesIdentical(const core::RaceSamples& a, const core::RaceSamples& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [car_id, m] : a) {
    const auto it = b.find(car_id);
    if (it == b.end() || !BitsEqual(m, it->second)) return false;
  }
  return true;
}

/// An untrained PitModel whose sampled stints last about two laps, so the
/// sampled status futures differ between samples, keys and fields (the
/// fixture's model rarely pits inside a short horizon).
std::shared_ptr<const core::PitModel> PitsEveryFewLaps() {
  static const auto pit = [] {
    auto p = std::make_shared<core::PitModel>();
    p->set_scaler(features::StandardScaler(2.0, 1.0));
    return p;
  }();
  return pit;
}

/// The first `laps` laps of a race, under the same race id.
telemetry::RaceLog LapPrefix(const telemetry::RaceLog& race, int laps) {
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race.records()) {
    if (rec.lap <= laps) records.push_back(rec);
  }
  return telemetry::RaceLog(race.info(), std::move(records));
}

/// A ragged 40-lap field: the first 40 laps of `race`, with one car
/// withdrawn after lap 21 and one stopped after lap 2 (too short to trace).
telemetry::RaceLog RaggedPrefix(const telemetry::RaceLog& race) {
  const auto ids = race.car_ids();
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race.records()) {
    if (rec.lap > 40) continue;
    if (rec.car_id == ids[0] && rec.lap > 21) continue;
    if (rec.car_id == ids[1] && rec.lap > 2) continue;
    records.push_back(rec);
  }
  return telemetry::RaceLog(race.info(), std::move(records));
}

/// The decode of a RankNetForecaster rebuilt from each car's full
/// trace_flat through public calls only: the spec the checkpointed race
/// cache and the in-place decode must meet bit for bit. Without a pit model
/// it decodes a ground-truth source (Oracle, Joint, DeepAR); with one, the
/// PitModel source: sample s's status rows come from a StatusSampler over
/// the whole field drawing from Rng::stream(base, s, 0), the encoder tail
/// is replayed with advance() and every row decodes independently.
class FullTraceReference {
 public:
  FullTraceReference(std::shared_ptr<const core::LstmSeqModel> model,
                     const telemetry::RaceLog& race,
                     const features::CarVocab& vocab,
                     features::CovariateConfig config,
                     std::shared_ptr<const core::PitModel> pit = nullptr)
      : model_(std::move(model)), config_(config), pit_(std::move(pit)) {
    for (const int car_id : race.car_ids()) {
      if (race.car(car_id).laps() < 3) continue;
      Car car;
      car.index = vocab.index(car_id);
      car.history = race.car(car_id).rank;
      car.streams = features::StatusStreams::from_race(race, car_id);
      const auto rows = features::build_covariates(car.streams, config_);
      car.trace = model_->trace_flat(car.history, rows, car.index);
      for (const auto& row : rows) {
        car.covariates.insert(car.covariates.end(), row.begin(), row.end());
      }
      cars_.emplace(car_id, std::move(car));
    }
  }

  core::RaceSamples decode(int origin_lap, int horizon, int samples,
                           std::uint64_t base,
                           std::span<const int> cars) const {
    const auto origin = static_cast<std::size_t>(origin_lap);
    const auto h_count = static_cast<std::size_t>(horizon);
    const auto s_count = static_cast<std::size_t>(samples);
    const std::size_t step = model_->trace_step_size();
    const std::size_t td = model_->config().target_dim;
    const std::size_t dim = config_.dim();
    const std::size_t tail =
        pit_ != nullptr && config_.shift_features
            ? std::min<std::size_t>(static_cast<std::size_t>(config_.shift),
                                    origin - 2)
            : 0;

    // Sample s's status rows of laps origin - tail + 1 .. origin + horizon
    // for every car of the field, in field order.
    std::vector<int> field;
    std::vector<double> status;
    std::size_t status_size = 0;
    if (pit_ != nullptr) {
      std::vector<core::StatusSampler::Car> sampler_cars;
      for (const auto& [car_id, car] : cars_) {
        if (car.history.size() < origin) continue;
        field.push_back(car_id);
        sampler_cars.push_back({&car.streams, car.history[origin - 1]});
      }
      core::StatusSampler sampler(*pit_, config_, sampler_cars, origin,
                                  h_count, origin - tail);
      status_size = sampler.sample_size();
      status.resize(s_count * status_size);
      for (std::size_t s = 0; s < s_count; ++s) {
        util::Rng rng = util::Rng::stream(base, s, 0);
        sampler.sample(rng, std::span<double>(status).subspan(
                                s * status_size, status_size));
      }
    }

    std::vector<std::span<const double>> steps;
    std::vector<std::span<const double>> covs;
    std::vector<double> z;
    std::vector<int> car_index;
    std::vector<util::Rng> row_rngs;
    for (const int car_id : cars) {
      const Car& car = cars_.at(car_id);
      const std::size_t i = static_cast<std::size_t>(
          std::find(field.begin(), field.end(), car_id) - field.begin());
      for (std::size_t s = 0; s < s_count; ++s) {
        steps.push_back(std::span<const double>(car.trace).subspan(
            (origin - 2 - tail) * step, step));
        if (pit_ != nullptr) {
          const std::size_t window = tail + h_count;
          covs.push_back(std::span<const double>(status).subspan(
              s * status_size + i * window * dim, window * dim));
        } else {
          covs.push_back(
              std::span<const double>(car.covariates).subspan(origin * dim));
        }
        z.push_back(car.history[origin - 1]);
        for (std::size_t j = 1; j < td; ++j) {
          z.push_back(j - 1 < dim
                          ? car.covariates[(origin - 1) * dim + j - 1]
                          : 0.0);
        }
        car_index.push_back(car.index);
        row_rngs.push_back(util::Rng::stream(
            base, static_cast<std::uint64_t>(car_id), s + 1));
      }
    }
    auto state = model_->state_from_trace(steps);
    if (tail > 0) {
      // Tail step t replays lap origin - tail + t: z of the lap before.
      std::vector<double> tail_z;
      for (std::size_t t = 0; t < tail; ++t) {
        for (const int car_id : cars) {
          tail_z.insert(tail_z.end(), s_count,
                        cars_.at(car_id).history[origin - tail + t - 1]);
        }
      }
      model_->advance(state, {covs, dim, tail_z, car_index}, tail);
      for (auto& cov : covs) cov = cov.subspan(tail * dim);
    }
    const auto out = model_->sample_forward(
        state, {covs, dim, z, car_index}, horizon, row_rngs);
    core::RaceSamples result;
    for (std::size_t c = 0; c < cars.size(); ++c) {
      tensor::Matrix m(s_count, h_count);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t h = 0; h < m.cols(); ++h) {
          m(r, h) = out(c * m.rows() + r, h);
        }
      }
      result.emplace(cars[c], std::move(m));
    }
    return result;
  }

 private:
  struct Car {
    int index = 0;
    std::vector<double> history;
    features::StatusStreams streams;
    std::vector<double> covariates;  // one row per lap, back to back
    std::vector<double> trace;
  };
  std::shared_ptr<const core::LstmSeqModel> model_;
  features::CovariateConfig config_;
  std::shared_ptr<const core::PitModel> pit_;
  std::map<int, Car> cars_;
};

TEST_F(ForecasterContract, OracleShapesAndDeterminism) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng1(9), rng2(9);
  const auto a = f.forecast(*race_, 50, 3, 7, rng1);
  const auto b = f.forecast(*race_, 50, 3, 7, rng2);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [car_id, m] : a) {
    EXPECT_EQ(m.rows(), 7u);
    EXPECT_EQ(m.cols(), 3u);
    const auto& n = b.at(car_id);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(m.flat()[i], n.flat()[i]);
    }
  }
}

TEST_F(ForecasterContract, PitModelSourceRunsAndDiffersFromOracle) {
  core::RankNetForecaster oracle(model_, nullptr, *vocab_,
                                 features::CovariateConfig{},
                                 core::StatusSource::kOracle, "oracle");
  core::RankNetForecaster mlp(model_, pit_, *vocab_,
                              features::CovariateConfig{},
                              core::StatusSource::kPitModel, "mlp");
  util::Rng rng1(5), rng2(5);
  const auto a = oracle.forecast(*race_, 60, 4, 5, rng1);
  const auto b = mlp.forecast(*race_, 60, 4, 5, rng2);
  ASSERT_EQ(a.size(), b.size());
  // Different covariate futures must (almost surely) change the samples.
  bool differs = false;
  for (const auto& [car_id, m] : a) {
    const auto& n = b.at(car_id);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m.flat()[i] != n.flat()[i]) differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST_F(ForecasterContract, ExcludesRetiredCars) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng(3);
  const int origin = race_->num_laps() - 5;
  const auto samples = f.forecast(*race_, origin, 2, 3, rng);
  for (const auto& [car_id, _] : samples) {
    EXPECT_GE(race_->car(car_id).laps(), static_cast<std::size_t>(origin));
  }
  // At least one car retired before the final laps in a 200-lap race.
  EXPECT_LT(samples.size(), race_->car_ids().size());
}

TEST_F(ForecasterContract, RejectsBadArguments) {
  core::RankNetForecaster f(model_, nullptr, *vocab_,
                            features::CovariateConfig{},
                            core::StatusSource::kOracle, "test");
  util::Rng rng(1);
  EXPECT_THROW(f.forecast(*race_, 1, 2, 4, rng), std::invalid_argument);
  EXPECT_THROW(f.forecast(*race_, 50, 0, 4, rng), std::invalid_argument);
  EXPECT_THROW(f.forecast(*race_, 50, 2, 0, rng), std::invalid_argument);
}

TEST_F(ForecasterContract, PitModelSourceRequiresPitModel) {
  EXPECT_THROW(core::RankNetForecaster(model_, nullptr, *vocab_,
                                       features::CovariateConfig{},
                                       core::StatusSource::kPitModel, "bad"),
               std::invalid_argument);
}

TEST_F(ForecasterContract, TransformerForecasterContract) {
  const auto tf = TinyTransformer();
  core::TransformerForecaster f(tf, nullptr, *vocab_,
                                features::CovariateConfig{},
                                core::StatusSource::kOracle, "tf");
  util::Rng rng(4);
  const auto samples = f.forecast(*race_, 40, 2, 3, rng);
  ASSERT_FALSE(samples.empty());
  for (const auto& [_, m] : samples) {
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    for (double v : m.flat()) {
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 45.0);
    }
  }
  // Joint source is documented as LSTM-only.
  EXPECT_THROW(core::TransformerForecaster(tf, nullptr, *vocab_,
                                           features::CovariateConfig{},
                                           core::StatusSource::kJoint, "x"),
               std::invalid_argument);
}

TEST_F(ForecasterContract, RaceCacheFollowsALongerLogUnderTheSameId) {
  // A live race reloaded with more laps keeps its id; the per-race caches
  // must not keep serving the shorter log's traces (or, under the PitModel,
  // a status realization drawn over it).
  const auto prefix = LapPrefix(*race_, 50);
  ASSERT_EQ(prefix.id(), race_->id());
  const auto mlp = [&] {
    return std::make_unique<core::RankNetForecaster>(
        model_, PitsEveryFewLaps(), *vocab_, features::CovariateConfig{},
        core::StatusSource::kPitModel, "mlp");
  };
  const auto reused = mlp();
  util::Rng warm(11);
  ASSERT_FALSE(reused->forecast(prefix, 40, 2, 4, warm).empty());

  util::Rng rng_a(12), rng_b(12);
  const auto late = reused->forecast(*race_, 100, 2, 4, rng_a);
  const auto fresh = mlp()->forecast(*race_, 100, 2, 4, rng_b);
  EXPECT_EQ(fresh.size(), 31u);
  EXPECT_TRUE(SamplesIdentical(late, fresh));

  // The same forecast key on a corrected log (one car withdrawn): the
  // status context drawn over the old field must not carry over.
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race_->records()) {
    if (rec.car_id != race_->car_ids().front()) records.push_back(rec);
  }
  const telemetry::RaceLog corrected(race_->info(), std::move(records));
  util::Rng rng_c(13), rng_d(13), rng_e(13);
  (void)reused->forecast(*race_, 60, 2, 4, rng_c);
  const auto again = reused->forecast(corrected, 60, 2, 4, rng_d);
  EXPECT_TRUE(
      SamplesIdentical(again, mlp()->forecast(corrected, 60, 2, 4, rng_e)));

  const auto tf = TinyTransformer();
  const auto transformer = [&] {
    return std::make_unique<core::TransformerForecaster>(
        tf, pit_, *vocab_, features::CovariateConfig{},
        core::StatusSource::kPitModel, "tf");
  };
  const auto tf_reused = transformer();
  util::Rng tf_warm(14);
  ASSERT_FALSE(tf_reused->forecast(prefix, 40, 2, 3, tf_warm).empty());
  util::Rng tf_a(15), tf_b(15);
  const auto tf_late = tf_reused->forecast(*race_, 100, 2, 3, tf_a);
  const auto tf_fresh = transformer()->forecast(*race_, 100, 2, 3, tf_b);
  EXPECT_EQ(tf_fresh.size(), 31u);
  EXPECT_TRUE(SamplesIdentical(tf_late, tf_fresh));
}

TEST_F(ForecasterContract, RaceCacheFollowsACorrectedLogUnderTheSameId) {
  // A late record that corrects laps already seen — here one car's rank on
  // laps 30-59 — keeps the race id, the car count and the record count.
  // The per-race caches key on content, so the corrected log must decode
  // from its own traces, not the original's.
  const int car = race_->car_ids()[1];
  auto records = race_->records();
  for (auto& rec : records) {
    if (rec.car_id == car && rec.lap >= 30 && rec.lap <= 59) {
      rec.rank = rec.rank == 1 ? 2 : rec.rank - 1;
    }
  }
  const telemetry::RaceLog corrected(race_->info(), std::move(records));
  ASSERT_EQ(corrected.id(), race_->id());
  ASSERT_EQ(corrected.num_records(), race_->num_records());
  ASSERT_NE(corrected.digest(), race_->digest());

  const auto mlp = [&] {
    return std::make_unique<core::RankNetForecaster>(
        model_, PitsEveryFewLaps(), *vocab_, features::CovariateConfig{},
        core::StatusSource::kPitModel, "mlp");
  };
  const auto reused = mlp();
  util::Rng warm(21), rng_a(21), rng_b(21);
  ASSERT_FALSE(reused->forecast(*race_, 60, 2, 4, warm).empty());
  const auto again = reused->forecast(corrected, 60, 2, 4, rng_a);
  EXPECT_TRUE(
      SamplesIdentical(again, mlp()->forecast(corrected, 60, 2, 4, rng_b)));

  const auto tf = TinyTransformer();
  const auto transformer = [&] {
    return std::make_unique<core::TransformerForecaster>(
        tf, pit_, *vocab_, features::CovariateConfig{},
        core::StatusSource::kPitModel, "tf");
  };
  const auto tf_reused = transformer();
  util::Rng tf_warm(22), tf_a(22), tf_b(22);
  ASSERT_FALSE(tf_reused->forecast(*race_, 60, 2, 3, tf_warm).empty());
  const auto tf_again = tf_reused->forecast(corrected, 60, 2, 3, tf_a);
  EXPECT_TRUE(SamplesIdentical(
      tf_again, transformer()->forecast(corrected, 60, 2, 3, tf_b)));
}

TEST_F(ForecasterContract, TraceBytesGaugeFollowsTheHeldTraces) {
  // ranknet.trace_bytes counts the checkpointed encoder state every live
  // instance holds: 1 step in 4 per car, so ((laps - 2) / 4 + 1) steps.
  auto& reg = obs::Registry::instance();
  const auto& gauge = reg.gauge("ranknet.trace_bytes");
  const auto& replays = reg.counter("ranknet.replay_steps");
  const auto held = [&](const telemetry::RaceLog& race) {
    double bytes = 0.0;
    for (const int car_id : race.car_ids()) {
      const std::size_t laps = race.car(car_id).laps();
      if (laps < 3) continue;
      bytes += static_cast<double>(((laps - 2) / 4 + 1) *
                                   model_->trace_step_size() * sizeof(double));
    }
    return bytes;
  };
  const double start = gauge.value();
  const auto prefix = LapPrefix(*race_, 50);
  {
    core::RankNetForecaster f(model_, nullptr, *vocab_,
                              features::CovariateConfig{},
                              core::StatusSource::kOracle, "oracle");
    f.prepare(prefix);
    EXPECT_EQ(gauge.value(), start + held(prefix));
    f.prepare(*race_);  // replaces the shorter log under the same id
    EXPECT_EQ(gauge.value(), start + held(*race_));
    f.clear_cache();
    EXPECT_EQ(gauge.value(), start);

    // Origin 12 starts the decode at trace step 10 = checkpoint 8 + 2.
    const auto before = replays.value();
    util::Rng rng(3);
    const auto samples = f.forecast(*race_, 12, 2, 3, rng);
    EXPECT_EQ(replays.value() - before, 2 * samples.size());
    EXPECT_EQ(gauge.value(), start + held(*race_));
  }
  EXPECT_EQ(gauge.value(), start);
}

/// The status streams and origin ranks of the cars that reach `origin`,
/// as a StatusSampler takes them.
struct SamplerField {
  std::map<int, features::StatusStreams> streams;
  std::vector<core::StatusSampler::Car> cars;  // ascending car id

  SamplerField(const telemetry::RaceLog& race, std::size_t origin) {
    for (int car_id : race.car_ids()) {
      const auto& car = race.car(car_id);
      if (car.laps() < origin) continue;
      streams[car_id] = features::StatusStreams::from_race(race, car_id);
    }
    for (const auto& [car_id, s] : streams) {
      cars.push_back({&s, race.car(car_id).rank[origin - 1]});
    }
  }
};

bool RowBitsEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The covariate configs and origins the status-realization tests run.
std::vector<features::CovariateConfig> StatusConfigs() {
  features::CovariateConfig no_shift;
  no_shift.shift_features = false;
  features::CovariateConfig no_context;
  no_context.context_features = false;
  return {{}, no_shift, no_context};
}
std::vector<int> StatusOrigins(int last) {
  const int shift = features::CovariateConfig{}.shift;
  return {2, 3, shift + 2, last / 2, last};
}

TEST_F(ForecasterContract, StatusSamplerMatchesReference) {
  // Eight samples through one sampler, each row bit for bit against a
  // reference built from the pieces the sampler stands for: per-car
  // PitModel::sample_future_lap_status draws in car order, a naive
  // LeaderPitCount, and build_covariates over the full (lo = 0) window.
  // Pins the draw order, and catches scratch that leaks between samples.
  constexpr int kSamples = 8;
  constexpr std::size_t kHorizon = 2;
  const auto& pit = *PitsEveryFewLaps();  // sampled pits inside the window
  for (const auto& config : StatusConfigs()) {
    const std::size_t future_len =
        kHorizon + static_cast<std::size_t>(config.shift);
    const std::size_t dim = config.dim();
    for (const int origin_lap : StatusOrigins(race_->num_laps())) {
      const auto origin = static_cast<std::size_t>(origin_lap);
      const SamplerField field(*race_, origin);
      const std::size_t n = field.cars.size();
      ASSERT_GT(n, 0u) << "origin " << origin;
      core::StatusSampler sampler(pit, config, field.cars, origin, kHorizon,
                                  0);
      ASSERT_EQ(sampler.rows(), origin + kHorizon);
      std::vector<double> got(sampler.sample_size());
      util::Rng rng(origin), ref_rng(origin);
      for (int s = 0; s < kSamples; ++s) {
        sampler.sample(rng, got);

        std::vector<std::vector<double>> pits;
        for (const auto& car : field.cars) {
          pits.push_back(pit.sample_future_lap_status(
              car.streams->ages_after(origin), static_cast<int>(future_len),
              ref_rng));
        }
        for (std::size_t i = 0; i < n; ++i) {
          const auto& mine = *field.cars[i].streams;
          features::StatusStreams window;
          const auto head = [origin](const std::vector<double>& v) {
            return std::vector<double>(
                v.begin(), v.begin() + static_cast<std::ptrdiff_t>(origin));
          };
          window.track_status = head(mine.track_status);
          window.lap_status = head(mine.lap_status);
          window.total_pit_count = head(mine.total_pit_count);
          window.leader_pit_count = head(mine.leader_pit_count);
          for (std::size_t t = 0; t < future_len; ++t) {
            double total = 0.0, leaders = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
              total += pits[j][t];
              if (j != i && pits[j][t] > 0.5 &&
                  field.cars[j].origin_rank < field.cars[i].origin_rank) {
                leaders += 1.0;
              }
            }
            window.track_status.push_back(0.0);
            window.lap_status.push_back(pits[i][t]);
            window.total_pit_count.push_back(total);
            window.leader_pit_count.push_back(leaders);
          }
          const auto want = features::build_covariates(window, config);
          for (std::size_t k = 0; k < sampler.rows(); ++k) {
            ASSERT_TRUE(RowBitsEqual(
                std::span<const double>(got).subspan(
                    (i * sampler.rows() + k) * dim, dim),
                want[k]))
                << "origin " << origin << " sample " << s << " car " << i
                << " row " << k;
          }
        }
      }
      EXPECT_EQ(rng(), ref_rng());  // the same draws consumed
    }
  }
}

TEST_F(ForecasterContract, WindowedStatusRealizationMatchesFullBuild) {
  // For every first row lo, the windowed sampler writes rows [lo, ...) of
  // the full (lo = 0) build, bit for bit, with the same draws.
  constexpr int kSamples = 2;
  constexpr std::size_t kHorizon = 2;
  const auto& pit = *PitsEveryFewLaps();
  for (const auto& config : StatusConfigs()) {
    const std::size_t dim = config.dim();
    for (const int origin_lap : StatusOrigins(race_->num_laps())) {
      const auto origin = static_cast<std::size_t>(origin_lap);
      const SamplerField field(*race_, origin);
      core::StatusSampler full_sampler(pit, config, field.cars, origin,
                                       kHorizon, 0);
      std::vector<double> full(kSamples * full_sampler.sample_size());
      util::Rng full_rng(origin);
      for (int s = 0; s < kSamples; ++s) {
        full_sampler.sample(
            full_rng, std::span<double>(full).subspan(
                          s * full_sampler.sample_size(),
                          full_sampler.sample_size()));
      }
      for (std::size_t lo = 1; lo <= origin; ++lo) {
        core::StatusSampler sampler(pit, config, field.cars, origin, kHorizon,
                                    lo);
        ASSERT_EQ(sampler.rows(), full_sampler.rows() - lo);
        std::vector<double> got(sampler.sample_size());
        util::Rng rng(origin);
        for (int s = 0; s < kSamples; ++s) {
          sampler.sample(rng, got);
          for (std::size_t i = 0; i < field.cars.size(); ++i) {
            for (std::size_t k = 0; k < sampler.rows(); ++k) {
              const std::size_t want_at =
                  s * full_sampler.sample_size() +
                  (i * full_sampler.rows() + lo + k) * dim;
              ASSERT_TRUE(RowBitsEqual(
                  std::span<const double>(got).subspan(
                      (i * sampler.rows() + k) * dim, dim),
                  std::span<const double>(full).subspan(want_at, dim)))
                  << "origin " << origin << " lo " << lo << " car " << i
                  << " row " << lo + k;
            }
          }
        }
        EXPECT_EQ(rng(), util::Rng(full_rng)());  // same draws consumed
      }
    }
  }
  EXPECT_THROW(core::StatusSampler(pit, {}, {}, 10, 2, 11),
               std::invalid_argument);
}

/// The per-forecast status context of a PitModel RankNetForecaster: every
/// partition of a forecast decodes against one realization, whatever the
/// partition sizes, the order, the other forecasts interleaved on the same
/// instance, or the threads involved.
class ForecastContext : public ForecasterContract {
 protected:
  struct Key {
    int origin;
    int horizon;
    std::uint64_t base;
  };
  static constexpr int kSamples = 5;

  /// Six keys that differ in base, origin or horizon from the first: more
  /// than the instance keeps contexts for, so interleaving them also evicts.
  static std::vector<Key> Keys() {
    return {{60, 3, 101}, {60, 3, 202}, {90, 3, 101},
            {60, 5, 101}, {3, 2, 303},  {200, 4, 404}};
  }

  std::unique_ptr<core::RankNetForecaster> Make(
      features::CovariateConfig config = {}) const {
    return std::make_unique<core::RankNetForecaster>(
        model_, PitsEveryFewLaps(), *vocab_, config,
        core::StatusSource::kPitModel, "mlp");
  }

  /// Whole-field forecast_partition of each key on a fresh instance.
  std::vector<core::RaceSamples> Reference(
      features::CovariateConfig config = {}) const {
    std::vector<core::RaceSamples> out;
    for (const auto& key : Keys()) {
      auto fresh = Make(config);
      fresh->prepare(*race_);
      const auto cars = fresh->forecast_cars(*race_, key.origin);
      out.push_back(fresh->forecast_partition(*race_, key.origin, key.horizon,
                                              kSamples, key.base, cars));
      EXPECT_FALSE(out.back().empty());
    }
    return out;
  }
};

TEST_F(ForecastContext, InterleavedPartitionsMatchFreshWholeField) {
  features::CovariateConfig no_shift;  // tail = 0: no encoder-tail replay
  no_shift.shift_features = false;
  for (const auto& config : {features::CovariateConfig{}, no_shift}) {
    const auto keys = Keys();
    const auto reference = Reference(config);
    const auto shared = Make(config);
    shared->prepare(*race_);
    for (const std::size_t size : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
      // Round-robin: one partition of each key in turn, so partitions of
      // one forecast are separated by partitions of every other forecast.
      std::vector<std::vector<int>> cars(keys.size());
      std::vector<core::RaceSamples> got(keys.size());
      std::size_t rounds = 0;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        cars[k] = shared->forecast_cars(*race_, keys[k].origin);
        rounds = std::max(rounds, (cars[k].size() + size - 1) / size);
      }
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const std::size_t begin = round * size;
          if (begin >= cars[k].size()) continue;
          const std::size_t n = std::min(size, cars[k].size() - begin);
          auto part = shared->forecast_partition(
              *race_, keys[k].origin, keys[k].horizon, kSamples, keys[k].base,
              std::span<const int>(cars[k].data() + begin, n));
          got[k].merge(part);
        }
      }
      for (std::size_t k = 0; k < keys.size(); ++k) {
        EXPECT_TRUE(SamplesIdentical(got[k], reference[k]))
            << "key " << k << " partition size " << size << " shift "
            << config.shift_features;
      }
    }
  }
}

TEST_F(ForecastContext, EngineThreadsAndConcurrentCallersMatchFreshWholeField) {
  const auto keys = Keys();
  const auto shared = Make();
  const auto reference = Reference();
  shared->prepare(*race_);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{4},
                                   std::size_t{64}}) {
      core::ParallelForecastEngine engine(*shared, threads, size);
      // Twice over, so the second pass can also hit the kept contexts.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const auto out =
              engine.forecast_with_base(*race_, keys[k].origin,
                                        keys[k].horizon, kSamples,
                                        keys[k].base);
          EXPECT_TRUE(SamplesIdentical(out, reference[k]))
              << "key " << k << " threads " << threads << " size " << size;
        }
      }
    }
  }

  // Concurrent callers on one instance: each walks the keys from its own
  // offset in single-car partitions, so fills and reads of the same and of
  // different contexts overlap.
  std::vector<std::vector<int>> cars;
  for (const auto& key : keys) {
    cars.push_back(shared->forecast_cars(*race_, key.origin));
  }
  util::ThreadPool pool(4);
  std::vector<std::future<bool>> callers;
  for (std::size_t offset = 0; offset < 4; ++offset) {
    callers.push_back(pool.submit([&, offset] {
      bool ok = true;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t k = (offset + i) % keys.size();
        core::RaceSamples got;
        for (const int car : cars[k]) {
          auto part = shared->forecast_partition(
              *race_, keys[k].origin, keys[k].horizon, kSamples, keys[k].base,
              std::span<const int>(&car, 1));
          got.merge(part);
        }
        ok = ok && SamplesIdentical(got, reference[k]);
      }
      return ok;
    }));
  }
  for (auto& caller : callers) EXPECT_TRUE(caller.get());
}

TEST_F(ForecastContext, CheckpointReplayMatchesFullTraceAtEveryOrigin) {
  // Every origin of a ragged 40-lap race, so forecasts start on, just
  // before and just after each kept trace step. The Oracle and PitModel
  // decodes (the PitModel tail replay starts two steps earlier), tree and
  // independent alike, equal a reference decoded from the full batch-1
  // traces. Each origin is forecast on the log and then on a corrected
  // copy under the same id, so a step replayed over one log must not be
  // read for the other.
  const auto ragged = RaggedPrefix(*race_);
  auto records = ragged.records();
  for (auto& rec : records) {
    if (rec.car_id == ragged.car_ids()[2] && rec.lap >= 5 && rec.lap <= 30) {
      rec.rank = rec.rank == 1 ? 2 : rec.rank - 1;
    }
  }
  const telemetry::RaceLog corrected(ragged.info(), std::move(records));
  ASSERT_NE(corrected.digest(), ragged.digest());
  core::RankNetForecaster oracle(model_, nullptr, *vocab_,
                                 features::CovariateConfig{},
                                 core::StatusSource::kOracle, "oracle");
  const FullTraceReference ragged_reference(model_, ragged, *vocab_,
                                            features::CovariateConfig{});
  const FullTraceReference corrected_reference(model_, corrected, *vocab_,
                                               features::CovariateConfig{});
  const FullTraceReference ragged_pit_reference(
      model_, ragged, *vocab_, features::CovariateConfig{}, PitsEveryFewLaps());
  const FullTraceReference corrected_pit_reference(
      model_, corrected, *vocab_, features::CovariateConfig{},
      PitsEveryFewLaps());
  const auto tree = Make();
  tree->set_decode_mode(core::DecodeMode::kTree);
  const auto independent = Make();
  independent->set_decode_mode(core::DecodeMode::kIndependent);
  constexpr int kHorizon = 3;
  for (int origin = 2; origin <= ragged.num_laps(); ++origin) {
    const auto base = static_cast<std::uint64_t>(500 + origin);
    for (const auto* log : {&ragged, &corrected}) {
      const auto& reference =
          log == &ragged ? ragged_reference : corrected_reference;
      const auto cars = oracle.forecast_cars(*log, origin);
      ASSERT_FALSE(cars.empty());
      const auto want =
          reference.decode(origin, kHorizon, kSamples, base, cars);
      for (const auto mode :
           {core::DecodeMode::kIndependent, core::DecodeMode::kTree}) {
        oracle.set_decode_mode(mode);
        EXPECT_TRUE(SamplesIdentical(
            oracle.forecast_partition(*log, origin, kHorizon, kSamples, base,
                                      cars),
            want))
            << "oracle origin " << origin << " tree "
            << (mode == core::DecodeMode::kTree) << " corrected "
            << (log == &corrected);
      }
      const auto& pit_reference =
          log == &ragged ? ragged_pit_reference : corrected_pit_reference;
      const auto pit_cars = tree->forecast_cars(*log, origin);
      const auto pit_want =
          pit_reference.decode(origin, kHorizon, kSamples, base, pit_cars);
      EXPECT_FALSE(pit_want.empty());
      for (auto* f : {tree.get(), independent.get()}) {
        EXPECT_TRUE(SamplesIdentical(
            f->forecast_partition(*log, origin, kHorizon, kSamples, base,
                                  pit_cars),
            pit_want))
            << "pit model origin " << origin << " tree "
            << (f == tree.get()) << " corrected " << (log == &corrected);
      }
    }
  }
}

TEST_F(ForecastContext, JointAndDeepArMatchAcrossEngineThreads) {
  // Joint's multivariate z replays its aux dims from the covariate rows;
  // DeepAR has no covariates. At every origin of the ragged race, the
  // forecast is the same from one whole-field partition inline and from
  // 3-car partitions on two threads, and equals the full-trace reference.
  const auto ragged = RaggedPrefix(*race_);
  features::CovariateConfig joint;
  joint.age_features = false;
  joint.context_features = false;
  joint.shift_features = false;
  features::CovariateConfig deepar = joint;
  deepar.race_status = false;
  for (const bool is_joint : {true, false}) {
    core::SeqModelConfig cfg = model_->config();
    cfg.cov_dim = 0;
    cfg.target_dim = is_joint ? 3 : 1;
    auto model = std::make_shared<core::LstmSeqModel>(cfg);
    model->set_scaler(features::StandardScaler(17.0, 9.0));
    const auto config = is_joint ? joint : deepar;
    core::RankNetForecaster f(
        model, nullptr, *vocab_, config,
        is_joint ? core::StatusSource::kJoint : core::StatusSource::kOracle,
        is_joint ? "joint" : "deepar");
    const FullTraceReference reference(model, ragged, *vocab_, config);
    core::ParallelForecastEngine inline_engine(f, 0, 64);
    core::ParallelForecastEngine pooled(f, 2, 3);
    for (int origin = 2; origin <= ragged.num_laps(); ++origin) {
      const auto base = static_cast<std::uint64_t>(700 + origin);
      const auto a =
          inline_engine.forecast_with_base(ragged, origin, 2, kSamples, base);
      const auto b = pooled.forecast_with_base(ragged, origin, 2, kSamples,
                                               base);
      EXPECT_FALSE(a.empty());
      EXPECT_TRUE(SamplesIdentical(a, b))
          << (is_joint ? "joint" : "deepar") << " origin " << origin;
      EXPECT_TRUE(SamplesIdentical(
          a, reference.decode(origin, 2, kSamples, base,
                              f.forecast_cars(ragged, origin))))
          << (is_joint ? "joint" : "deepar") << " origin " << origin;
    }
  }
}

}  // namespace
