#include "core/ranknet.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>

#include "core/status_forecast.hpp"
#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace ranknet::core {

const char* status_source_name(StatusSource s) {
  switch (s) {
    case StatusSource::kOracle: return "Oracle";
    case StatusSource::kPitModel: return "PitModel";
    case StatusSource::kJoint: return "Joint";
  }
  return "?";
}

DecodeMode default_decode_mode() {
  static const DecodeMode mode = [] {
    const char* env = std::getenv("RANKNET_DECODE");
    if (env != nullptr && std::string_view(env) == "independent") {
      return DecodeMode::kIndependent;
    }
    return DecodeMode::kTree;
  }();
  return mode;
}

RankNetForecaster::RankNetForecaster(
    std::shared_ptr<const LstmSeqModel> model,
    std::shared_ptr<const PitModel> pit_model, features::CarVocab vocab,
    features::CovariateConfig cov_config, StatusSource source,
    std::string name)
    : model_(std::move(model)),
      pit_model_(std::move(pit_model)),
      vocab_(std::move(vocab)),
      cov_config_(cov_config),
      source_(source),
      name_(std::move(name)) {
  if (source_ == StatusSource::kPitModel && pit_model_ == nullptr) {
    throw std::invalid_argument("RankNetForecaster: PitModel source needs a pit model");
  }
}

namespace {

/// Forecast contexts a RankNetForecaster keeps.
constexpr std::size_t kContextSlots = 4;

/// Cars whose log reaches the forecast origin (their trace then has a state
/// at the origin), ascending.
template <typename RaceCache>
std::vector<int> active_cars(const RaceCache& rc, int origin_lap) {
  std::vector<int> cars;
  for (const auto& [car_id, cc] : rc.cars) {
    if (cc.history.size() >= static_cast<std::size_t>(origin_lap)) {
      cars.push_back(car_id);
    }
  }
  return cars;
}

/// The status sampler's view of `cars`: their streams and origin ranks.
template <typename RaceCache>
std::vector<StatusSampler::Car> sampler_cars(const RaceCache& rc,
                                             std::span<const int> cars,
                                             std::size_t origin) {
  std::vector<StatusSampler::Car> out;
  out.reserve(cars.size());
  for (int car_id : cars) {
    const auto& cc = rc.cars.at(car_id);
    out.push_back({&cc.streams, cc.history[origin - 1]});
  }
  return out;
}

/// Branch-reuse metrics of the shared-prefix decode tree ("decode_tree.*",
/// see DESIGN.md "Decode tree & forecast cache"), resolved once per process.
/// `shared_rows` counts row-steps of LSTM+head work the tree skipped versus
/// independent decode (rows × shared steps − branches × shared steps), so
/// branch reuse is exportable next to the cache hit rate.
struct DecodeTreeMetrics {
  obs::Counter* decodes;
  obs::Counter* rows;
  obs::Counter* branches;
  obs::Counter* shared_rows;
  DecodeTreeMetrics() {
    auto& reg = obs::Registry::instance();
    decodes = &reg.counter("decode_tree.decodes");
    rows = &reg.counter("decode_tree.rows");
    branches = &reg.counter("decode_tree.branches");
    shared_rows = &reg.counter("decode_tree.shared_rows");
  }
};

const DecodeTreeMetrics& decode_tree_metrics() {
  static const DecodeTreeMetrics m;
  return m;
}

}  // namespace

const RankNetForecaster::RaceCache& RankNetForecaster::race_cache(
    const telemetry::RaceLog& race) {
  if (const RaceCache* rc = find_cache(race)) return *rc;

  RaceCache rc;
  rc.digest = race.digest();
  rc.generation = ++generations_;
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    if (car.laps() < 3) continue;
    CarCache cc;
    cc.history = car.rank;
    cc.streams = features::StatusStreams::from_race(race, car_id);
    cc.covariates = features::build_covariates(cc.streams, cov_config_);
    cc.trace = model_->trace_flat(cc.history, cc.covariates,
                                  vocab_.index(car_id));
    if (source_ == StatusSource::kPitModel) cc.covariates = {};
    rc.cars.emplace(car_id, std::move(cc));
  }
  return cache_.insert_or_assign(race.id(), std::move(rc)).first->second;
}

void RankNetForecaster::prepare(const telemetry::RaceLog& race) {
  race_cache(race);
}

void RankNetForecaster::clear_cache() {
  cache_.clear();
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  contexts_.clear();
}

const RankNetForecaster::RaceCache* RankNetForecaster::find_cache(
    const telemetry::RaceLog& race) const {
  const auto it = cache_.find(race.id());
  return it == cache_.end() || it->second.digest != race.digest()
             ? nullptr
             : &it->second;
}

std::vector<int> RankNetForecaster::forecast_cars(
    const telemetry::RaceLog& race, int origin_lap) {
  return active_cars(race_cache(race), origin_lap);
}

std::shared_ptr<const RankNetForecaster::ForecastContext>
RankNetForecaster::forecast_context(const RaceCache& rc, int origin_lap,
                                    int horizon, int num_samples,
                                    std::uint64_t base, int tail) {
  std::shared_ptr<ForecastContext> ctx;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (const auto& slot : contexts_) {
      if (slot->generation == rc.generation && slot->origin == origin_lap &&
          slot->horizon == horizon && slot->samples == num_samples &&
          slot->base == base) {
        ctx = slot;
        break;
      }
    }
    if (ctx == nullptr) {
      ctx = std::make_shared<ForecastContext>();
      ctx->generation = rc.generation;
      ctx->origin = origin_lap;
      ctx->horizon = horizon;
      ctx->samples = num_samples;
      ctx->base = base;
      if (contexts_.size() == kContextSlots) contexts_.erase(contexts_.begin());
      contexts_.push_back(ctx);
    }
  }

  std::lock_guard<std::mutex> fill(ctx->fill_mutex);
  if (ctx->filled) return ctx;
  const auto origin = static_cast<std::size_t>(origin_lap);
  // The status realization couples every active car (LeaderPitCount sees
  // the whole field), so it is drawn over the full car set whatever
  // partition asks first. The decoder reads rows from the first replayed
  // tail lap to the horizon.
  ctx->cars = active_cars(rc, origin_lap);
  StatusSampler sampler(*pit_model_, cov_config_,
                        sampler_cars(rc, ctx->cars, origin), origin,
                        static_cast<std::size_t>(horizon),
                        origin - static_cast<std::size_t>(tail));
  const std::size_t size = sampler.sample_size();
  ctx->rows.resize(static_cast<std::size_t>(num_samples) * size);
  const std::span<double> rows(ctx->rows);
  for (std::size_t s = 0; s < static_cast<std::size_t>(num_samples); ++s) {
    // One coupled race-status realization across all cars, from a child
    // stream keyed by the sample index alone (k2 = 0 keeps the status
    // keys disjoint from the per-row keys, which use k2 >= 1).
    util::Rng status_rng = util::Rng::stream(base, s, 0);
    sampler.sample(status_rng, rows.subspan(s * size, size));
  }
  ctx->filled = true;
  return ctx;
}

RaceSamples RankNetForecaster::forecast(const telemetry::RaceLog& race,
                                        int origin_lap, int horizon,
                                        int num_samples, util::Rng& rng) {
  if (origin_lap < 2 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("RankNetForecaster::forecast: bad arguments");
  }
  prepare(race);
  const std::uint64_t base = rng();
  const auto cars = forecast_cars(race, origin_lap);
  return forecast_partition(race, origin_lap, horizon, num_samples, base,
                            cars);
}

RaceSamples RankNetForecaster::forecast_partition(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, std::uint64_t base, std::span<const int> cars_span) {
  if (origin_lap < 2 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("RankNetForecaster::forecast: bad arguments");
  }
  const RaceCache* rc_ptr = find_cache(race);
  if (rc_ptr == nullptr) {
    prepare(race);  // single-threaded caller without prior prepare()
    rc_ptr = find_cache(race);
  }
  const RaceCache& rc = *rc_ptr;
  const auto origin = static_cast<std::size_t>(origin_lap);
  const auto h_count = static_cast<std::size_t>(horizon);
  const auto s_count = static_cast<std::size_t>(num_samples);

  const std::vector<int> cars(cars_span.begin(), cars_span.end());
  if (cars.empty()) return {};

  // Encoder-tail correction: with predicted status, the shift features of
  // the last `shift` encoder laps must not peek at the true future.
  const int tail_wanted =
      source_ == StatusSource::kPitModel && cov_config_.shift_features
          ? cov_config_.shift
          : 0;
  const int tail = std::min<int>(tail_wanted, origin_lap - 2);

  const std::size_t rows = cars.size() * s_count;
  std::vector<int> car_index(rows);
  std::vector<std::vector<double>> z_prev(rows);
  std::vector<std::vector<std::vector<double>>> future_covs(rows);
  // Per-row covariates of the tail laps (teacher-forced replay window).
  std::vector<std::vector<std::vector<double>>> tail_covs(
      static_cast<std::size_t>(tail));
  for (auto& step : tail_covs) step.resize(rows);
  std::vector<std::vector<std::vector<double>>> tail_z(
      static_cast<std::size_t>(tail));
  for (auto& step : tail_z) step.resize(rows);

  // A car's encoder state before the tail replay: its flat trace step
  // after lap origin - tail - 1.
  const auto trace_idx = origin - 2 - static_cast<std::size_t>(tail);
  const std::size_t step_size = model_->trace_step_size();
  const auto trace_step = [&](int car_id) {
    const auto& trace = rc.cars.at(car_id).trace;
    if ((trace_idx + 1) * step_size > trace.size()) {
      throw std::out_of_range("RankNetForecaster: car has no state at origin");
    }
    return std::span<const double>(trace).subspan(trace_idx * step_size,
                                                  step_size);
  };

  if (source_ == StatusSource::kPitModel) {
    const auto ctx = forecast_context(rc, origin_lap, horizon, num_samples,
                                      base, tail);
    const std::size_t dim = cov_config_.dim();
    const std::size_t window = static_cast<std::size_t>(tail) + h_count;
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const int car_id = cars[c];
      const auto& cc = rc.cars.at(car_id);
      const auto it =
          std::lower_bound(ctx->cars.begin(), ctx->cars.end(), car_id);
      if (it == ctx->cars.end() || *it != car_id) {
        throw std::out_of_range(
            "RankNetForecaster: partition car not in forecast_cars");
      }
      const auto i = static_cast<std::size_t>(it - ctx->cars.begin());
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        // Covariate row of lap (origin - tail + k + 1) for this car/sample.
        const auto cov_row = [&](std::size_t k) {
          const double* p =
              ctx->rows.data() +
              ((s * ctx->cars.size() + i) * window + k) * dim;
          return std::vector<double>(p, p + dim);
        };
        car_index[row] = vocab_.index(car_id);
        z_prev[row] = {cc.history[origin - 1]};
        auto& fc = future_covs[row];
        fc.resize(h_count);
        for (std::size_t h = 0; h < h_count; ++h) {
          fc[h] = cov_row(static_cast<std::size_t>(tail) + h);
        }
        for (int t = 0; t < tail; ++t) {
          // Tail step t replays lap (origin - tail + t): input is
          // [z at that lap - 1, cov at that lap].
          const auto lap0 =
              origin - static_cast<std::size_t>(tail) + static_cast<std::size_t>(t);
          tail_z[static_cast<std::size_t>(t)][row] = {cc.history[lap0 - 1]};
          tail_covs[static_cast<std::size_t>(t)][row] =
              cov_row(static_cast<std::size_t>(t));
        }
      }
    }
  } else {
    // Oracle / Joint / DeepAR: covariates straight from the cached
    // (ground-truth) streams; rows for the same car share them.
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const int car_id = cars[c];
      const auto& cc = rc.cars.at(car_id);
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        car_index[row] = vocab_.index(car_id);
        if (source_ == StatusSource::kJoint) {
          // Multivariate target: [rank, aux status dims from covariates].
          z_prev[row] = {cc.history[origin - 1]};
          const auto& aux = cc.covariates[origin - 1];
          for (std::size_t j = 0; j + 1 < model_->config().target_dim; ++j) {
            z_prev[row].push_back(j < aux.size() ? aux[j] : 0.0);
          }
        } else {
          z_prev[row] = {cc.history[origin - 1]};
        }
        auto& fc = future_covs[row];
        fc.resize(h_count);
        for (std::size_t h = 0; h < h_count; ++h) {
          const std::size_t idx = origin + h;
          fc[h] = idx < cc.covariates.size()
                      ? cc.covariates[idx]
                      : std::vector<double>(cov_config_.dim(), 0.0);
        }
      }
    }
  }

  // One independent noise stream per (car, sample) row, keyed so the draw
  // for a row never depends on which other rows share the batch.
  std::vector<util::Rng> row_rngs;
  row_rngs.reserve(rows);
  for (std::size_t c = 0; c < cars.size(); ++c) {
    for (std::size_t s = 0; s < s_count; ++s) {
      row_rngs.push_back(util::Rng::stream(
          base, static_cast<std::uint64_t>(cars[c]), s + 1));
    }
  }

  tensor::Matrix out;
  if (decode_mode_ == DecodeMode::kTree) {
    // ---- shared-prefix decode tree ------------------------------------
    // A branch is a set of same-car rows whose prefix inputs (tail-lap and
    // first-decode-lap covariates; z_prev and tail targets are per-car by
    // construction) coincide bit-for-bit. Oracle/Joint/DeepAR rows of a car
    // always coincide (ground-truth covariates): one branch per car.
    // PitModel rows fork where their sampled pit/caution realizations
    // diverge inside the prefix window: grouped by covariate_window_digest,
    // then confirmed by exact bit comparison (digest collisions must not
    // merge distinct branches).
    const auto windows_equal = [&](std::size_t a, std::size_t b) {
      const auto bits_equal = [](const std::vector<double>& x,
                                 const std::vector<double>& y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(double)) == 0);
      };
      for (int t = 0; t < tail; ++t) {
        const auto& step = tail_covs[static_cast<std::size_t>(t)];
        if (!bits_equal(step[a], step[b])) return false;
      }
      return bits_equal(future_covs[a][0], future_covs[b][0]);
    };

    std::vector<std::size_t> branch_of_row(rows);
    std::vector<std::size_t> branch_rep;  // first member row per branch
    for (std::size_t c = 0; c < cars.size(); ++c) {
      if (source_ != StatusSource::kPitModel) {
        const std::size_t b = branch_rep.size();
        branch_rep.push_back(c * s_count);
        for (std::size_t s = 0; s < s_count; ++s) {
          branch_of_row[c * s_count + s] = b;
        }
        continue;
      }
      // digest -> branch ids of this car (usually one; more on collision)
      std::map<std::uint64_t, std::vector<std::size_t>> groups;
      std::vector<std::span<const double>> window(
          static_cast<std::size_t>(tail) + 1);
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        for (int t = 0; t < tail; ++t) {
          window[static_cast<std::size_t>(t)] =
              tail_covs[static_cast<std::size_t>(t)][row];
        }
        window[static_cast<std::size_t>(tail)] = future_covs[row][0];
        auto& bucket = groups[covariate_window_digest(window)];
        std::size_t found = rows;
        for (std::size_t b : bucket) {
          if (windows_equal(branch_rep[b], row)) {
            found = b;
            break;
          }
        }
        if (found == rows) {
          found = branch_rep.size();
          branch_rep.push_back(row);
          bucket.push_back(found);
        }
        branch_of_row[row] = found;
      }
    }

    // Branch-width start state + teacher-forced tail replay: the whole
    // shared prefix runs at branch width instead of row width.
    const std::size_t n_branches = branch_rep.size();
    std::vector<std::span<const double>> branch_steps(n_branches);
    std::vector<int> branch_car_index(n_branches);
    std::vector<std::vector<std::vector<double>>> btail_z(
        static_cast<std::size_t>(tail));
    std::vector<std::vector<std::vector<double>>> btail_covs(
        static_cast<std::size_t>(tail));
    for (auto& step : btail_z) step.resize(n_branches);
    for (auto& step : btail_covs) step.resize(n_branches);
    for (std::size_t b = 0; b < n_branches; ++b) {
      const std::size_t row = branch_rep[b];
      branch_steps[b] = trace_step(cars[row / s_count]);
      branch_car_index[b] = car_index[row];
      for (int t = 0; t < tail; ++t) {
        btail_z[static_cast<std::size_t>(t)][b] =
            tail_z[static_cast<std::size_t>(t)][row];
        btail_covs[static_cast<std::size_t>(t)][b] =
            tail_covs[static_cast<std::size_t>(t)][row];
      }
    }
    auto branch_state = model_->state_from_trace(branch_steps);
    for (int t = 0; t < tail; ++t) {
      model_->advance(branch_state, btail_z[static_cast<std::size_t>(t)],
                      btail_covs[static_cast<std::size_t>(t)],
                      branch_car_index);
    }
    out = model_->sample_forward_tree(branch_state, branch_of_row, z_prev,
                                      future_covs, car_index, horizon,
                                      row_rngs);
    // shared_rows = row-steps of LSTM+head work skipped vs independent
    // decode (tail replay + decode step 1 ran at branch width).
    const auto& m = decode_tree_metrics();
    m.decodes->add(1);
    m.rows->add(rows);
    m.branches->add(n_branches);
    m.shared_rows->add((rows - n_branches) *
                       (static_cast<std::size_t>(tail) + 1));
  } else {
    // ---- independent decode (historical path) -------------------------
    std::vector<std::span<const double>> row_steps(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      row_steps[row] = trace_step(cars[row / s_count]);
    }
    auto state = model_->state_from_trace(row_steps);

    // Teacher-forced tail replay (PitModel mode only; tail == 0 otherwise).
    for (int t = 0; t < tail; ++t) {
      model_->advance(state, tail_z[static_cast<std::size_t>(t)],
                      tail_covs[static_cast<std::size_t>(t)], car_index);
    }
    out = model_->sample_forward(state, z_prev, future_covs, car_index,
                                 horizon, row_rngs);
  }

  RaceSamples samples;
  for (std::size_t c = 0; c < cars.size(); ++c) {
    tensor::Matrix m(s_count, h_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      for (std::size_t h = 0; h < h_count; ++h) {
        m(s, h) = out(c * s_count + s, h);
      }
    }
    samples.emplace(cars[c], std::move(m));
  }
  return samples;
}

TransformerForecaster::TransformerForecaster(
    std::shared_ptr<const TransformerSeqModel> model,
    std::shared_ptr<const PitModel> pit_model, features::CarVocab vocab,
    features::CovariateConfig cov_config, StatusSource source,
    std::string name)
    : model_(std::move(model)),
      pit_model_(std::move(pit_model)),
      vocab_(std::move(vocab)),
      cov_config_(cov_config),
      source_(source),
      name_(std::move(name)) {
  if (source_ == StatusSource::kPitModel && pit_model_ == nullptr) {
    throw std::invalid_argument(
        "TransformerForecaster: PitModel source needs a pit model");
  }
  if (source_ == StatusSource::kJoint) {
    throw std::invalid_argument(
        "TransformerForecaster: Joint variant is LSTM-only in this repo");
  }
}

const TransformerForecaster::RaceCache& TransformerForecaster::race_cache(
    const telemetry::RaceLog& race) {
  auto it = cache_.find(race.id());
  if (it != cache_.end() && it->second.digest == race.digest()) {
    return it->second;
  }
  RaceCache rc;
  rc.digest = race.digest();
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    if (car.laps() < 3) continue;
    CarCache cc;
    cc.history = car.rank;
    cc.streams = features::StatusStreams::from_race(race, car_id);
    if (source_ != StatusSource::kPitModel) {
      cc.covariates = features::build_covariates(cc.streams, cov_config_);
    }
    rc.cars.emplace(car_id, std::move(cc));
  }
  return cache_.insert_or_assign(race.id(), std::move(rc)).first->second;
}

RaceSamples TransformerForecaster::forecast(const telemetry::RaceLog& race,
                                            int origin_lap, int horizon,
                                            int num_samples, util::Rng& rng) {
  if (origin_lap < 3 || horizon < 1 || num_samples < 1) {
    throw std::invalid_argument("TransformerForecaster: bad arguments");
  }
  const auto& rc = race_cache(race);
  const auto origin = static_cast<std::size_t>(origin_lap);
  const auto h_count = static_cast<std::size_t>(horizon);
  const auto s_count = static_cast<std::size_t>(num_samples);

  const std::vector<int> cars = active_cars(rc, origin_lap);
  if (cars.empty()) return {};

  const std::size_t ctx =
      std::min<std::size_t>(model_->config().infer_context, origin);
  const std::size_t first_lap = origin - ctx;  // 0-based index of first lap

  const std::size_t rows = cars.size() * s_count;
  std::vector<int> car_index(rows);
  std::vector<std::vector<double>> history(rows);
  std::vector<std::vector<std::vector<double>>> covs(rows);

  // cov_row(t) is the covariate row of 0-based lap first_lap + t.
  const auto fill_row = [&](std::size_t row, int car_id, const auto& cov_row) {
    const auto& ranks = rc.cars.at(car_id).history;
    car_index[row] = vocab_.index(car_id);
    history[row].assign(ranks.begin() + static_cast<std::ptrdiff_t>(first_lap),
                        ranks.begin() + static_cast<std::ptrdiff_t>(origin));
    auto& cv = covs[row];
    cv.resize(ctx + h_count);
    for (std::size_t t = 0; t < ctx + h_count; ++t) {
      const std::span<const double> r = cov_row(t);
      cv[t].assign(r.begin(), r.end());
    }
  };

  const std::size_t dim = cov_config_.dim();
  if (source_ == StatusSource::kPitModel) {
    // Only the context window and the horizon are read: the realization
    // starts at the first context lap.
    StatusSampler sampler(*pit_model_, cov_config_,
                          sampler_cars(rc, cars, origin), origin, h_count,
                          first_lap);
    std::vector<double> realization(sampler.sample_size());
    for (std::size_t s = 0; s < s_count; ++s) {
      sampler.sample(rng, realization);
      for (std::size_t c = 0; c < cars.size(); ++c) {
        fill_row(c * s_count + s, cars[c], [&](std::size_t t) {
          return std::span<const double>(
              realization.data() + (c * sampler.rows() + t) * dim, dim);
        });
      }
    }
  } else {
    const std::vector<double> zeros(dim, 0.0);
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const auto& covariates = rc.cars.at(cars[c]).covariates;
      const auto cov_row = [&](std::size_t t) {
        const std::size_t k = first_lap + t;
        return std::span<const double>(k < covariates.size() ? covariates[k]
                                                             : zeros);
      };
      for (std::size_t s = 0; s < s_count; ++s) {
        fill_row(c * s_count + s, cars[c], cov_row);
      }
    }
  }

  const auto out = model_->sample_forecast(history, covs, car_index, horizon,
                                           rng);
  RaceSamples samples;
  for (std::size_t c = 0; c < cars.size(); ++c) {
    tensor::Matrix m(s_count, h_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      for (std::size_t h = 0; h < h_count; ++h) {
        m(s, h) = out(c * s_count + s, h);
      }
    }
    samples.emplace(cars[c], std::move(m));
  }
  return samples;
}

}  // namespace ranknet::core
