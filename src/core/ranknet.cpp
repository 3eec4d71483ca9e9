#include "core/ranknet.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

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

/// A race cache keeps every kTraceEvery-th encoder step of each car; a
/// forecast that starts between two replays up to kTraceEvery - 1 steps
/// from the checkpoint below (DESIGN.md "Checkpointed encoder traces").
constexpr std::size_t kTraceEvery = 4;

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

/// Encoder-trace metrics ("ranknet.*"), resolved once per process.
/// `trace_bytes` is the checkpointed encoder state every live instance
/// holds; `replay_steps` counts the row-steps forecasts replayed from those
/// checkpoints.
struct TraceMetrics {
  obs::Gauge* trace_bytes;
  obs::Counter* replay_steps;
  TraceMetrics() {
    auto& reg = obs::Registry::instance();
    trace_bytes = &reg.gauge("ranknet.trace_bytes");
    replay_steps = &reg.counter("ranknet.replay_steps");
  }
};

const TraceMetrics& trace_metrics() {
  static const TraceMetrics m;
  return m;
}

/// The slot of `slots` that `matches`, or a new one that `init` keys, added
/// last (the oldest dropped past kContextSlots). The caller holds the lock
/// that guards `slots`.
template <typename Slot, typename Matches, typename Init>
std::shared_ptr<Slot> find_or_add_slot(
    std::vector<std::shared_ptr<Slot>>& slots, const Matches& matches,
    const Init& init) {
  for (const auto& slot : slots) {
    if (matches(*slot)) return slot;
  }
  if (slots.size() == kContextSlots) slots.erase(slots.begin());
  init(*slots.emplace_back(std::make_shared<Slot>()));
  return slots.back();
}

/// Encoder-state bytes a race cache holds.
template <typename RaceCache>
double held_bytes(const RaceCache& rc) {
  std::size_t n = 0;
  for (const auto& [car_id, cc] : rc.cars) n += cc.trace.size();
  return static_cast<double>(n * sizeof(double));
}

}  // namespace

RankNetForecaster::~RankNetForecaster() { clear_cache(); }

const RankNetForecaster::RaceCache& RankNetForecaster::race_cache(
    const telemetry::RaceLog& race) {
  if (const RaceCache* rc = find_cache(race)) return *rc;

  RaceCache rc;
  rc.digest = race.digest();
  rc.generation = ++generations_;
  std::map<std::size_t, std::vector<int>> by_laps;
  for (int car_id : race.car_ids()) {
    const auto& car = race.car(car_id);
    if (car.laps() < 3) continue;
    CarCache cc;
    cc.history = car.rank;
    cc.streams = features::StatusStreams::from_race(race, car_id);
    by_laps[car.laps()].push_back(car_id);
    rc.cars.emplace(car_id, std::move(cc));
  }
  // Cars of equal length trace as one batch; rows are independent, so
  // each car's checkpoints are those of its own batch-1 trace.
  for (const auto& [laps, ids] : by_laps) {
    std::vector<std::vector<double>> history;
    std::vector<std::vector<std::vector<double>>> covs;
    std::vector<int> index;
    for (int car_id : ids) {
      const auto& cc = rc.cars.at(car_id);
      history.push_back(cc.history);
      covs.push_back(features::build_covariates(cc.streams, cov_config_));
      index.push_back(vocab_.index(car_id));
    }
    auto traces =
        model_->trace_checkpoints(history, covs, index, kTraceEvery);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto& cc = rc.cars.at(ids[i]);
      cc.trace = std::move(traces[i]);
      if (source_ == StatusSource::kPitModel) continue;
      for (const auto& row : covs[i]) {
        cc.covariates.insert(cc.covariates.end(), row.begin(), row.end());
      }
    }
  }
  RaceCache& slot = cache_[race.id()];
  trace_metrics().trace_bytes->add(held_bytes(rc) - held_bytes(slot));
  slot = std::move(rc);
  return slot;
}

void RankNetForecaster::prepare(const telemetry::RaceLog& race) {
  race_cache(race);
}

void RankNetForecaster::clear_cache() {
  for (const auto& [id, rc] : cache_) {
    trace_metrics().trace_bytes->add(-held_bytes(rc));
  }
  cache_.clear();
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  contexts_.clear();
  replays_.clear();
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
    ctx = find_or_add_slot(
        contexts_,
        [&](const ForecastContext& slot) {
          return slot.generation == rc.generation &&
                 slot.origin == origin_lap && slot.horizon == horizon &&
                 slot.samples == num_samples && slot.base == base;
        },
        [&](ForecastContext& slot) {
          slot.generation = rc.generation;
          slot.origin = origin_lap;
          slot.horizon = horizon;
          slot.samples = num_samples;
          slot.base = base;
        });
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

std::shared_ptr<const RankNetForecaster::ReplayedStep>
RankNetForecaster::replayed_step(const RaceCache& rc, std::size_t step) {
  std::shared_ptr<ReplayedStep> rs;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    rs = find_or_add_slot(
        replays_,
        [&](const ReplayedStep& slot) {
          return slot.generation == rc.generation && slot.step == step;
        },
        [&](ReplayedStep& slot) {
          slot.generation = rc.generation;
          slot.step = step;
        });
  }

  std::lock_guard<std::mutex> fill(rs->fill_mutex);
  if (rs->filled) return rs;
  // Load every traced car's checkpoint below `step` and replay the steps
  // in between as one batch, teacher-forced with the inputs the trace
  // consumed: z of lap t + 1 and the covariate row of lap t + 2 for step t,
  // each row rebuilt by the one row formula build_covariates also calls.
  // Each row then holds its traced state bit for bit.
  const std::size_t step_size = model_->trace_step_size();
  const std::size_t checkpoint = step / kTraceEvery * kTraceEvery;
  const std::size_t steps = step - checkpoint;
  std::vector<int> cars;
  std::vector<std::span<const double>> starts;
  std::vector<int> car_index;
  for (const auto& [car_id, cc] : rc.cars) {
    if (cc.history.size() < step + 2) continue;
    cars.push_back(car_id);
    starts.push_back(std::span<const double>(cc.trace).subspan(
        checkpoint / kTraceEvery * step_size, step_size));
    car_index.push_back(vocab_.index(car_id));
  }
  // Per car its rows checkpoint + 1 .. step + 1: step t reads row t + 1,
  // and a multivariate target the aux dims in the leading covariates of
  // row t, zero-filled past the row.
  const std::size_t td = model_->config().target_dim;
  const std::size_t dim = cov_config_.dim();
  const std::size_t n = cars.size();
  std::vector<double> rows((steps + 1) * dim * n);
  std::vector<std::span<const double>> covs(n);
  std::vector<double> z(steps * n * td);
  for (std::size_t c = 0; c < n; ++c) {
    const auto& cc = rc.cars.at(cars[c]);
    double* car_rows = rows.data() + c * (steps + 1) * dim;
    for (std::size_t k = 0; k <= steps; ++k) {
      const std::size_t row = checkpoint + 1 + k;
      features::write_covariate_row(cc.streams, row, cov_config_,
                                    cc.streams.ages_after(row + 1),
                                    car_rows + k * dim);
    }
    covs[c] = {car_rows + dim, steps * dim};
    for (std::size_t t = 0; t < steps; ++t) {
      double* zt = z.data() + (t * n + c) * td;
      zt[0] = cc.history[checkpoint + 1 + t];
      for (std::size_t j = 1; j < td; ++j) {
        zt[j] = j - 1 < dim ? car_rows[t * dim + j - 1] : 0.0;
      }
    }
  }
  auto state = model_->state_from_trace(starts);
  model_->advance(state, {covs, dim, z, car_index}, steps);
  rs->states.resize(cars.size() * step_size);
  model_->trace_from_state(state, rs->states);
  trace_metrics().replay_steps->add(n * steps);
  rs->cars = std::move(cars);
  rs->filled = true;
  return rs;
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

  // A car's encoder state before the tail replay: its trace step after lap
  // origin - tail - 1. The race cache keeps every kTraceEvery-th step; any
  // other is read from the replayed step shared by the partitions.
  const auto trace_idx = origin - 2 - static_cast<std::size_t>(tail);
  const std::size_t step_size = model_->trace_step_size();
  for (const int car_id : cars) {
    if (trace_idx + 2 > rc.cars.at(car_id).history.size()) {
      throw std::out_of_range("RankNetForecaster: car has no state at origin");
    }
  }
  const auto replayed = trace_idx % kTraceEvery == 0
                            ? nullptr
                            : replayed_step(rc, trace_idx);
  std::vector<std::span<const double>> car_steps(cars.size());
  for (std::size_t c = 0; c < cars.size(); ++c) {
    if (replayed == nullptr) {
      car_steps[c] = std::span<const double>(rc.cars.at(cars[c]).trace)
                         .subspan(trace_idx / kTraceEvery * step_size,
                                  step_size);
    } else {
      const auto i = static_cast<std::size_t>(
          std::lower_bound(replayed->cars.begin(), replayed->cars.end(),
                           cars[c]) -
          replayed->cars.begin());
      car_steps[c] = std::span<const double>(replayed->states)
                         .subspan(i * step_size, step_size);
    }
  }

  // Per (car, sample) row: its covariate rows read in place from the
  // first tail lap on, `dim` doubles each, and its last observed target.
  const std::size_t rows = cars.size() * s_count;
  const std::size_t td = model_->config().target_dim;
  const std::size_t dim = cov_config_.dim();
  const auto tail_n = static_cast<std::size_t>(tail);
  std::vector<int> car_index(rows);
  std::vector<std::span<const double>> covs(rows);
  std::vector<double> z(rows * td);
  std::shared_ptr<const ForecastContext> ctx;
  if (source_ == StatusSource::kPitModel) {
    ctx = forecast_context(rc, origin_lap, horizon, num_samples, base, tail);
  }
  for (std::size_t c = 0; c < cars.size(); ++c) {
    const int car_id = cars[c];
    const auto& cc = rc.cars.at(car_id);
    std::size_t i = 0;
    if (ctx != nullptr) {
      const auto it =
          std::lower_bound(ctx->cars.begin(), ctx->cars.end(), car_id);
      if (it == ctx->cars.end() || *it != car_id) {
        throw std::out_of_range(
            "RankNetForecaster: partition car not in forecast_cars");
      }
      i = static_cast<std::size_t>(it - ctx->cars.begin());
    }
    for (std::size_t s = 0; s < s_count; ++s) {
      const std::size_t row = c * s_count + s;
      car_index[row] = vocab_.index(car_id);
      double* zr = z.data() + row * td;
      zr[0] = cc.history[origin - 1];
      if (ctx != nullptr) {
        // The sampled rows of laps origin - tail + 1 .. origin + horizon.
        const std::size_t window = tail_n + h_count;
        covs[row] = std::span<const double>(ctx->rows).subspan(
            (s * ctx->cars.size() + i) * window * dim, window * dim);
      } else {
        // Ground-truth rows from lap origin + 1 on; rows past the car's log
        // read zeros. A multivariate target's aux dims (Joint) are the
        // leading covariates of the origin lap, zero-filled past the row.
        covs[row] =
            std::span<const double>(cc.covariates).subspan(origin * dim);
        for (std::size_t j = 1; j < td; ++j) {
          zr[j] = j - 1 < dim ? cc.covariates[(origin - 1) * dim + j - 1]
                              : 0.0;
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

  // Teacher-forced tail replay (PitModel mode only; tail == 0 otherwise),
  // one state row per entry of `from`, each read from that row's inputs:
  // step t replays lap origin - tail + t, whose input is [z at the lap
  // before, covariate row t]. Afterwards `covs` start at the decode rows.
  const auto replay_tail = [&](LstmSeqModel::StackState& state,
                               std::span<const std::size_t> from) {
    if (tail_n == 0) return;
    const std::size_t n = from.size();
    std::vector<std::span<const double>> from_covs(n);
    std::vector<int> from_index(n);
    std::vector<double> tail_z(tail_n * n * td);
    for (std::size_t k = 0; k < n; ++k) {
      from_covs[k] = covs[from[k]];
      from_index[k] = car_index[from[k]];
      const auto& history = rc.cars.at(cars[from[k] / s_count]).history;
      for (std::size_t t = 0; t < tail_n; ++t) {
        tail_z[(t * n + k) * td] = history[origin - tail_n + t - 1];
      }
    }
    model_->advance(state, {from_covs, dim, tail_z, from_index}, tail_n);
    for (auto& cov : covs) cov = cov.subspan(tail_n * dim);
  };

  tensor::Matrix out;
  if (decode_mode_ == DecodeMode::kTree) {
    // ---- shared-prefix decode tree ------------------------------------
    // A branch is a set of same-car rows whose prefix inputs (tail-lap and
    // first-decode-lap covariates; z and tail targets are per-car by
    // construction) coincide bit-for-bit. Oracle/Joint/DeepAR rows of a car
    // always coincide (ground-truth covariates): one branch per car.
    // PitModel rows fork where their sampled pit/caution realizations
    // diverge inside the prefix window, rows 0 .. tail of the row's window,
    // one contiguous run compared in place against each branch of the car.
    const std::size_t prefix = (tail_n + 1) * dim * sizeof(double);
    std::vector<std::size_t> branch_of_row(rows);
    std::vector<std::size_t> branch_rep;  // first member row per branch
    for (std::size_t c = 0; c < cars.size(); ++c) {
      const std::size_t first_branch = branch_rep.size();
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::size_t row = c * s_count + s;
        std::size_t found = first_branch;
        while (ctx != nullptr && found < branch_rep.size() &&
               std::memcmp(covs[branch_rep[found]].data(), covs[row].data(),
                           prefix) != 0) {
          ++found;
        }
        if (found == branch_rep.size()) branch_rep.push_back(row);
        branch_of_row[row] = found;
      }
    }

    // Branch-width start state + teacher-forced tail replay: the whole
    // shared prefix runs at branch width instead of row width.
    const std::size_t n_branches = branch_rep.size();
    std::vector<std::span<const double>> branch_steps(n_branches);
    for (std::size_t b = 0; b < n_branches; ++b) {
      branch_steps[b] = car_steps[branch_rep[b] / s_count];
    }
    auto branch_state = model_->state_from_trace(branch_steps);
    replay_tail(branch_state, branch_rep);
    out = model_->sample_forward_tree(branch_state, branch_of_row,
                                      {covs, dim, z, car_index}, horizon,
                                      row_rngs);
    // shared_rows = row-steps of LSTM+head work skipped vs independent
    // decode (tail replay + decode step 1 ran at branch width).
    const auto& m = decode_tree_metrics();
    m.decodes->add(1);
    m.rows->add(rows);
    m.branches->add(n_branches);
    m.shared_rows->add((rows - n_branches) * (tail_n + 1));
  } else {
    // ---- independent decode (historical path) -------------------------
    std::vector<std::span<const double>> row_steps(rows);
    std::vector<std::size_t> all_rows(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      row_steps[row] = car_steps[row / s_count];
      all_rows[row] = row;
    }
    auto state = model_->state_from_trace(row_steps);
    replay_tail(state, all_rows);
    out = model_->sample_forward(state, {covs, dim, z, car_index}, horizon,
                                 row_rngs);
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
