#include "core/status_forecast.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/workspace.hpp"

namespace ranknet::core {

PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin) {
  return streams.ages_after(origin);
}

StatusSampler::StatusSampler(const PitModel& pit_model,
                             const features::CovariateConfig& config,
                             std::span<const Car> cars, std::size_t origin,
                             std::size_t horizon, std::size_t lo)
    : config_(config),
      observed_(origin - lo),
      future_(horizon + static_cast<std::size_t>(config.shift)),
      rows_(origin - lo + horizon) {
  if (lo > origin) {
    throw std::invalid_argument("StatusSampler: first row lies past the origin");
  }
  // One zero-allocation MLP session serves every prediction; only plain
  // values outlive this constructor.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  const PitModel::InferenceSession pit(pit_model, ws);
  fresh_ = pit.predict(PitFeatures{});
  rank_.reserve(cars.size());
  start_.reserve(cars.size());
  first_.reserve(cars.size());
  windows_.resize(cars.size());
  for (std::size_t i = 0; i < cars.size(); ++i) {
    const features::StatusStreams& s = *cars[i].streams;
    if (s.laps() < origin || s.lap_status.size() < origin ||
        s.total_pit_count.size() < origin ||
        s.leader_pit_count.size() < origin) {
      throw std::invalid_argument(
          "StatusSampler: streams end before the origin");
    }
    rank_.push_back(cars[i].origin_rank);
    // The age state at row lo, then on to the origin for the first stint.
    features::AgeState ages = s.ages_after(lo);
    start_.push_back(ages);
    for (std::size_t t = lo; t < origin; ++t) {
      ages.advance(s.lap_status[t] > 0.5, s.track_status[t] > 0.5);
    }
    first_.push_back(pit.predict(ages));
    // Observed rows, then the future rows (TrackStatus stays green there,
    // Algorithm 2's assumption).
    auto& w = windows_[i];
    const auto window = [&](const std::vector<double>& src,
                            std::vector<double>& dst) {
      dst.assign(src.begin() + static_cast<std::ptrdiff_t>(lo),
                 src.begin() + static_cast<std::ptrdiff_t>(origin));
      dst.resize(observed_ + future_, 0.0);
    };
    window(s.track_status, w.track_status);
    window(s.lap_status, w.lap_status);
    window(s.total_pit_count, w.total_pit_count);
    window(s.leader_pit_count, w.leader_pit_count);
  }
  pit_ranks_.reserve(cars.size());
}

std::size_t StatusSampler::sample_size() const {
  return windows_.size() * rows_ * config_.dim();
}

void StatusSampler::sample(util::Rng& rng, std::span<double> out) {
  if (out.size() != sample_size()) {
    throw std::invalid_argument("StatusSampler::sample: wrong output size");
  }
  // Every car's future pit laps first (they couple through the race-context
  // features): successive stints, each drawn from its stint's prediction,
  // in car order — PitModel::sample_future_lap_status's draws exactly.
  const auto horizon = static_cast<int>(future_);
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    double* pits = windows_[i].lap_status.data() + observed_;
    std::fill(pits, pits + future_, 0.0);
    const PitModel::Prediction* p = &first_[i];
    int lap = 0;
    while (lap < horizon) {
      const int pit_offset = lap + PitModel::sample(*p, rng);
      if (pit_offset > horizon) break;
      pits[pit_offset - 1] = 1.0;
      lap = pit_offset;
      p = &fresh_;
    }
  }

  // TotalPitCount and LeaderPitCount of each future lap, from the cars
  // that pit on it.
  for (std::size_t t = observed_; t < observed_ + future_; ++t) {
    pit_ranks_.clear();
    for (std::size_t j = 0; j < windows_.size(); ++j) {
      if (windows_[j].lap_status[t] > 0.5) pit_ranks_.push_back(rank_[j]);
    }
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      double leaders = 0.0;
      for (double r : pit_ranks_) {
        if (r < rank_[i]) leaders += 1.0;
      }
      windows_[i].total_pit_count[t] = static_cast<double>(pit_ranks_.size());
      windows_[i].leader_pit_count[t] = leaders;
    }
  }

  const std::size_t dim = config_.dim();
  double* dst = out.data();
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const auto& w = windows_[i];
    features::AgeState ages = start_[i];
    for (std::size_t k = 0; k < rows_; ++k, dst += dim) {
      ages.advance(w.lap_status[k] > 0.5, w.track_status[k] > 0.5);
      features::write_covariate_row(w, k, config_, ages, dst);
    }
  }
}

}  // namespace ranknet::core
