#include "features/window.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace ranknet::features {

namespace {

// Fixed covariate scaling constants. Using constants instead of fitted
// scalers keeps the forecasting path (which invents future covariates)
// identical to training; the magnitudes put every feature in roughly [0, 3].
constexpr double kCautionLapsScale = 10.0;
constexpr double kPitAgeScale = 40.0;
constexpr double kPitCountScale = 10.0;

}  // namespace

std::size_t CovariateConfig::dim() const {
  std::size_t d = 0;
  if (race_status) d += 2;
  if (age_features) d += 2;
  if (context_features) d += 2;
  if (shift_features) d += 3;
  return d;
}

StatusStreams StatusStreams::from_race(const telemetry::RaceLog& race,
                                       int car_id) {
  const auto& car = race.car(car_id);
  const auto status = compute_status_features(car);
  const auto context = compute_race_context(race);
  StatusStreams s;
  s.track_status = status.track_status;
  s.lap_status = status.lap_status;
  s.leader_pit_count = compute_leader_pit_count(race, car_id);
  s.total_pit_count.assign(context.total_pit_count.begin(),
                           context.total_pit_count.begin() +
                               static_cast<std::ptrdiff_t>(car.laps()));
  return s;
}

AgeState StatusStreams::ages_after(std::size_t laps) const {
  AgeState ages;
  const std::size_t n = std::min(laps, this->laps());
  for (std::size_t t = 0; t < n; ++t) {
    ages.advance(lap_status[t] > 0.5, track_status[t] > 0.5);
  }
  return ages;
}

void write_covariate_row(const StatusStreams& streams, std::size_t t,
                         const CovariateConfig& config, const AgeState& ages,
                         double* row) {
  const std::size_t n = streams.laps();
  if (config.race_status) {
    *row++ = streams.track_status[t];
    *row++ = streams.lap_status[t];
  }
  if (config.age_features) {
    *row++ = ages.caution_laps / kCautionLapsScale;
    *row++ = ages.pit_age / kPitAgeScale;
  }
  if (config.context_features) {
    *row++ = (t < streams.leader_pit_count.size()
                  ? streams.leader_pit_count[t]
                  : 0.0) /
             kPitCountScale;
    *row++ = (t < streams.total_pit_count.size() ? streams.total_pit_count[t]
                                                 : 0.0) /
             kPitCountScale;
  }
  if (config.shift_features) {
    const std::size_t ts = t + static_cast<std::size_t>(config.shift);
    const bool in_range = ts < n;
    *row++ = in_range ? streams.lap_status[ts] : 0.0;
    *row++ = in_range ? streams.track_status[ts] : 0.0;
    *row++ = (in_range && ts < streams.total_pit_count.size()
                  ? streams.total_pit_count[ts]
                  : 0.0) /
             kPitCountScale;
  }
}

std::vector<std::vector<double>> build_covariates(
    const StatusStreams& streams, const CovariateConfig& config,
    AgeState start) {
  const std::size_t n = streams.laps();
  std::vector<std::vector<double>> out(n);
  // Recompute accumulation features from the (possibly predicted) statuses.
  AgeState ages = start;
  for (std::size_t t = 0; t < n; ++t) {
    ages.advance(streams.lap_status[t] > 0.5, streams.track_status[t] > 0.5);
    out[t].resize(config.dim());
    write_covariate_row(streams, t, config, ages, out[t].data());
  }
  return out;
}

CarVocab::CarVocab(const std::vector<telemetry::RaceLog>& races) {
  std::set<int> ids;
  for (const auto& race : races) {
    for (int id : race.car_ids()) ids.insert(id);
  }
  ids_.assign(ids.begin(), ids.end());
}

int CarVocab::index(int car_id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), car_id);
  if (it != ids_.end() && *it == car_id) {
    return static_cast<int>(it - ids_.begin());
  }
  return static_cast<int>(ids_.size());  // unknown slot
}

int CarVocab::size() const { return static_cast<int>(ids_.size()) + 1; }

std::vector<SeqExample> build_windows(
    const std::vector<telemetry::RaceLog>& races, const CarVocab& vocab,
    const WindowConfig& config) {
  std::vector<SeqExample> out;
  const auto enc = static_cast<std::size_t>(config.encoder_length);
  const auto dec = static_cast<std::size_t>(config.decoder_length);
  const auto window = enc + dec;
  for (const auto& race : races) {
    for (int car_id : race.car_ids()) {
      const auto& car = race.car(car_id);
      if (car.laps() < window) continue;
      const auto streams = StatusStreams::from_race(race, car_id);
      const auto covs = build_covariates(streams, config.covariates);
      for (std::size_t begin = 0; begin + window <= car.laps();
           begin += static_cast<std::size_t>(config.stride)) {
        SeqExample ex;
        ex.car_index = vocab.index(car_id);
        ex.covariates.assign(covs.begin() + static_cast<std::ptrdiff_t>(begin),
                             covs.begin() +
                                 static_cast<std::ptrdiff_t>(begin + window));
        ex.target.assign(car.rank.begin() + static_cast<std::ptrdiff_t>(begin),
                         car.rank.begin() +
                             static_cast<std::ptrdiff_t>(begin + window));
        bool change = false;
        for (std::size_t t = enc; t < window; ++t) {
          if (ex.target[t] != ex.target[t - 1]) change = true;
        }
        ex.weight = change ? config.change_weight : 1.0;
        out.push_back(std::move(ex));
      }
    }
  }
  return out;
}

}  // namespace ranknet::features
