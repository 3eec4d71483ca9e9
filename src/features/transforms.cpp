#include "features/transforms.hpp"

#include <algorithm>
#include <map>

namespace ranknet::features {

CarStatusFeatures compute_status_features(const telemetry::CarSeries& car) {
  CarStatusFeatures f;
  const std::size_t n = car.laps();
  f.track_status.resize(n);
  f.lap_status.resize(n);
  f.caution_laps.resize(n);
  f.pit_age.resize(n);
  AgeState ages;
  for (std::size_t i = 0; i < n; ++i) {
    f.track_status[i] = car.yellow(i) ? 1.0 : 0.0;
    f.lap_status[i] = car.pit(i) ? 1.0 : 0.0;
    ages.advance(car.pit(i), car.yellow(i));
    f.caution_laps[i] = ages.caution_laps;
    f.pit_age[i] = ages.pit_age;
  }
  return f;
}

RaceContextFeatures compute_race_context(const telemetry::RaceLog& race) {
  RaceContextFeatures ctx;
  const auto laps = static_cast<std::size_t>(race.num_laps());
  ctx.total_pit_count.assign(laps, 0.0);
  ctx.total_caution.assign(laps, 0.0);
  for (const auto& rec : race.records()) {
    const auto idx = static_cast<std::size_t>(rec.lap - 1);
    if (rec.lap_status == telemetry::LapStatus::kPit) {
      ctx.total_pit_count[idx] += 1.0;
    }
    if (rec.track_status == telemetry::TrackStatus::kYellow) {
      ctx.total_caution[idx] = 1.0;
    }
  }
  return ctx;
}

std::vector<double> compute_leader_pit_count(const telemetry::RaceLog& race,
                                             int car_id) {
  const auto& target = race.car(car_id);
  const auto laps = target.laps();
  std::vector<double> out(laps, 0.0);
  // rank_at[car][lap] lookup built once per call from the lap-major views.
  for (std::size_t lap = 0; lap < laps; ++lap) {
    // Leaders are determined by the rank two laps earlier (paper Fig. 7):
    // at the very start of the race, use the earliest lap available.
    const std::size_t ref_lap = lap >= 2 ? lap - 2 : 0;
    if (ref_lap >= target.laps()) break;
    const double my_rank = target.rank[ref_lap];
    double count = 0.0;
    for (const auto& [other_id, other] : race.cars()) {
      if (other_id == car_id) continue;
      if (lap < other.laps() && ref_lap < other.laps() && other.pit(lap) &&
          other.rank[ref_lap] < my_rank) {
        count += 1.0;
      }
    }
    out[lap] = count;
  }
  return out;
}

std::vector<double> laps_to_next_pit(const telemetry::CarSeries& car) {
  const std::size_t n = car.laps();
  std::vector<double> out(n, 0.0);
  double next = static_cast<double>(n);  // sentinel: end of the car's race
  for (std::size_t i = n; i-- > 0;) {
    if (car.pit(i)) next = static_cast<double>(i);
    out[i] = next - static_cast<double>(i);
  }
  return out;
}

}  // namespace ranknet::features
