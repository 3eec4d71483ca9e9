// Feature engineering per the paper's Table I and Fig. 7.
//
// Basic race-status features (TrackStatus, LapStatus) are transformed into
// accumulation ("age") features CautionLaps and PitAge; race-level context
// features LeaderPitCount / TotalPitCount and their shifted (future-lap)
// variants are the step-3/step-4 optimizations of Fig. 7.
#pragma once

#include <vector>

#include "telemetry/race_log.hpp"

namespace ranknet::features {

/// Accumulation state of the age features after some laps of one car: the
/// caution laps and the laps since its last pit stop (raw lap counts).
struct AgeState {
  double caution_laps = 0.0;
  double pit_age = 0.0;

  /// Fold in one lap: a pit stop resets both counts; any other lap ages the
  /// car by one, and a yellow one also adds a caution lap.
  void advance(bool pit, bool yellow) {
    if (pit) {
      caution_laps = 0.0;
      pit_age = 0.0;
    } else {
      if (yellow) caution_laps += 1.0;
      pit_age += 1.0;
    }
  }
};

/// Per-car, lap-aligned derived features (index 0 = lap 1).
struct CarStatusFeatures {
  std::vector<double> track_status;  // 1 = yellow
  std::vector<double> lap_status;    // 1 = pit
  std::vector<double> caution_laps;  // caution laps since the car's last pit
  std::vector<double> pit_age;       // laps since the car's last pit
};

CarStatusFeatures compute_status_features(const telemetry::CarSeries& car);

/// Race-level context per lap (shared across cars).
struct RaceContextFeatures {
  /// # of cars that pit on this lap.
  std::vector<double> total_pit_count;
  /// # of cars ahead of `car` (by rank two laps earlier) that pit this lap.
  /// Computed per car by compute_leader_pit_count.
  std::vector<double> total_caution;  // 1 if any record this lap is yellow
};

RaceContextFeatures compute_race_context(const telemetry::RaceLog& race);

/// LeaderPitCount(i, L): # of cars ahead of car i (based on rank at L-2)
/// that pit at lap L (paper Fig. 7 step 3).
std::vector<double> compute_leader_pit_count(const telemetry::RaceLog& race,
                                             int car_id);

/// Laps until the car's next pit stop, counted from each lap; laps after the
/// final stop get the distance to the end of the car's race. Used as the
/// PitModel regression target.
std::vector<double> laps_to_next_pit(const telemetry::CarSeries& car);

}  // namespace ranknet::features
