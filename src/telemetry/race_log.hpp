// RaceLog: the scoring log of one race — every (car, lap) record plus event
// metadata — and CarSeries, the per-car lap-major view the forecasting
// pipeline consumes. CSV round-trip matches the Fig. 1(a) table layout.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/record.hpp"
#include "util/csv.hpp"

namespace ranknet::telemetry {

/// Static description of an event (paper Table II row).
struct EventInfo {
  std::string name;            // "Indy500", "Texas", ...
  int year = 0;
  double track_length_miles = 0.0;
  std::string track_shape;     // "Oval", "Triangle"
  int total_laps = 0;
  double avg_speed_mph = 0.0;
};

/// Lap-major series for a single car. Index 0 corresponds to lap 1; a car
/// that retires early simply has a shorter series.
struct CarSeries {
  int car_id = 0;
  std::vector<double> rank;                // observed rank per lap
  std::vector<double> lap_time;            // seconds
  std::vector<double> time_behind_leader;  // seconds
  std::vector<LapStatus> lap_status;
  std::vector<TrackStatus> track_status;

  std::size_t laps() const { return rank.size(); }
  bool pit(std::size_t lap_idx) const {
    return lap_status[lap_idx] == LapStatus::kPit;
  }
  bool yellow(std::size_t lap_idx) const {
    return track_status[lap_idx] == TrackStatus::kYellow;
  }
  /// Lap indices (0-based) of all pit stops.
  std::vector<std::size_t> pit_laps() const;
};

/// Immutable once built: every constructor ends in build_views(), which
/// also fixes the digest.
class RaceLog {
 public:
  RaceLog() : RaceLog(EventInfo{}, {}) {}
  RaceLog(EventInfo info, std::vector<LapRecord> records);

  const EventInfo& info() const { return info_; }
  const std::vector<LapRecord>& records() const { return records_; }
  std::size_t num_records() const { return records_.size(); }

  /// Ids of all cars that appear in the log, ascending.
  const std::vector<int>& car_ids() const { return car_ids_; }

  /// Per-car lap-major view; throws std::out_of_range for unknown ids.
  const CarSeries& car(int car_id) const;
  const std::map<int, CarSeries>& cars() const { return cars_; }

  /// Largest completed lap across all cars.
  int num_laps() const { return num_laps_; }

  /// Car id of the race winner (rank 1 on its final lap, longest distance).
  int winner() const;

  util::CsvTable to_csv() const;
  static RaceLog from_csv(const EventInfo& info, const util::CsvTable& table);

  /// A short identifier like "Indy500-2018".
  std::string id() const;

  /// FNV-1a over everything a forecast reads: id, lap count, and every
  /// per-car series (rank, lap time, lap/track status) in ascending car-id
  /// order. Computed once at construction, so cache keys and race caches
  /// can key on content in O(1).
  std::uint64_t digest() const { return digest_; }

 private:
  void build_views();
  std::uint64_t compute_digest() const;

  EventInfo info_;
  std::vector<LapRecord> records_;
  std::vector<int> car_ids_;
  std::map<int, CarSeries> cars_;
  int num_laps_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace ranknet::telemetry
