#include "telemetry/race_log.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fnv1a.hpp"
#include "util/string_util.hpp"

namespace ranknet::telemetry {

std::vector<std::size_t> CarSeries::pit_laps() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lap_status.size(); ++i) {
    if (lap_status[i] == LapStatus::kPit) out.push_back(i);
  }
  return out;
}

RaceLog::RaceLog(EventInfo info, std::vector<LapRecord> records)
    : info_(std::move(info)), records_(std::move(records)) {
  std::sort(records_.begin(), records_.end(),
            [](const LapRecord& a, const LapRecord& b) {
              if (a.lap != b.lap) return a.lap < b.lap;
              return a.rank < b.rank;
            });
  build_views();
}

void RaceLog::build_views() {
  cars_.clear();
  car_ids_.clear();
  num_laps_ = 0;
  for (const auto& r : records_) {
    auto& series = cars_[r.car_id];
    series.car_id = r.car_id;
    if (r.lap != static_cast<int>(series.laps()) + 1) {
      throw std::invalid_argument(util::format(
          "RaceLog: car %d has non-contiguous laps (%d after %zu)", r.car_id,
          r.lap, series.laps()));
    }
    series.rank.push_back(static_cast<double>(r.rank));
    series.lap_time.push_back(r.lap_time);
    series.time_behind_leader.push_back(r.time_behind_leader);
    series.lap_status.push_back(r.lap_status);
    series.track_status.push_back(r.track_status);
    num_laps_ = std::max(num_laps_, r.lap);
  }
  for (const auto& [id, _] : cars_) car_ids_.push_back(id);
  digest_ = compute_digest();
}

std::uint64_t RaceLog::compute_digest() const {
  util::Fnv1a h;
  const std::string race_id = id();
  h.update_bytes(race_id.data(), race_id.size());
  h.update_u64(static_cast<std::uint64_t>(num_laps_));
  for (const auto& [car_id, car] : cars_) {
    h.update_u64(static_cast<std::uint64_t>(car_id));
    h.update_u64(static_cast<std::uint64_t>(car.laps()));
    for (std::size_t t = 0; t < car.laps(); ++t) {
      h.update_double(car.rank[t]);
      h.update_double(car.lap_time[t]);
      h.update_u64(static_cast<std::uint64_t>(car.lap_status[t]));
      h.update_u64(static_cast<std::uint64_t>(car.track_status[t]));
    }
  }
  return h.digest();
}

const CarSeries& RaceLog::car(int car_id) const {
  const auto it = cars_.find(car_id);
  if (it == cars_.end()) {
    throw std::out_of_range(util::format("RaceLog: unknown car %d", car_id));
  }
  return it->second;
}

int RaceLog::winner() const {
  int best_car = -1;
  std::size_t best_laps = 0;
  for (const auto& [id, series] : cars_) {
    if (series.laps() > best_laps ||
        (series.laps() == best_laps && best_car >= 0 &&
         series.rank.back() < cars_.at(best_car).rank.back())) {
      best_car = id;
      best_laps = series.laps();
    }
  }
  return best_car;
}

std::string RaceLog::id() const {
  return util::format("%s-%d", info_.name.c_str(), info_.year);
}

util::CsvTable RaceLog::to_csv() const {
  util::CsvTable table({"Rank", "CarId", "Lap", "LapTime", "TimeBehindLeader",
                        "LapStatus", "TrackStatus"});
  for (const auto& r : records_) {
    table.add_row({std::to_string(r.rank), std::to_string(r.car_id),
                   std::to_string(r.lap), util::format("%.4f", r.lap_time),
                   util::format("%.4f", r.time_behind_leader),
                   std::string(1, to_char(r.lap_status)),
                   std::string(1, to_char(r.track_status))});
  }
  return table;
}

RaceLog RaceLog::from_csv(const EventInfo& info, const util::CsvTable& table) {
  std::vector<LapRecord> records;
  records.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    LapRecord rec;
    rec.rank = static_cast<int>(table.cell_long(r, "Rank"));
    rec.car_id = static_cast<int>(table.cell_long(r, "CarId"));
    rec.lap = static_cast<int>(table.cell_long(r, "Lap"));
    rec.lap_time = table.cell_double(r, "LapTime");
    rec.time_behind_leader = table.cell_double(r, "TimeBehindLeader");
    rec.lap_status = table.cell(r, "LapStatus") == "P" ? LapStatus::kPit
                                                       : LapStatus::kNormal;
    rec.track_status = table.cell(r, "TrackStatus") == "Y"
                           ? TrackStatus::kYellow
                           : TrackStatus::kGreen;
    records.push_back(rec);
  }
  return RaceLog(info, std::move(records));
}

}  // namespace ranknet::telemetry
