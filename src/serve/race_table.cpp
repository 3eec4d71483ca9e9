#include "serve/race_table.hpp"

#include <utility>

#include "core/fleet_engine.hpp"

namespace ranknet::serve {

RaceTable::RaceTable(std::size_t buckets) {
  const std::size_t n = buckets == 0 ? 1 : buckets;
  buckets_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
}

RaceTable::Bucket& RaceTable::bucket_for(const std::string& race_id) const {
  // Same stable route key the fleet shards by, so one race's admission
  // lookups and forecasts contend with (at most) their own shard's traffic.
  return *buckets_[static_cast<std::size_t>(
      core::FleetEngine::race_key(race_id) % buckets_.size())];
}

void RaceTable::insert(telemetry::RaceLog race) {
  auto id = race.id();
  auto entry = std::make_shared<const telemetry::RaceLog>(std::move(race));
  Bucket& b = bucket_for(id);
  std::lock_guard<std::mutex> lock(b.mutex);
  b.map[std::move(id)] = std::move(entry);
}

std::shared_ptr<const telemetry::RaceLog> RaceTable::find(
    const std::string& race_id) const {
  Bucket& b = bucket_for(race_id);
  std::lock_guard<std::mutex> lock(b.mutex);
  const auto it = b.map.find(race_id);
  return it == b.map.end() ? nullptr : it->second;
}

std::size_t RaceTable::size() const {
  std::size_t total = 0;
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> lock(b->mutex);
    total += b->map.size();
  }
  return total;
}

}  // namespace ranknet::serve
