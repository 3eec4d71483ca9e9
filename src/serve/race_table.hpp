// RaceTable: the server's race store, sharded by race key.
//
// The PR-7 server kept one `races_mutex_` over one map, taken on EVERY
// request — once at admission and once again on the worker hot path. With
// per-race shard routing that global lock is the last process-wide
// serialization point, so it is replaced here by hash-sharded buckets
// (same FNV-1a race key the fleet routes by) and by snapshot semantics:
// find() returns a shared_ptr to an immutable RaceLog, resolved ONCE at
// admission and pinned in the queued request. The worker never looks a
// race up again — a concurrent add_race replacing the entry produces a new
// snapshot for new admissions while in-flight requests keep the state they
// were admitted against (and with it a digest, RaceLog::digest, that still
// matches their cached/deduped bytes).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/race_log.hpp"

namespace ranknet::serve {

class RaceTable {
 public:
  explicit RaceTable(std::size_t buckets = 16);

  RaceTable(const RaceTable&) = delete;
  RaceTable& operator=(const RaceTable&) = delete;

  /// Insert or replace the entry for `race.id()` (replaced wholesale; a
  /// held snapshot of the old entry stays valid).
  void insert(telemetry::RaceLog race);

  /// Snapshot lookup: the returned entry is immutable and safe to hold for
  /// the life of a request regardless of concurrent inserts. Null on miss.
  std::shared_ptr<const telemetry::RaceLog> find(
      const std::string& race_id) const;

  std::size_t size() const;
  std::size_t buckets() const { return buckets_.size(); }

 private:
  struct Bucket {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<const telemetry::RaceLog>>
        map;
  };

  Bucket& bucket_for(const std::string& race_id) const;

  std::vector<std::unique_ptr<Bucket>> buckets_;
};

}  // namespace ranknet::serve
