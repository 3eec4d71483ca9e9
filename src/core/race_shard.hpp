// RaceShard: the unit of per-race isolation in the fleet engine.
//
// Everything that used to be process-wide (or engine-wide) state when the
// stack served one race at a time is owned per shard here:
//   * its own forecaster instance (so PartitionableForecaster::prepare's
//     single-threaded per-race warm-up never races across shards),
//   * its own ParallelForecastEngine — and with it a private
//     util::ThreadPool for per-car fan-out and per-thread workspaces,
//   * its own ForecastCache slice (optional), so cache hits never cross a
//     shard lock,
//   * a single-threaded driver pool for whole-forecast jobs, which is what
//     lets N shards run N races concurrently while each shard's
//     policy/stats/cache stay single-writer.
//
// Bytes never depend on shard identity: forecast() takes an explicit rng
// stream base and routes through ParallelForecastEngine::forecast_with_base,
// so the output is a pure function of (model, race, request shape, base) —
// the invariant core/fleet_engine.hpp's reshard property tests pin down.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ranknet::core {

/// Per-shard sizing knobs; one copy shared by every shard in a fleet.
struct ShardConfig {
  /// Engine pool threads for per-car fan-out inside one forecast;
  /// 0 = inline (sequential) mode.
  std::size_t engine_threads = 0;
  std::size_t max_cars_per_task = 4;
  /// Per-shard forecast cache capacity; 0 = no shard-local cache (a shared
  /// cache may still be injected by the fleet). A shard-local cache has one
  /// stripe: only the shard's own driver uses it.
  std::size_t cache_capacity = 0;
};

class RaceShard {
 public:
  /// `shared_cache`, when non-null, overrides the shard-local cache — the
  /// serving registry uses this so generations keep deduping through one
  /// (striped) cache across shards and hot-swaps.
  RaceShard(std::size_t index, std::shared_ptr<RaceForecaster> forecaster,
            const ShardConfig& config,
            std::shared_ptr<ForecastCache> shared_cache = nullptr);

  RaceShard(const RaceShard&) = delete;
  RaceShard& operator=(const RaceShard&) = delete;

  std::size_t index() const { return index_; }
  const std::shared_ptr<RaceForecaster>& forecaster() const {
    return forecaster_;
  }
  const std::shared_ptr<ParallelForecastEngine>& engine() const {
    return engine_;
  }
  const std::shared_ptr<ForecastCache>& cache() const { return cache_; }

  /// Keyed whole-forecast on the calling thread. Pure function of
  /// (model, race, origin, horizon, num_samples, base); books
  /// fleet.shard.<i>.forecasts.
  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, std::uint64_t base);

  /// Run a whole-forecast job (or any shard-affine work, e.g. a serving
  /// micro-batch) on the shard's driver. Jobs submitted to one shard run
  /// in FIFO order on a single thread, which is what makes per-shard
  /// engine policy mutation safe without a lock.
  ///
  /// Lifetime contract: the SUBMITTER must hold a reference (e.g. the
  /// shared_ptr it routed with) until the returned future completes. The
  /// job callable must NOT own the shard: the driver destroys the callable
  /// after fulfilling the future, so a job holding the last shared_ptr
  /// would run ~RaceShard — and join the driver thread — from the driver
  /// thread itself.
  template <typename Fn>
  auto submit(Fn&& fn) {
    jobs_->add(1);
    return driver_.submit(std::forward<Fn>(fn));
  }

  /// Driver jobs accepted but not yet running (load signal for routing).
  std::size_t queue_depth() const { return driver_.queue_depth(); }

 private:
  std::size_t index_;
  std::shared_ptr<RaceForecaster> forecaster_;
  std::shared_ptr<ForecastCache> cache_;  // null when caching is off
  std::shared_ptr<ParallelForecastEngine> engine_;
  util::ThreadPool driver_;
  obs::Counter* forecasts_;  // fleet.shard.<i>.forecasts
  obs::Counter* jobs_;       // fleet.shard.<i>.jobs
};

}  // namespace ranknet::core
