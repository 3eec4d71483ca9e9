// Deterministic parallel Monte-Carlo forecast engine.
//
// Wraps any RaceForecaster and fans the per-car sample generation out
// across a fixed-size util::ThreadPool. Correctness rests on the
// PartitionableForecaster contract (core/forecaster.hpp): every source of
// randomness is a child stream derived from one base draw via
// util::Rng::stream keyed by (car id, sample), so each car's trajectory
// matrix is a pure function of (model, race, origin, base) — never of which
// thread computed it, how cars were grouped into tasks, or in what order
// tasks ran. Results are therefore bit-identical for any thread count,
// including 1, and identical to calling the wrapped forecaster directly.
//
// This holds under SIMD kernel dispatch (tensor::kernels) because
// partitioning stays per-car: a car's K-sample lockstep batch is decoded
// whole inside one task, and every dispatched kernel is row-independent
// with a fixed per-element operation order, so batch width and task
// grouping never change any sample's bits (tests/test_kernel_equivalence
// re-proves engine output at threads {1,2,8} under the avx2 variant).
//
// Forecasters that do not implement PartitionableForecaster (e.g. the
// Transformer) are delegated to unchanged on the calling thread.
//
// Degradation ladder (serving robustness): an optional DegradationPolicy
// arms three graceful-degradation tiers instead of crashing or stalling —
//   tier 0  full primary model (the wrapped forecaster),
//   tier 1  per-car fallback when the car's telemetry is too damaged
//           (policy.series_damaged, fed by telemetry::StreamIngestor),
//   tier 2  fallback for every car whose task missed the per-forecast
//           deadline or threw. The same rule holds on pool workers and
//           inline (threads == 0): a block is primary only if it completed
//           by the deadline, a block that would start after the deadline
//           does not run, and completed on-time partitions are kept
//           (partial-sample merge).
// The fallback must itself be a PartitionableForecaster (CurRank is the
// canonical choice) and is driven from the same `base` draw, so degraded
// forecasts stay deterministic. With a default-constructed policy the
// engine is bit-identical to the pre-ladder behaviour. Health is booked in
// per-engine Degradation stats and, summed over every engine, in the
// obs::Registry ("degradation.*"), next to the "engine.*" wall-time metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "core/forecast_cache.hpp"
#include "core/forecaster.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace ranknet::core {

class ParallelForecastEngine : public RaceForecaster {
 public:
  /// Policy for the degradation ladder; default-constructed = disabled.
  struct DegradationPolicy {
    /// Per-forecast wall-clock budget; 0 disables the deadline tier.
    double deadline_seconds = 0.0;
    /// Tier-1/2 model (must implement PartitionableForecaster to engage).
    std::shared_ptr<RaceForecaster> fallback;
    /// Cars whose series is too damaged for the primary model at this
    /// origin; null = no damage tier.
    std::function<bool(int car_id, int origin_lap)> series_damaged;
  };

  /// Per-engine degradation tallies (also summed into "degradation.*").
  struct Degradation {
    std::uint64_t full_cars = 0;               // served by the primary
    std::uint64_t damaged_fallback_cars = 0;   // tier 1
    std::uint64_t deadline_fallback_cars = 0;  // tier 2 (deadline)
    std::uint64_t error_fallback_cars = 0;     // tier 2 (task threw)
    std::uint64_t deadline_hits = 0;           // forecasts that hit deadline
    std::uint64_t task_failures = 0;           // primary tasks that threw
    std::uint64_t fallback_cars() const {
      return damaged_fallback_cars + deadline_fallback_cars +
             error_fallback_cars;
    }
  };
  /// Wall-time bookkeeping (also summed into "engine.*").
  struct Stats {
    std::uint64_t forecasts = 0;  // forecast() calls served
    std::uint64_t cache_hits = 0; // forecasts answered from the cache
    std::uint64_t tasks = 0;      // partition tasks executed
    double task_seconds = 0.0;    // summed per-task wall time
    double wall_seconds = 0.0;    // summed end-to-end forecast() wall time
    /// task_seconds / wall_seconds: ~thread count when scaling is perfect,
    /// ~1 when the workload is serialized.
    double concurrency() const {
      return wall_seconds > 0.0 ? task_seconds / wall_seconds : 0.0;
    }
  };

  /// Non-owning wrap. `threads` == 0 runs every task inline on the calling
  /// thread (sequential mode, same code path). `max_cars_per_task` bounds
  /// task granularity so many small tasks can load-balance across workers.
  explicit ParallelForecastEngine(RaceForecaster& wrapped,
                                  std::size_t threads,
                                  std::size_t max_cars_per_task = 4);
  /// Owning wrap (keeps the forecaster alive alongside the engine).
  ParallelForecastEngine(std::shared_ptr<RaceForecaster> wrapped,
                         std::size_t threads,
                         std::size_t max_cars_per_task = 4);

  std::string name() const override { return wrapped_.name(); }

  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, util::Rng& rng) override;

  /// Keyed entry point: forecast from an explicit rng stream base instead
  /// of drawing one from a caller generator. For a partitionable wrapped
  /// forecaster, `forecast(rng)` is exactly `forecast_with_base(rng())` —
  /// so any caller that derives `base` as a pure function of a job key
  /// (race, origin, shape, season seed) gets bytes that are independent of
  /// which engine/shard/thread runs the job, which is the contract the
  /// fleet's reshard invariance rests on (core/fleet_engine.hpp).
  /// Non-partitionable forecasters are delegated to with a generator
  /// derived from `base` via util::Rng::stream (documented divergence from
  /// forecast(rng), which hands them the caller's generator).
  RaceSamples forecast_with_base(const telemetry::RaceLog& race,
                                 int origin_lap, int horizon, int num_samples,
                                 std::uint64_t base);

  std::size_t threads() const { return pool_.size(); }
  /// True when the wrapped forecaster supports partitioned fan-out.
  bool partitioned() const { return partitioned_ != nullptr; }

  /// Arm (or disarm, with a default-constructed policy) the degradation
  /// ladder. Fails fast — leaving the current policy untouched — when the
  /// fallback is not a PartitionableForecaster or when deadline_seconds is
  /// not a finite value >= 0 (a NaN or negative deadline would otherwise
  /// silently disable the deadline tier: every `deadline > 0.0` comparison
  /// in the forecast path is false for them).
  [[nodiscard]] util::Status set_degradation_policy(DegradationPolicy policy);

  /// Attach (or detach, with nullptr) a forecast cache. Only fully-primary
  /// partitioned forecasts are cached (no fallback, deadline, or error
  /// involvement — degraded results must not be replayed once the system
  /// recovers; non-partitioned delegation consumes an unknown amount of rng
  /// state, so it cannot be keyed). A hit consumes the same single base
  /// draw a cold forecast would, then returns the cached bytes verbatim —
  /// byte-identical by the purity argument in forecast_cache.hpp. The
  /// cache may be shared across engines (it is thread-safe).
  void set_forecast_cache(std::shared_ptr<ForecastCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<ForecastCache>& forecast_cache() const {
    return cache_;
  }
  /// Weights token for the cache key. Defaults to a digest of the wrapped
  /// forecaster's name; callers MUST bump it when the wrapped model's
  /// weights change under the same name, or stale forecasts will be served.
  void set_model_version(std::uint64_t version) { model_version_ = version; }
  std::uint64_t model_version() const { return model_version_; }
  /// The forecast-cache key of one request: race digest, request shape,
  /// rng stream `base`, model_version() and the active kernel variant. The
  /// engine's own lookup and any caller probing the cache directly (the
  /// server's overload tier) build keys here, so the two always agree.
  ForecastCacheKey cache_key(const telemetry::RaceLog& race, int origin_lap,
                             int horizon, int num_samples,
                             std::uint64_t base) const;

  Stats stats() const;
  Degradation degradation() const;
  void reset_stats();

 private:
  /// Plain delegation for non-partitionable forecasters (calling thread,
  /// caller-supplied generator).
  RaceSamples delegate_forecast(const telemetry::RaceLog& race, int origin_lap,
                                int horizon, int num_samples, util::Rng& rng);

  std::shared_ptr<RaceForecaster> owned_;  // null for the non-owning ctor
  RaceForecaster& wrapped_;
  PartitionableForecaster* partitioned_;  // null -> sequential delegation
  util::ThreadPool pool_;
  std::size_t max_cars_per_task_;
  DegradationPolicy policy_;
  PartitionableForecaster* fallback_part_ = nullptr;  // view into policy_
  std::shared_ptr<ForecastCache> cache_;  // null = caching off
  std::uint64_t model_version_ = 0;
  mutable std::mutex stats_mutex_;
  Stats stats_;
  Degradation degradation_;
};

}  // namespace ranknet::core
