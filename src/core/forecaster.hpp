// The forecasting interface every model implements.
//
// A race-level forecast at origin lap t0 with horizon H produces, for every
// car still running at t0, a (num_samples x H) matrix of sampled rank
// trajectories for laps t0+1 .. t0+H. Deterministic models return a single
// repeated row. The evaluation pipeline computes medians / quantiles /
// ρ-risk from the samples, and joint per-sample sorting converts raw sampled
// values into integer rank positions (paper Section III-C: "the final rank
// positions of the cars are calculated by sorting the sampled outputs").
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"
#include "telemetry/race_log.hpp"
#include "util/rng.hpp"

namespace ranknet::core {

/// car id -> (num_samples x horizon) sampled rank values.
using RaceSamples = std::map<int, tensor::Matrix>;

class RaceForecaster {
 public:
  virtual ~RaceForecaster() = default;

  virtual std::string name() const = 0;

  /// Forecast ranks for laps (origin_lap, origin_lap + horizon] for every
  /// car that has completed origin_lap. origin_lap is 1-based.
  virtual RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                               int horizon, int num_samples,
                               util::Rng& rng) = 0;
};

/// Mixin for forecasters whose per-car sample generation can be computed on
/// any subset of cars without changing per-car results — the contract the
/// parallel forecast engine (core/parallel_engine.hpp) fans out over.
///
/// The determinism contract:
///  * `forecast(rng)` must be exactly `prepare(race); base = rng();
///    forecast_partition(..., base, forecast_cars(...))` — so wrapping a
///    forecaster in the engine changes neither its output nor how it
///    consumes the caller's rng.
///  * `forecast_partition` must derive all randomness from `base` via
///    util::Rng::stream keyed by stable ids (car id, sample index), never
///    from shared mutable generator state. Per-car output must be
///    byte-identical for any car subset containing that car.
///  * Work that every partition of one forecast needs (RankNet's coupled
///    PitModel status realization) may be done once per forecast key and
///    shared, provided its bytes do not depend on which partition does it.
///  * After `prepare(race)` has run, `forecast_partition` must be safe to
///    call concurrently from multiple threads: read-only on the per-race
///    caches, and any per-forecast shared state filled once under a lock.
class PartitionableForecaster {
 public:
  virtual ~PartitionableForecaster() = default;

  /// Warm per-race caches; called once, single-threaded, before fan-out.
  virtual void prepare(const telemetry::RaceLog& race) = 0;

  /// Car ids the forecaster would emit at this origin (ascending order).
  virtual std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                         int origin_lap) = 0;

  /// Forecast only `cars` (a subset of forecast_cars) from seed material
  /// `base`. Keys child rng streams by (car id, sample) so the result for
  /// each car does not depend on which other cars share the call.
  virtual RaceSamples forecast_partition(const telemetry::RaceLog& race,
                                         int origin_lap, int horizon,
                                         int num_samples, std::uint64_t base,
                                         std::span<const int> cars) = 0;
};

/// Convert raw sampled values into integer ranks by sorting each
/// (sample, lap) slice across cars (ties broken by car id order). Every
/// car's matrix must share one (samples x horizon) shape; a ragged input
/// throws std::invalid_argument.
RaceSamples sort_to_ranks(const RaceSamples& raw);

/// Per-car median trajectory of a sample matrix (length = horizon).
std::vector<double> median_trajectory(const tensor::Matrix& samples);

/// Quantile of the sampled values at one horizon step.
double sample_quantile(const tensor::Matrix& samples, std::size_t lap_idx,
                       double q);

}  // namespace ranknet::core
