// Shared Algorithm-2 step 1: sampling coupled future race-status
// realizations for every car from the PitModel, and assembling the
// covariate rows the decoder reads (ground truth through the origin lap,
// predictions after). Used by both the LSTM and the Transformer RankNet
// forecasters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/pit_model.hpp"
#include "features/window.hpp"

namespace ranknet::core {

/// Accumulation features (CautionLaps, PitAge) at the end of `origin` laps.
PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin);

/// The PitModel race-status realizations of one forecast.
///
/// Construction does the work every sample shares: per car the age state at
/// row `lo`, the observed status rows [lo, origin), and the PitModel
/// prediction for the stint running at the origin, plus one prediction for
/// a fresh stint (the same for every car). sample() then only draws: per car
/// in the given order, successive stints over the horizon + shift laps
/// after the origin (exactly PitModel::sample_future_lap_status's draws),
/// then TotalPitCount
/// and LeaderPitCount of the future laps (TrackStatus assumed green, leaders
/// by the rank order frozen at the origin), and writes each car's covariate
/// rows [lo, origin + horizon) through features::write_covariate_row.
///
/// Every row equals the same row of a full-race (lo = 0) build bit for bit
/// and the draws do not depend on `lo`, so a caller builds only the rows it
/// reads. Construction opens a new epoch of the thread's workspace for the
/// PitModel session; the sampler keeps plain values, not workspace views,
/// so callers may start new epochs between samples.
class StatusSampler {
 public:
  struct Car {
    const features::StatusStreams* streams;  // at least `origin` laps
    double origin_rank;                      // rank at lap `origin`
  };

  /// Requires lo <= origin.
  StatusSampler(const PitModel& pit_model,
                const features::CovariateConfig& config,
                std::span<const Car> cars, std::size_t origin,
                std::size_t horizon, std::size_t lo);

  /// Covariate rows written per car: origin - lo + horizon.
  std::size_t rows() const { return rows_; }
  /// Values one sample writes: cars × rows() × config.dim().
  std::size_t sample_size() const;

  /// Draw one realization from `rng` and write it to `out`
  /// (sample_size() values): row k of car i starts at
  /// out[(i * rows() + k) * config.dim()].
  void sample(util::Rng& rng, std::span<double> out);

 private:
  features::CovariateConfig config_;
  std::size_t observed_, future_, rows_;
  std::vector<double> rank_;                 // per car
  std::vector<features::AgeState> start_;    // per car, after row lo
  std::vector<PitModel::Prediction> first_;  // per car, stint at the origin
  PitModel::Prediction fresh_;               // a stint after a stop
  /// Per car, its status rows [lo, origin + future): the observed rows are
  /// fixed, the future rows are rewritten by every sample.
  std::vector<features::StatusStreams> windows_;
  std::vector<double> pit_ranks_;  // scratch: origin ranks of cars pitting
};

}  // namespace ranknet::core
