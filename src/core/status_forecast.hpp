// Shared Algorithm-2 step 1: sampling one coupled future race-status
// realization for every car from the PitModel, and assembling full-length
// covariate rows (ground truth through the origin lap, predictions after).
// Used by both the LSTM and the Transformer RankNet forecasters.
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "core/pit_model.hpp"
#include "features/window.hpp"

namespace ranknet::core {

/// FNV-1a digest (core::Fnv1a) over the bit patterns of a sequence of
/// covariate rows. The decode tree uses it as the fork signature: MC
/// samples whose realized pit/caution covariates coincide bit-for-bit over
/// the shared-prefix window (encoder-tail laps + the first decode lap) land
/// in the same branch. Hashing bit patterns — not values — keeps the
/// grouping aligned with the byte-identity contract (0.0 and -0.0 differ).
std::uint64_t covariate_window_digest(
    std::span<const std::span<const double>> rows);

/// Accumulation features (CautionLaps, PitAge) at the end of `origin` laps.
PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin);

/// One sampled race-status realization: per-car covariate rows for the
/// 0-based rows [lo, origin + future_len), i.e. laps lo+1..origin+future_len
/// (element k of a car's vector is row lo + k). Rows before the origin hold
/// ground truth, later rows the sampled future. TrackStatus is assumed green
/// in the future; LeaderPitCount uses the rank order frozen at the origin.
///
/// The draws do not depend on `lo`, and every row equals the same row of
/// the lo = 0 (full-race) build bit for bit, so a caller builds only the
/// rows it reads. Requires lo <= origin and streams of at least lo laps.
std::map<int, std::vector<std::vector<double>>> sample_status_realization(
    const std::map<int, const features::StatusStreams*>& streams,
    const std::map<int, double>& origin_rank, const PitModel& pit_model,
    const features::CovariateConfig& config, std::size_t origin,
    std::size_t future_len, std::size_t lo, util::Rng& rng);

}  // namespace ranknet::core
