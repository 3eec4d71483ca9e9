// Sliding-window sequence dataset construction for the encoder-decoder
// models (paper Fig. 5a: encoder length L0, decoder length k), plus the
// covariate assembly shared between training (ground-truth race status) and
// forecasting (race status predicted by the PitModel / oracle).
#pragma once

#include <cstddef>
#include <vector>

#include "features/transforms.hpp"
#include "telemetry/race_log.hpp"

namespace ranknet::features {

/// Which covariates enter the network (paper Table I + Fig. 7 steps 3-4).
struct CovariateConfig {
  bool race_status = true;   // TrackStatus, LapStatus (RankNet; off = DeepAR)
  bool age_features = true;  // CautionLaps, PitAge accumulation transforms
  bool context_features = true;  // LeaderPitCount, TotalPitCount (Fig.7 s3)
  bool shift_features = true;    // status/pit counts at lap t+shift (Fig.7 s4)
  int shift = 2;

  std::size_t dim() const;
};

/// Raw per-lap status streams for one car, extendable past the observed
/// horizon with predicted values during forecasting.
struct StatusStreams {
  std::vector<double> track_status;      // 1 = yellow
  std::vector<double> lap_status;        // 1 = pit
  std::vector<double> total_pit_count;   // race context, per lap
  std::vector<double> leader_pit_count;  // per car, per lap

  std::size_t laps() const { return track_status.size(); }
  /// Age-feature state after the first min(laps, laps()) laps.
  AgeState ages_after(std::size_t laps) const;
  /// Extract ground-truth streams for (race, car).
  static StatusStreams from_race(const telemetry::RaceLog& race, int car_id);
};

/// Write the covariate row of lap t of `streams` (config.dim() values) to
/// `row`; `ages` is the age-feature state after lap t. The one formula for
/// a row: build_covariates and the PitModel status sampler both call it.
void write_covariate_row(const StatusStreams& streams, std::size_t t,
                         const CovariateConfig& config, const AgeState& ages,
                         double* row);

/// Assemble the covariate vector for every lap in [0, streams.laps()).
/// Age features are recomputed from the (possibly predicted) statuses, so
/// the same code path serves training and forecasting.
///
/// `streams` may also be a window that starts mid-race: `start` is then the
/// age-feature state after the laps before the window (see
/// StatusStreams::ages_after), and the rows equal the matching rows of the
/// full-race build bit for bit. Shift features read ahead inside the
/// window, so the window must run to the end of the streams.
std::vector<std::vector<double>> build_covariates(const StatusStreams& streams,
                                                  const CovariateConfig& config,
                                                  AgeState start = {});

/// One training window: laps [begin, begin + enc + dec) of one car.
struct SeqExample {
  std::vector<std::vector<double>> covariates;  // enc+dec rows of dim()
  std::vector<double> target;                   // observed rank, enc+dec
  int car_index = 0;   // dense per-event car index for the embedding
  double weight = 1.0; // Fig. 7 step 1: upweight windows with rank changes
};

struct WindowConfig {
  int encoder_length = 60;
  int decoder_length = 2;
  int stride = 1;              // training windows start every `stride` laps
  double change_weight = 9.0;  // loss weight when the decoder has a change
  CovariateConfig covariates;
};

/// Maps raw car ids to dense embedding indices; unseen cars map to a
/// shared "unknown" slot so models generalize to new entry lists.
class CarVocab {
 public:
  CarVocab() = default;
  explicit CarVocab(const std::vector<telemetry::RaceLog>& races);

  /// Dense index for a car id (last slot = unknown).
  int index(int car_id) const;
  /// Total embedding rows (known cars + 1 unknown slot).
  int size() const;

  const std::vector<int>& ids() const { return ids_; }

 private:
  std::vector<int> ids_;  // sorted known ids
};

/// All training windows from a set of races.
std::vector<SeqExample> build_windows(
    const std::vector<telemetry::RaceLog>& races, const CarVocab& vocab,
    const WindowConfig& config);

}  // namespace ranknet::features
