// RankNet: the paper's proposed forecaster (Fig. 5a) and its variants.
//
// Forecasting follows Algorithm 2 at race level:
//  1. future race status is obtained per variant —
//       Oracle    : ground-truth future TrackStatus/LapStatus (upper bound),
//       PitModel  : LapStatus sampled from the probabilistic MLP PitModel
//                   per sample realization, TrackStatus assumed green,
//       Joint     : no covariates; status dims are part of the sampled
//                   multivariate target,
//  2. the RankModel (stacked-LSTM, Gaussian output) rolls forward by
//     ancestral sampling, feeding each sampled rank back as the next lag,
//  3. per-sample sorting across cars converts values to rank positions.
//
// DeepAR is the same machinery with zero covariates (paper Table III).
//
// Per-race LSTM state traces are cached so that evaluating hundreds of
// forecast origins per race costs one encoder pass over the race instead of
// one per origin. The pass runs each group of equal-length cars as one
// batch and keeps a car's encoder state only every 4th lap: 320 B per
// car-lap instead of 1,280 B at the paper's 2 x 40 stack. A forecast that
// starts between two kept laps replays at most 3 teacher-forced steps for
// the whole field in one batch, once, and its partitions share the result,
// bit for bit the traced state (DESIGN.md "Checkpointed encoder traces").
// Under the PitModel the status realizations of a forecast are drawn once,
// over only the laps the decoder reads, and shared by all of its car
// partitions; one StatusSampler (core/status_forecast.hpp) does the work
// its samples share once, so each sample only draws and writes its rows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ar_model.hpp"
#include "core/forecaster.hpp"
#include "core/pit_model.hpp"
#include "core/transformer_model.hpp"
#include "features/window.hpp"

namespace ranknet::core {

enum class StatusSource { kOracle, kPitModel, kJoint };

const char* status_source_name(StatusSource s);

/// MC decode strategy (DESIGN.md "Decode tree & forecast cache").
///  kIndependent — every (car, sample) row rolls through the whole decode
///                 at full row width (the historical path).
///  kTree        — rows with byte-identical prefix inputs share the
///                 encoder-tail replay and the first decode step at branch
///                 width, forking at their first noise draw. Bit-identical
///                 to kIndependent by construction (proved differentially
///                 in tests/test_decode_tree.cpp), strictly less work.
enum class DecodeMode { kIndependent, kTree };

class RankNetForecaster : public RaceForecaster,
                          public PartitionableForecaster {
 public:
  RankNetForecaster(std::shared_ptr<const LstmSeqModel> model,
                    std::shared_ptr<const PitModel> pit_model,
                    features::CarVocab vocab,
                    features::CovariateConfig cov_config, StatusSource source,
                    std::string name);

  /// Books its traces off the ranknet.trace_bytes gauge.
  ~RankNetForecaster() override;

  std::string name() const override { return name_; }

  /// Equivalent to forecast_partition over the full forecast_cars set with
  /// base = rng() — see the PartitionableForecaster contract.
  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, util::Rng& rng) override;

  // PartitionableForecaster -------------------------------------------
  void prepare(const telemetry::RaceLog& race) override;
  std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                 int origin_lap) override;
  /// Child streams: per-row noise from Rng::stream(base, car_id, sample+1);
  /// kPitModel's coupled status realization for sample s from
  /// Rng::stream(base, s, 0), always over the full forecast_cars set. The
  /// realization is drawn once per forecast: the first partition of a
  /// (race, origin, horizon, samples, base) key fills a small per-instance
  /// forecast context, and every later partition of that key reads it, so
  /// all partitions decode against the same bytes.
  RaceSamples forecast_partition(const telemetry::RaceLog& race,
                                 int origin_lap, int horizon, int num_samples,
                                 std::uint64_t base,
                                 std::span<const int> cars) override;

  /// Drop cached traces and forecast contexts (e.g. between races to bound
  /// memory).
  void clear_cache();

  /// Decode strategy; kTree unless set. The differential tests flip this
  /// to prove kTree bit-identical to kIndependent.
  void set_decode_mode(DecodeMode mode) { decode_mode_ = mode; }
  DecodeMode decode_mode() const { return decode_mode_; }

 private:
  struct CarCache {
    std::vector<double> history;  // observed ranks
    features::StatusStreams streams;
    /// Ground-truth covariate rows, one per lap, cov_config.dim() values
    /// each, back to back: the Oracle, Joint and DeepAR decode read them in
    /// place. kPitModel decodes against sampled rows only, so it keeps
    /// none; a checkpoint replay rebuilds the few rows it needs from
    /// `streams`.
    std::vector<double> covariates;
    /// Steps 0, K, 2K, ... of LstmSeqModel::trace_flat of the log (K =
    /// kTraceEvery in ranknet.cpp), back to back: trace_checkpoints' layout.
    std::vector<double> trace;
  };
  /// Per-race caches are keyed on the race id and hold the content digest
  /// (RaceLog::digest) of the log they were built from: a log reloaded
  /// under the same id with other content — a live race that has moved on,
  /// or a corrected lap — no longer matches, and its entry is rebuilt.
  struct RaceCache {
    std::uint64_t digest = 0;
    std::uint64_t generation = 0;  // unique per build, never reused
    std::map<int, CarCache> cars;
  };

  /// One forecast's kPitModel status realization, shared by its partitions.
  /// Holds the covariate rows the decoder reads, laps origin - tail + 1 ..
  /// origin + horizon (`window` = tail + horizon rows) for every car of
  /// `cars` (= forecast_cars) and sample: row k of car i in sample s starts
  /// at rows[((s * cars.size() + i) * window + k) * dim]. A (car, sample)
  /// row's window is one contiguous run, so its tail replay and decode
  /// read it in place, and the decode tree compares its prefix (rows 0 ..
  /// tail) in place too.
  struct ForecastContext {
    std::uint64_t generation = 0;  // of the RaceCache it was drawn over
    int origin = 0;
    int horizon = 0;
    int samples = 0;
    std::uint64_t base = 0;
    std::mutex fill_mutex;
    bool filled = false;  // guarded by fill_mutex; the rest is then const
    std::vector<int> cars;
    std::vector<double> rows;
  };

  /// The encoder state of every car of a race cache after one trace step
  /// the cache does not keep, replayed from the checkpoint below it. Like
  /// a ForecastContext, the first partition that needs it fills it and the
  /// other partitions of its forecasts read it.
  struct ReplayedStep {
    std::uint64_t generation = 0;  // of the RaceCache it was replayed over
    std::size_t step = 0;
    std::mutex fill_mutex;
    bool filled = false;  // guarded by fill_mutex; the rest is then const
    std::vector<int> cars;       // ascending: every car traced past `step`
    std::vector<double> states;  // one flat trace step per car
  };

  const RaceCache& race_cache(const telemetry::RaceLog& race);
  /// Read-only lookup (no insertion) — the thread-safe path used by
  /// forecast_partition after prepare() has warmed the cache. A stale entry
  /// (same id, other digest) is not found.
  const RaceCache* find_cache(const telemetry::RaceLog& race) const;
  /// The filled context of a forecast key; the first caller draws it.
  std::shared_ptr<const ForecastContext> forecast_context(
      const RaceCache& rc, int origin_lap, int horizon, int num_samples,
      std::uint64_t base, int tail);
  /// The filled replayed step; the first caller replays it.
  std::shared_ptr<const ReplayedStep> replayed_step(const RaceCache& rc,
                                                    std::size_t step);

  std::shared_ptr<const LstmSeqModel> model_;
  std::shared_ptr<const PitModel> pit_model_;  // only for kPitModel
  features::CarVocab vocab_;
  features::CovariateConfig cov_config_;
  StatusSource source_;
  std::string name_;
  DecodeMode decode_mode_ = DecodeMode::kTree;
  std::map<std::string, RaceCache> cache_;
  std::uint64_t generations_ = 0;  // RaceCache builds so far
  /// The last few forecast contexts and replayed steps, oldest first.
  /// Partitions of one forecast run back to back (or side by side on the
  /// engine pool), so a handful of slots also covers forecasts interleaved
  /// on one instance. contexts_mutex_ guards both lists.
  std::mutex contexts_mutex_;
  std::vector<std::shared_ptr<ForecastContext>> contexts_;
  std::vector<std::shared_ptr<ReplayedStep>> replays_;
};

/// Transformer-based RankNet (paper Section IV-I): same Algorithm-2
/// pipeline, attention stack instead of the LSTM. Supports the Oracle and
/// PitModel status sources.
class TransformerForecaster : public RaceForecaster {
 public:
  TransformerForecaster(std::shared_ptr<const TransformerSeqModel> model,
                        std::shared_ptr<const PitModel> pit_model,
                        features::CarVocab vocab,
                        features::CovariateConfig cov_config,
                        StatusSource source, std::string name);

  std::string name() const override { return name_; }

  RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                       int horizon, int num_samples, util::Rng& rng) override;

 private:
  struct CarCache {
    std::vector<double> history;
    features::StatusStreams streams;
    std::vector<std::vector<double>> covariates;  // empty under kPitModel
  };
  struct RaceCache {
    std::uint64_t digest = 0;  // RaceLog::digest of the log it was built from
    std::map<int, CarCache> cars;
  };
  const RaceCache& race_cache(const telemetry::RaceLog& race);

  std::shared_ptr<const TransformerSeqModel> model_;
  std::shared_ptr<const PitModel> pit_model_;
  features::CarVocab vocab_;
  features::CovariateConfig cov_config_;
  StatusSource source_;
  std::string name_;
  std::map<std::string, RaceCache> cache_;
};

}  // namespace ranknet::core
