// Shared pieces of the end-to-end RankNet benchmark (see NOTES.md): the
// command-line options, the result record printed as the final JSON line,
// read-only model setup through core::ModelZoo, accuracy scoring, and the
// traced-run machinery (a timing decorator around RankNet-MLP plus
// before/after reads of the obs-registry counters the modules export).
#pragma once

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/forecaster.hpp"
#include "core/pit_model.hpp"
#include "core/ranknet.hpp"
#include "features/window.hpp"
#include "telemetry/race_log.hpp"

namespace perfbench {

using namespace ranknet;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout: server socket, span dumps.
  std::string work_dir = ".bench_build/perfbench/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Raised for any set-up or run failure that must end the process without
/// a result line (missing artifacts, a zoo that would train, a generator
/// that fell behind its schedule).
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- time, statistics, process --------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// Steady-clock time of process start (static initialization).
Clock::time_point process_start();

/// CPUs this process may run on (sched_getaffinity, like nproc).
int nproc();
/// ru_maxrss in MiB.
double peak_rss_mb();
/// Linear-interpolated quantile (q in [0,1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Quantile of a latency series given in time order: the median, over
/// consecutive slices of at least 1000 samples, of each slice's quantile
/// (one slice when there are fewer than 2000). A burst of outside load on
/// the shared box then moves one slice's value, not the run's, and every
/// slice still has ten samples beyond its p99.
double sliced_quantile(const std::vector<double>& in_time_order, double q);

/// FNV-1a over car ids, shapes and the exact double bits of every sample.
std::uint64_t samples_digest(const core::RaceSamples& samples);

// --- models ----------------------------------------------------------------

/// RankNet-MLP weights, loaded once per set-up and shared (read-only) by
/// every forecaster instance the registry and fleet factories build.
struct Models {
  std::shared_ptr<const core::LstmSeqModel> rank;
  std::shared_ptr<const core::PitModel> pit;
  features::CarVocab vocab;
  features::CovariateConfig covariates;
};

/// Load the committed Indy500 RankModel + PitModel artifacts through
/// core::ModelZoo. Throws BenchError instead of letting the zoo train: the
/// expected artifact names are checked before the zoo runs and the
/// artifacts directory must be unchanged afterwards.
Models load_models();

/// A fresh RankNet-MLP forecaster instance over the shared weights.
std::shared_ptr<core::RankNetForecaster> make_ranknet(const Models& models);

// --- accuracy (paper Task A) ------------------------------------------------

/// Accumulates (median, 0.9-quantile, actual) at the final horizon lap of
/// each forecast, on jointly sorted rank positions (paper Section III-C).
class TaskAScore {
 public:
  void add(const core::RaceSamples& raw, const telemetry::RaceLog& race,
           int origin_lap, int horizon);
  std::size_t pairs() const { return actual_.size(); }
  double mae() const;
  double risk90() const;

 private:
  std::vector<double> median_, q90_, actual_;
};

// --- tracing ---------------------------------------------------------------

/// In-memory span store: spans are appended under a mutex while tracing is
/// on and written out as JSON lines when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_s;  // since the log's epoch
    double end_s;
    std::uint64_t key;  // forecast key shared by every span of one request
    int instance;       // forecaster instance (0 for client spans)
    double steps;       // trajectory steps (partition spans), else 0
  };

  /// Flipped between timed windows.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double now() const { return seconds_since(epoch_); }
  void record(const Span& span);
  std::vector<Span> snapshot() const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Forecast key: identifies one (race, origin, horizon, samples, rng base)
/// computation across client and model spans.
std::uint64_t forecast_key(const std::string& race_id, int origin_lap,
                           int horizon, int num_samples, std::uint64_t base);

/// Timing decorator installed through the registry and fleet factories:
/// implements RaceForecaster + PartitionableForecaster, forwards every call
/// to a RankNet-MLP instance and records prepare / partition spans.
class TracedForecaster : public core::RaceForecaster,
                         public core::PartitionableForecaster {
 public:
  TracedForecaster(std::shared_ptr<core::RankNetForecaster> inner,
                   SpanLog& log, int instance);

  std::string name() const override { return inner_->name(); }
  core::RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                             int horizon, int num_samples,
                             util::Rng& rng) override;
  void prepare(const telemetry::RaceLog& race) override;
  std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                 int origin_lap) override;
  core::RaceSamples forecast_partition(const telemetry::RaceLog& race,
                                       int origin_lap, int horizon,
                                       int num_samples, std::uint64_t base,
                                       std::span<const int> cars) override;

 private:
  std::shared_ptr<core::RankNetForecaster> inner_;
  SpanLog& log_;
  int instance_;
};

/// Model-side work inside one traced window, summed from the spans.
struct ModelWork {
  double partition_calls = 0;
  double partition_seconds = 0;
  double prepare_seconds = 0;
  /// Trajectory steps decoded: sum over partitions of cars*samples*horizon.
  double steps = 0;
};
ModelWork model_work(const SpanLog& log);

/// Start the traced window: zero the obs registry (the modules' own
/// counters, gauges and histograms) and turn kernel timing on.
void begin_layer_window();

/// Per-layer inputs a workload measured from outside the program.
struct OutsideReadings {
  double late_ms_p99 = 0;
  double sent = 0;
  double client_rtt_ms_mean = 0;
  double wire_encode_us = 0;
  double wire_decode_us = 0;
  /// Time the forecasts took end to end: summed client latency (serving
  /// workloads) or summed shard busy time (season replay).
  double request_seconds = 0;
  double run_season_s = 0;
  double shard_busy_max_s = 0;
  double shard_imbalance = 0;
  double partition_overhead = 0;
  double fps_untraced = 0;
  double fps_traced = 0;
};

/// Fill the fleet.shard_* readings from per-shard engine wall time taken
/// before and after the traced window; returns the summed busy time.
double set_shard_busy(OutsideReadings& out, const std::vector<double>& before,
                      const std::vector<double>& after);

/// Read the registry at the end of the traced window and add every
/// per-layer metric, in BENCHMARK.json order.
void add_layer_metrics(RunResult& result, const ModelWork& work,
                       const OutsideReadings& outside);

/// ranknet.partition_overhead: summed partition time of one engine
/// forecast (default 4 cars/task) over one whole-field forecast_partition
/// call for the same key; median over the keys.
struct OverheadKey {
  const telemetry::RaceLog* race;
  int origin_lap;
  int horizon;
  int num_samples;
  std::uint64_t base;
};
double partition_overhead(const Models& models,
                          std::span<const OverheadKey> keys);

// --- end-to-end metrics ------------------------------------------------------

/// What a user of the system sees, per run (NOTES.md gives definitions).
/// failed_share and degraded_share are reported as their complements so
/// every metric is nonzero and has a relative bound.
struct EndToEnd {
  double setup_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::size_t latency_samples = 0;
  double forecasts_per_s = 0;
  double failed_share = 0;
  double degraded_share = 0;
  double rank_mae = 0;
  double risk90 = 0;
  std::size_t score_pairs = 0;
};
/// Print the readable summary to stderr and add the metrics in
/// BENCHMARK.json order.
void add_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Median of `repeats` timed set-ups; the first is timed from process
/// start. `build` returns the set-up object; only the last one is kept.
template <typename Build>
auto timed_setups(int repeats, Build build, double& setup_s) {
  std::vector<double> times;
  auto t0 = process_start();
  auto stack = build();
  times.push_back(seconds_since(t0));
  for (int i = 1; i < repeats; ++i) {
    stack.reset();  // tear down before building the next one
    malloc_trim(0);  // so peak_rss_mb reflects one set-up, not their sum
    t0 = Clock::now();
    stack = build();
    times.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "set-up times (s):");
  for (double t : times) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
  setup_s = median(times);
  return stack;
}

// --- workloads -------------------------------------------------------------

RunResult run_live_fanout(const Options& options);
RunResult run_whatif_closed(const Options& options);
RunResult run_season_replay(const Options& options);

}  // namespace perfbench
