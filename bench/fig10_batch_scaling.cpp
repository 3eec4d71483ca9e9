// Fig. 10 (+ Table IV batch sizes, Table VIII devices) — impact of batch
// size on training speed (µs/sample) for RankNet training steps, plus the
// inference-side counterparts: Monte-Carlo forecast throughput versus
// worker threads through core::ParallelForecastEngine, and versus the
// number of MC samples per car on the zero-allocation decode path.
//
// The CPU column is measured on this machine with kernel-level profiling;
// the GPU / GPU-cuDNN / VE columns come from the analytic device model
// (paper hardware peaks + per-call offload overhead) applied to the same
// measured kernel workload — see src/core/device_model.hpp and DESIGN.md.
//
// Output: the console tables below, plus machine-readable BENCH_fig10.json
// (training series with per-kernel-class op counts, thread scaling, and the
// MC-decode series with ns/step and workspace allocs/step).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/device_model.hpp"
#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simulator/season.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace ranknet;

struct TrainingRow {
  std::size_t batch = 0;
  double cpu_us = 0.0, gpu_us = 0.0, cudnn_us = 0.0, ve_us = 0.0;
  core::Workload workload;
};

struct ThreadRow {
  std::size_t threads = 0;
  double us_per_sample = 0.0;
  double speedup = 0.0;
  double concurrency = 0.0;
};

struct DecodeRow {
  int num_samples = 0;
  std::size_t rows = 0;        // trajectories sampled per forecast
  double us_per_sample = 0.0;  // wall µs per sampled trajectory-step
  double ns_per_step = 0.0;    // wall ns per decode step (row x horizon lap)
  double samples_per_second = 0.0;
  double ws_allocs_per_forecast = 0.0;
  double ws_epoch_reuse = 0.0;  // reused epochs / epochs in steady state
  double branches_per_forecast = 0.0;  // decode-tree branches coalesced
  double rows_per_branch = 0.0;        // 1.0 = no sharing
};

struct CacheRow {
  int num_samples = 0;
  double cold_us_per_sample = 0.0;  // uncached forecast
  double hit_us_per_sample = 0.0;   // cache replay of the same request
  double hit_speedup = 0.0;
  double hit_rate = 0.0;  // engine cache hits over this row's requests
};

struct BenchResults {
  TrainingRow training[16];
  std::size_t training_rows = 0;
  ThreadRow threads[8];
  std::size_t thread_rows = 0;
  DecodeRow decode[16];
  std::size_t decode_rows = 0;
  CacheRow cache[8];
  std::size_t cache_rows = 0;
};

struct RankNetFixture {
  telemetry::RaceLog race;
  features::CarVocab vocab;
  std::shared_ptr<core::LstmSeqModel> model;
  core::RankNetForecaster forecaster;

  RankNetFixture()
      : race(sim::simulate_race({"Indy500", 2019, 4242, sim::Usage::kTest})),
        vocab({race}),
        model(make_model(vocab)),
        forecaster(model, nullptr, vocab, features::CovariateConfig{},
                   core::StatusSource::kOracle, "RankNet") {}

  static std::shared_ptr<core::LstmSeqModel> make_model(
      const features::CarVocab& vocab) {
    core::SeqModelConfig cfg;
    cfg.cov_dim = features::CovariateConfig{}.dim();
    cfg.hidden = 40;
    cfg.embed_dim = 4;
    cfg.vocab = vocab.size();
    auto model = std::make_shared<core::LstmSeqModel>(cfg);
    model->set_scaler(features::StandardScaler(17.0, 9.0));
    return model;
  }
};

// Forecast-side scaling: one RankNet-sized model, a full simulated race,
// per-car sampling fanned across the engine's pool. The determinism
// contract means every row of this table computes the same bits; only the
// wall clock may move.
void inference_thread_scaling(RankNetFixture& fix, BenchResults& results) {
  const int horizon = 5, samples = 96;
  const std::vector<int> origins{40, 80, 120, 160};
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};

  std::printf("\nInference — RankNet forecast throughput vs threads "
              "(horizon %d, %d samples/car, %zu origins; hw threads: %zu)\n",
              horizon, samples, origins.size(),
              util::ThreadPool::hardware_threads());
  std::printf("%10s %14s %10s %12s\n", "Threads", "us/sample", "speedup",
              "concurrency");

  double base_us = 0.0;
  for (const auto t : thread_counts) {
    core::ParallelForecastEngine engine(fix.forecaster, t);
    // Warm the per-race feature cache outside the timed region.
    util::Rng warm(7);
    (void)engine.forecast(fix.race, origins[0], horizon, samples, warm);
    engine.reset_stats();
    // Fresh span histograms so the per-stage line below covers only this
    // thread count's timed origins.
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(obs::Stage::kCount); ++s) {
      obs::stage_histogram(static_cast<obs::Stage>(s)).reset();
      obs::stage_seconds_total(static_cast<obs::Stage>(s)).reset();
    }

    util::Rng rng(7);
    std::size_t rows = 0;
    util::Timer timer;
    for (const int origin : origins) {
      const auto out =
          engine.forecast(fix.race, origin, horizon, samples, rng);
      for (const auto& [car_id, m] : out) rows += m.rows();
    }
    const double us = timer.seconds() * 1e6 / static_cast<double>(rows);
    if (t == thread_counts.front()) base_us = us;
    const auto stats = engine.stats();
    std::printf("%10zu %14.2f %9.2fx %12.2f\n", t, us,
                base_us > 0.0 ? base_us / us : 0.0, stats.concurrency());
    if (obs::spans_enabled()) {
      std::printf("%10s", "stages:");
      for (std::size_t s = 0;
           s < static_cast<std::size_t>(obs::Stage::kCount); ++s) {
        const auto stage = static_cast<obs::Stage>(s);
        const auto& h = obs::stage_histogram(stage);
        if (h.count() == 0) continue;
        std::printf(" %s n=%llu mean=%.3fms", obs::stage_name(stage),
                    (unsigned long long)h.count(), h.mean() * 1e3);
      }
      std::printf("\n");
    }
    std::fflush(stdout);
    results.threads[results.thread_rows++] =
        ThreadRow{t, us, base_us > 0.0 ? base_us / us : 0.0,
                  stats.concurrency()};
  }
  std::printf("(speedup tracks physical cores; concurrency = summed task "
              "time / wall time; set RANKNET_OBS_SPANS=0 to A/B the span "
              "overhead)\n");
}

// MC-decode scaling: direct (single-thread) RankNet forecasts at growing
// per-car sample counts. All samples of a car ride one batched decode loop
// through the inference sessions, so µs/sample should drop as samples grow
// and the workspace must not allocate once warm.
DecodeRow measure_decode_row(RankNetFixture& fix, int samples, int origin,
                             int horizon) {
  // Two warm-up forecasts: the first grows the thread-local arena to this
  // problem size, the second leaves only warm epochs in the window.
  util::Rng warm(11);
  (void)fix.forecaster.forecast(fix.race, origin, horizon, samples, warm);
  util::Rng warm2(11);
  (void)fix.forecaster.forecast(fix.race, origin, horizon, samples, warm2);

  auto& reg = obs::Registry::instance();
  const auto count = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  const auto allocs0 = count("workspace.block_allocs");
  const auto epochs0 = count("workspace.epochs");
  const auto reused0 = count("workspace.reused_epochs");
  const auto tree_rows0 = count("decode_tree.rows");
  const auto tree_branches0 = count("decode_tree.branches");
  const int reps = 3;
  std::size_t rows = 0;
  util::Timer timer;
  for (int r = 0; r < reps; ++r) {
    util::Rng rng(11);
    const auto out =
        fix.forecaster.forecast(fix.race, origin, horizon, samples, rng);
    for (const auto& [car_id, m] : out) rows += m.rows();
  }
  const double seconds = timer.seconds();
  const auto tree_rows = count("decode_tree.rows") - tree_rows0;
  const auto tree_branches = count("decode_tree.branches") - tree_branches0;

  DecodeRow row;
  row.num_samples = samples;
  row.rows = rows / static_cast<std::size_t>(reps);
  row.us_per_sample = seconds * 1e6 / static_cast<double>(rows);
  row.ns_per_step = seconds * 1e9 /
                    (static_cast<double>(rows) * horizon);
  row.samples_per_second = static_cast<double>(rows) / seconds;
  row.ws_allocs_per_forecast =
      static_cast<double>(count("workspace.block_allocs") - allocs0) / reps;
  const auto epochs = count("workspace.epochs") - epochs0;
  row.ws_epoch_reuse =
      epochs == 0 ? 1.0
                  : static_cast<double>(count("workspace.reused_epochs") -
                                        reused0) /
                        static_cast<double>(epochs);
  row.branches_per_forecast =
      static_cast<double>(tree_branches) / reps;
  row.rows_per_branch =
      tree_branches == 0 ? 0.0
                         : static_cast<double>(tree_rows) /
                               static_cast<double>(tree_branches);
  return row;
}

void print_decode_row(const DecodeRow& row, const char* label) {
  std::printf("%10s %10zu %14.2f %14.1f %16.2f %11.0f%% %10.0f %12.1f\n",
              label, row.rows, row.us_per_sample, row.ns_per_step,
              row.ws_allocs_per_forecast, 100.0 * row.ws_epoch_reuse,
              row.branches_per_forecast, row.rows_per_branch);
  std::fflush(stdout);
}

void mc_decode_scaling(RankNetFixture& fix, BenchResults& results) {
  const int horizon = 5;
  const int origin = 80;
  const std::vector<int> sample_counts{8, 32, 96};

  std::printf("\nInference — MC decode throughput vs samples/car "
              "(horizon %d, origin %d, single thread)\n",
              horizon, origin);
  std::printf("%10s %10s %14s %14s %16s %12s %10s %12s\n", "Samples", "rows",
              "us/sample", "ns/step", "allocs/forecast", "reuse", "branches",
              "rows/branch");

  for (const int samples : sample_counts) {
    char label[16];
    std::snprintf(label, sizeof(label), "%d", samples);
    const DecodeRow row = measure_decode_row(fix, samples, origin, horizon);
    results.decode[results.decode_rows++] = row;
    print_decode_row(row, label);
  }
  std::printf("(us/sample amortizes with samples/car — all of a car's "
              "samples share one batched GEMM per decode step; rows/branch "
              "is the decode tree's prefix sharing, 1.0 = none)\n");
}

// Forecast-cache replay: the serving cadence loop asks for the same
// (race, origin) forecast over and over — a hit must be orders of magnitude
// cheaper than the cold compute it replays, at identical bytes.
void forecast_cache_replay(RankNetFixture& fix, BenchResults& results) {
  const int horizon = 5;
  const int origin = 80;
  const std::vector<int> sample_counts{8, 32, 96};

  std::printf("\nInference — forecast cache replay (horizon %d, origin %d, "
              "single thread)\n",
              horizon, origin);
  std::printf("%10s %14s %14s %10s %10s\n", "Samples", "cold us/sm",
              "hit us/sm", "speedup", "hit rate");

  for (const int samples : sample_counts) {
    core::ParallelForecastEngine engine(fix.forecaster, 0);
    auto cache = std::make_shared<core::ForecastCache>(8);
    engine.set_forecast_cache(cache);
    // Warm model-side caches (race features, workspace arena) but not the
    // forecast cache: a different seed keys a different entry.
    util::Rng warm(23);
    (void)engine.forecast(fix.race, origin, horizon, samples, warm);
    cache->clear();
    engine.reset_stats();

    std::size_t rows = 0;
    util::Timer cold_timer;
    {
      util::Rng rng(29);
      const auto out =
          engine.forecast(fix.race, origin, horizon, samples, rng);
      for (const auto& [car_id, m] : out) rows += m.rows();
    }
    const double cold_seconds = cold_timer.seconds();

    const int reps = 50;
    util::Timer hit_timer;
    for (int r = 0; r < reps; ++r) {
      util::Rng rng(29);
      (void)engine.forecast(fix.race, origin, horizon, samples, rng);
    }
    const double hit_seconds = hit_timer.seconds();

    CacheRow row;
    row.num_samples = samples;
    row.cold_us_per_sample =
        cold_seconds * 1e6 / static_cast<double>(rows);
    row.hit_us_per_sample =
        hit_seconds * 1e6 / static_cast<double>(rows * reps);
    row.hit_speedup = row.hit_us_per_sample > 0.0
                          ? row.cold_us_per_sample / row.hit_us_per_sample
                          : 0.0;
    const auto stats = engine.stats();
    row.hit_rate = static_cast<double>(stats.cache_hits) /
                   static_cast<double>(stats.forecasts);
    results.cache[results.cache_rows++] = row;
    std::printf("%10d %14.2f %14.3f %9.0fx %9.0f%%\n", samples,
                row.cold_us_per_sample, row.hit_us_per_sample,
                row.hit_speedup, 100.0 * row.hit_rate);
    std::fflush(stdout);
  }
  std::printf("(hit cost is one race digest + one map copy — independent "
              "of model size; hit rate counts this row's %s requests)\n",
              "1 cold + 50 replay");
}

void write_json(const BenchResults& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("WARNING: could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"training\": [\n");
  for (std::size_t i = 0; i < r.training_rows; ++i) {
    const auto& t = r.training[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"cpu_us_per_sample\": %.3f, "
                 "\"gpu_us_per_sample\": %.3f, \"cudnn_us_per_sample\": "
                 "%.3f, \"ve_us_per_sample\": %.3f,\n     \"kernels\": {",
                 t.batch, t.cpu_us, t.gpu_us, t.cudnn_us, t.ve_us);
    bool first = true;
    for (std::size_t k = 0; k < t.workload.per_kernel.size(); ++k) {
      const auto& s = t.workload.per_kernel[k];
      if (s.calls == 0) continue;
      std::fprintf(f,
                   "%s\"%s\": {\"calls\": %llu, \"flops\": %llu, \"bytes\": "
                   "%llu}",
                   first ? "" : ", ",
                   tensor::kernel_name(static_cast<tensor::Kernel>(k)),
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.flops),
                   static_cast<unsigned long long>(s.bytes));
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < r.training_rows ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"inference_thread_scaling\": [\n");
  for (std::size_t i = 0; i < r.thread_rows; ++i) {
    const auto& t = r.threads[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"us_per_sample\": %.3f, "
                 "\"speedup\": %.3f, \"concurrency\": %.3f}%s\n",
                 t.threads, t.us_per_sample, t.speedup, t.concurrency,
                 i + 1 < r.thread_rows ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mc_decode\": [\n");
  for (std::size_t i = 0; i < r.decode_rows; ++i) {
    const auto& d = r.decode[i];
    std::fprintf(f,
                 "    {\"num_samples\": %d, \"rows\": %zu, "
                 "\"us_per_sample\": %.3f, \"ns_per_step\": %.1f, "
                 "\"samples_per_second\": %.1f, "
                 "\"ws_allocs_per_forecast\": %.2f, "
                 "\"ws_epoch_reuse\": %.4f, "
                 "\"branches_per_forecast\": %.1f, "
                 "\"rows_per_branch\": %.2f}%s\n",
                 d.num_samples, d.rows, d.us_per_sample, d.ns_per_step,
                 d.samples_per_second, d.ws_allocs_per_forecast,
                 d.ws_epoch_reuse, d.branches_per_forecast,
                 d.rows_per_branch, i + 1 < r.decode_rows ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"forecast_cache\": [\n");
  for (std::size_t i = 0; i < r.cache_rows; ++i) {
    const auto& c = r.cache[i];
    std::fprintf(f,
                 "    {\"num_samples\": %d, \"cold_us_per_sample\": %.3f, "
                 "\"hit_us_per_sample\": %.4f, \"hit_speedup\": %.1f, "
                 "\"hit_rate\": %.4f}%s\n",
                 c.num_samples, c.cold_us_per_sample, c.hit_us_per_sample,
                 c.hit_speedup, c.hit_rate,
                 i + 1 < r.cache_rows ? "," : "");
  }
  std::fprintf(f, "  ]");
  // A/B against the pre-refactor binary: run the old fig10 bench on the
  // same (otherwise idle) machine, take its threads=1 us/sample figure
  // (96 samples/car — identical protocol to this binary's threads=1 row),
  // and export it as RANKNET_FIG10_BASELINE_US before running this bench.
  // The emitted speedup is then measured-vs-measured, not recorded-vs-
  // measured, so machine load cancels out.
  const char* base_env = std::getenv("RANKNET_FIG10_BASELINE_US");
  if (base_env != nullptr && r.thread_rows > 0) {
    const double baseline_us = std::atof(base_env);
    const double us = r.threads[0].us_per_sample;
    if (baseline_us > 0.0 && us > 0.0) {
      std::fprintf(f,
                   ",\n  \"decode_vs_baseline\": {\"num_samples\": 96, "
                   "\"baseline_us_per_sample\": %.3f, "
                   "\"us_per_sample\": %.3f, \"speedup\": %.3f}",
                   baseline_us, us, baseline_us / us);
      std::printf("\ndecode speedup vs pre-refactor baseline: %.2fx "
                  "(%.2f -> %.2f us/sample)\n",
                  baseline_us / us, baseline_us, us);
    }
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  BenchResults results;
  const std::vector<std::size_t> batch_sizes{32, 64, 128, 256, 640, 1600,
                                             3200};
  std::printf("Fig. 10 — training speed, µs/sample (lower is better)\n");
  std::printf("%10s %12s %12s %12s %12s\n", "BatchSize", "CPU(meas.)",
              "GPU(model)", "cuDNN(model)", "VE(model)");

  const auto gpu = core::gpu_spec();
  const auto cudnn = core::gpu_cudnn_spec();
  const auto ve = core::ve_spec();
  for (const auto b : batch_sizes) {
    const int reps = b >= 1600 ? 1 : (b >= 256 ? 2 : 3);
    const auto w = core::measure_ranknet_workload(b, reps);
    TrainingRow row;
    row.batch = b;
    row.cpu_us = w.cpu_us_per_sample();
    row.gpu_us = core::modeled_us_per_sample(w, gpu);
    row.cudnn_us = core::modeled_us_per_sample(w, cudnn);
    row.ve_us = core::modeled_us_per_sample(w, ve);
    row.workload = w;
    results.training[results.training_rows++] = row;
    std::printf("%10zu %12.1f %12.1f %12.1f %12.1f\n", b, row.cpu_us,
                row.gpu_us, row.cudnn_us, row.ve_us);
    std::fflush(stdout);
  }
  std::printf(
      "\n(paper: all devices improve with batch size; cuDNN fastest "
      "throughout; VE overtakes plain CPU at large batches)\n");

  RankNetFixture fixture;
  inference_thread_scaling(fixture, results);
  mc_decode_scaling(fixture, results);
  forecast_cache_replay(fixture, results);
  write_json(results, "BENCH_fig10.json");
  return 0;
}
