// season_replay: offline FleetEngine::run_season over the 25-race Table II
// season with a RankNet-MLP factory — the batch-analytics job. No server,
// no cache: pure model throughput across nproc shards.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "core/fleet_engine.hpp"
#include "core/parallel_engine.hpp"
#include "simulator/season.hpp"

namespace perfbench {

namespace {

constexpr int kHorizon = 2;
constexpr int kSamples = 8;
/// Origins per race in one run_season batch: evenly spaced over the race
/// from a phase that shifts every batch, so every batch has the same jobs
/// per race (and per shard) while successive batches forecast different
/// origins.
constexpr int kOriginsPerRace = 5;
constexpr int kFirstOrigin = 10;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kOracleJobs = 32;

struct SeasonStack {
  Models models;
  std::vector<std::shared_ptr<const telemetry::RaceLog>> races;
  std::unique_ptr<core::FleetEngine> fleet;

  std::vector<double> shard_busy() const {
    std::vector<double> busy;
    for (std::size_t i = 0; i < fleet->num_shards(); ++i) {
      busy.push_back(fleet->shard(i)->engine()->stats().wall_seconds);
    }
    return busy;
  }
};

std::unique_ptr<SeasonStack> build_season_stack(SpanLog* log) {
  auto stack = std::make_unique<SeasonStack>();
  for (auto& race : sim::simulate_season()) {
    stack->races.push_back(
        std::make_shared<const telemetry::RaceLog>(std::move(race)));
  }
  stack->models = load_models();
  const Models* models = &stack->models;
  auto next_instance = std::make_shared<int>(0);
  core::FleetConfig config;
  config.shards = static_cast<std::size_t>(nproc());
  config.shard.engine_threads = 0;  // each shard decodes on its driver thread
  stack->fleet = std::make_unique<core::FleetEngine>(
      [models, log, next_instance]() -> std::shared_ptr<core::RaceForecaster> {
        auto forecaster = make_ranknet(*models);
        if (log == nullptr) return forecaster;
        return std::make_shared<TracedForecaster>(std::move(forecaster), *log,
                                                  (*next_instance)++);
      },
      config);
  // Warm-up: one job per race prepares every race on its shard.
  std::vector<core::FleetEngine::SeasonJob> warm;
  for (const auto& race : stack->races) {
    warm.push_back({race, kFirstOrigin, kHorizon, kSamples});
  }
  (void)stack->fleet->run_season(warm, /*season_seed=*/0x3a7e);
  return stack;
}

/// Batch `index`: kOriginsPerRace origins per race, at a phase (a fraction
/// of the spacing) that steps by the golden ratio from a seeded start, so
/// every run covers the phases evenly.
std::vector<core::FleetEngine::SeasonJob> season_batch(
    const SeasonStack& stack, std::uint64_t seed, int index) {
  const double start = util::Rng::stream(seed, 0x5ea).uniform();
  double phase = start + 0.6180339887498949 * index;
  phase -= std::floor(phase);
  std::vector<core::FleetEngine::SeasonJob> jobs;
  for (const auto& race : stack.races) {
    const int spacing =
        (race->num_laps() - kHorizon - kFirstOrigin) / kOriginsPerRace;
    const int first = kFirstOrigin + static_cast<int>(phase * spacing);
    for (int k = 0; k < kOriginsPerRace; ++k) {
      jobs.push_back({race, first + k * spacing, kHorizon, kSamples});
    }
  }
  return jobs;
}

struct Batch {
  std::vector<core::FleetEngine::SeasonJob> jobs;
  std::vector<core::RaceSamples> results;
  double wall_s = 0;
};

struct SeasonWindow {
  std::vector<Batch> batches;
  /// Per-job forecast latency on its shard (ms).
  std::vector<double> job_ms;
};

/// Run batches until `seconds` of run_season wall time have passed. Job
/// latencies are read from outside: a poller samples every shard engine's
/// existing stats (forecasts served, summed wall time) every 200 us, and
/// each new forecast's latency is the wall-time increment.
SeasonWindow season_window(SeasonStack& stack, std::uint64_t seed,
                           double seconds, int first_batch) {
  SeasonWindow w;
  std::vector<std::shared_ptr<core::ParallelForecastEngine>> engines;
  for (std::size_t i = 0; i < stack.fleet->num_shards(); ++i) {
    engines.push_back(stack.fleet->shard(i)->engine());
  }
  // Stopped below, or by the jthread destructor if run_season throws.
  std::jthread poller([&](std::stop_token stop) {
    std::vector<core::ParallelForecastEngine::Stats> last;
    for (const auto& e : engines) last.push_back(e->stats());
    for (bool final_sweep = false; !final_sweep;) {
      final_sweep = stop.stop_requested();
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto now = engines[i]->stats();
        const auto n = now.forecasts - last[i].forecasts;
        if (n == 0) continue;
        const double ms =
            (now.wall_seconds - last[i].wall_seconds) * 1e3 / n;
        w.job_ms.insert(w.job_ms.end(), n, ms);
        last[i] = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  double elapsed = 0;
  for (int i = first_batch; elapsed < seconds; ++i) {
    Batch b;
    b.jobs = season_batch(stack, seed, i);
    const auto t0 = Clock::now();
    b.results = stack.fleet->run_season(b.jobs, seed);
    b.wall_s = seconds_since(t0);
    elapsed += b.wall_s;
    w.batches.push_back(std::move(b));
  }
  poller.request_stop();
  poller.join();  // before `w` is returned
  return w;
}

double forecasts_per_s(const std::vector<Batch>& batches) {
  std::vector<double> rates;
  for (const auto& b : batches) {
    rates.push_back(static_cast<double>(b.jobs.size()) / b.wall_s);
  }
  return median(rates);
}

struct Check {
  std::size_t attempted = 0, empty = 0, checked = 0, mismatched = 0;
  TaskAScore score;
};

/// Score every job (paper Task A), count empty results as failures, and
/// re-run a seeded sample of jobs through the public engine API on a
/// separate instance: their sample digests must match.
Check check_batches(const SeasonStack& stack, const std::vector<Batch>& batches,
                    std::uint64_t seed) {
  Check check;
  std::vector<std::pair<const core::FleetEngine::SeasonJob*,
                        const core::RaceSamples*>>
      all;
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.jobs.size(); ++i) {
      ++check.attempted;
      if (b.results[i].empty()) ++check.empty;
      check.score.add(b.results[i], *b.jobs[i].race, b.jobs[i].origin_lap,
                      b.jobs[i].horizon);
      all.emplace_back(&b.jobs[i], &b.results[i]);
    }
  }
  util::Rng rng = util::Rng::stream(seed, 0x0eac1e);
  rng.shuffle(all);
  if (all.size() > kOracleJobs) all.resize(kOracleJobs);
  core::ParallelForecastEngine engine(make_ranknet(stack.models),
                                      /*threads=*/0);
  for (const auto& [job, result] : all) {
    const std::uint64_t base = core::FleetEngine::job_base(
        seed, core::FleetEngine::race_key(job->race->id()), job->origin_lap,
        job->horizon, job->num_samples);
    const auto reference = engine.forecast_with_base(
        *job->race, job->origin_lap, job->horizon, job->num_samples, base);
    ++check.checked;
    if (samples_digest(reference) != samples_digest(*result)) {
      ++check.mismatched;
    }
  }
  std::fprintf(stderr, "oracle: %zu jobs checked, %zu mismatched\n",
               check.checked, check.mismatched);
  return check;
}

void account(RunResult& result, const Check& check) {
  result.attempted += check.attempted;
  result.failed += check.empty + check.mismatched;
  if (check.mismatched > 0) result.correct = false;
}

}  // namespace

RunResult run_season_replay(const Options& options) {
  SpanLog log;
  double setup_s = 0;
  auto stack = timed_setups(
      options.trace ? 1 : kSetupRepeats,
      [&] { return build_season_stack(options.trace ? &log : nullptr); },
      setup_s);

  RunResult result;
  if (!options.trace) {
    const auto w = season_window(*stack, options.seed, options.seconds, 0);
    const Check check = check_batches(*stack, w.batches, options.seed);
    account(result, check);
    EndToEnd e;
    e.setup_s = setup_s;
    e.latency_p50_ms = sliced_quantile(w.job_ms, 0.50);
    e.latency_p99_ms = sliced_quantile(w.job_ms, 0.99);
    e.latency_samples = w.job_ms.size();
    e.forecasts_per_s = forecasts_per_s(w.batches);
    e.failed_share =
        static_cast<double>(result.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
    e.rank_mae = check.score.mae();
    e.risk90 = check.score.risk90();
    e.score_pairs = check.score.pairs();
    add_end_to_end(result, e);
    return result;
  }

  const auto untraced =
      season_window(*stack, options.seed, options.seconds / 2.0, 0).batches;
  // ranknet.partition_overhead is measured before the traced window zeroes
  // the registry, on the first jobs of a batch no window runs.
  std::vector<OverheadKey> keys;
  for (const auto& job : season_batch(*stack, options.seed, -1)) {
    if (keys.size() == 3) break;
    keys.push_back({job.race.get(), job.origin_lap, job.horizon,
                    job.num_samples,
                    core::FleetEngine::job_base(
                        options.seed,
                        core::FleetEngine::race_key(job.race->id()),
                        job.origin_lap, job.horizon, job.num_samples)});
  }
  const double overhead = partition_overhead(stack->models, keys);

  const auto busy_before = stack->shard_busy();
  log.set_enabled(true);
  begin_layer_window();
  const auto traced =
      season_window(*stack, options.seed, options.seconds / 2.0, 1000).batches;
  log.set_enabled(false);

  OutsideReadings out;
  std::vector<double> walls;
  for (const auto& b : traced) walls.push_back(b.wall_s);
  out.run_season_s = median(walls);
  out.request_seconds =
      set_shard_busy(out, busy_before, stack->shard_busy());
  out.partition_overhead = overhead;
  out.fps_untraced = forecasts_per_s(untraced);
  out.fps_traced = forecasts_per_s(traced);
  add_layer_metrics(result, model_work(log), out);

  std::filesystem::create_directories(options.work_dir);
  log.write(options.work_dir + "/spans-" + options.workload + ".jsonl");
  auto all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  account(result, check_batches(*stack, all, options.seed));
  return result;
}

}  // namespace perfbench
