// Traced-run machinery: the span log, the RankNet-MLP timing decorator and
// the per-layer metrics derived from spans plus the obs-registry metrics
// the modules already export. Nothing here changes what the program does;
// the decorator only forwards and times.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/opcount.hpp"

namespace perfbench {

void SpanLog::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanLog::Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : snapshot()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"key\": \"%016llx\", \"instance\": %d, \"steps\": %.0f}\n",
                  s.name, s.start_s, s.end_s,
                  static_cast<unsigned long long>(s.key), s.instance, s.steps);
    out << line;
  }
}

std::uint64_t forecast_key(const std::string& race_id, int origin_lap,
                           int horizon, int num_samples, std::uint64_t base) {
  core::Fnv1a h;
  h.update_bytes(race_id.data(), race_id.size());
  h.update_u64(static_cast<std::uint64_t>(origin_lap));
  h.update_u64(static_cast<std::uint64_t>(horizon));
  h.update_u64(static_cast<std::uint64_t>(num_samples));
  h.update_u64(base);
  return h.digest();
}

TracedForecaster::TracedForecaster(
    std::shared_ptr<core::RankNetForecaster> inner, SpanLog& log,
    int instance)
    : inner_(std::move(inner)), log_(log), instance_(instance) {}

core::RaceSamples TracedForecaster::forecast(const telemetry::RaceLog& race,
                                             int origin_lap, int horizon,
                                             int num_samples,
                                             util::Rng& rng) {
  return inner_->forecast(race, origin_lap, horizon, num_samples, rng);
}

void TracedForecaster::prepare(const telemetry::RaceLog& race) {
  if (!log_.enabled()) return inner_->prepare(race);
  const double t0 = log_.now();
  inner_->prepare(race);
  log_.record({"ranknet.prepare", t0, log_.now(), 0, instance_, 0.0});
}

std::vector<int> TracedForecaster::forecast_cars(
    const telemetry::RaceLog& race, int origin_lap) {
  return inner_->forecast_cars(race, origin_lap);
}

core::RaceSamples TracedForecaster::forecast_partition(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, std::uint64_t base, std::span<const int> cars) {
  if (!log_.enabled()) {
    return inner_->forecast_partition(race, origin_lap, horizon, num_samples,
                                      base, cars);
  }
  const double t0 = log_.now();
  auto out = inner_->forecast_partition(race, origin_lap, horizon,
                                        num_samples, base, cars);
  log_.record({"ranknet.partition", t0, log_.now(),
               forecast_key(race.id(), origin_lap, horizon, num_samples, base),
               instance_,
               static_cast<double>(cars.size()) * num_samples * horizon});
  return out;
}

ModelWork model_work(const SpanLog& log) {
  ModelWork work;
  for (const auto& s : log.snapshot()) {
    const std::string_view name(s.name);
    if (name == "ranknet.partition") {
      work.partition_calls += 1;
      work.partition_seconds += s.end_s - s.start_s;
      work.steps += s.steps;
    } else if (name == "ranknet.prepare") {
      work.prepare_seconds += s.end_s - s.start_s;
    }
  }
  return work;
}

void begin_layer_window() {
  obs::Registry::instance().reset();
  tensor::OpCounters::instance().set_profiling(true);
}

namespace {

double counter(const char* name) {
  return static_cast<double>(obs::Registry::instance().counter(name).value());
}
double gauge(const char* name) {
  return obs::Registry::instance().gauge(name).value();
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_layer_metrics(RunResult& r, const ModelWork& work,
                       const OutsideReadings& out) {
  auto& reg = obs::Registry::instance();
  tensor::OpCounters::instance().set_profiling(false);

  r.add("loadgen.late_ms_p99", out.late_ms_p99, "ms");
  r.add("loadgen.sent", out.sent, "count");

  // serve: wire, admission, micro-batching (zero when the workload does
  // not go through the server).
  const double requests = counter("serve.requests.received");
  auto& server_latency = reg.latency_histogram("serve.request.latency");
  const double server_p50_ms = server_latency.approx_quantile(0.5) * 1e3;
  r.add("serve.server_latency_ms_p50", server_p50_ms, "ms");
  r.add("serve.server_latency_ms_p99",
        server_latency.approx_quantile(0.99) * 1e3, "ms");
  // Histogram sums are exact where its quantiles are bucket estimates, so
  // transport time is taken from means.
  r.add("serve.transport_ms_mean",
        requests > 0 ? out.client_rtt_ms_mean - server_latency.mean() * 1e3
                     : 0.0,
        "ms");
  r.add("serve.wire.encode_us", out.wire_encode_us, "us");
  r.add("serve.wire.decode_us", out.wire_decode_us, "us");
  static const double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64};
  r.add("serve.batch_size_mean",
        reg.histogram("serve.batch.size", kBatchBounds).mean(), "count");
  r.add("serve.dedup_share", ratio(counter("serve.batch.dedup_hits"), requests),
        "ratio");
  for (const char* tier : {"full", "cached", "partial", "fallback",
                           "rejected"}) {
    const std::string name = std::string("serve.tier.") + tier;
    r.add(name + "_share", ratio(counter(name.c_str()), requests), "ratio");
  }
  r.add("serve.shed_queue_full", counter("serve.admission.shed_queue_full"),
        "count");
  r.add("serve.expired_in_queue", counter("serve.deadline.expired_in_queue"),
        "count");

  // core.forecast_cache
  const double hits = counter("forecast_cache.hits");
  r.add("forecast_cache.hit_share",
        ratio(hits, hits + counter("forecast_cache.misses")), "ratio");
  r.add("forecast_cache.insertions", counter("forecast_cache.insertions"),
        "count");
  r.add("forecast_cache.evictions", counter("forecast_cache.evictions"),
        "count");

  // core.fleet
  r.add("fleet.run_season_s", out.run_season_s, "s");
  r.add("fleet.shard_busy_max_s", out.shard_busy_max_s, "s");
  r.add("fleet.shard_imbalance", out.shard_imbalance, "ratio");

  // core.engine: a cache hit is an engine forecast without partition tasks.
  const double engine_forecasts = counter("engine.forecasts");
  const double cold = engine_forecasts - hits;
  const double engine_wall = gauge("engine.wall_seconds");
  r.add("engine.tasks_per_forecast", ratio(counter("engine.tasks"), cold),
        "count");
  r.add("engine.concurrency", ratio(gauge("engine.task_seconds"), engine_wall),
        "ratio");
  r.add("engine.self_ms",
        ratio((engine_wall - work.partition_seconds - work.prepare_seconds) *
                  1e3,
              engine_forecasts),
        "ms");
  r.add("span.prepare_ms",
        obs::stage_histogram(obs::Stage::kPrepare).mean() * 1e3, "ms");
  r.add("span.merge_ms", obs::stage_histogram(obs::Stage::kMerge).mean() * 1e3,
        "ms");

  // core.ranknet
  r.add("ranknet.partition_calls_per_forecast",
        ratio(work.partition_calls, cold), "count");
  r.add("ranknet.partition_ms", ratio(work.partition_seconds * 1e3, cold),
        "ms");
  r.add("ranknet.prepare_ms",
        ratio(work.prepare_seconds * 1e3, engine_forecasts), "ms");
  r.add("ranknet.partition_share",
        ratio(work.partition_seconds, out.request_seconds), "ratio");
  r.add("ranknet.partition_overhead", out.partition_overhead, "ratio");
  r.add("decode_tree.rows_per_branch",
        ratio(counter("decode_tree.rows"), counter("decode_tree.branches")),
        "ratio");

  // nn / tensor: per trajectory step decoded in the window. Bytes are the
  // kernels' computed operand traffic, not a hardware measurement.
  double op_seconds = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(tensor::Kernel::kCount);
       ++k) {
    op_seconds += tensor::OpCounters::instance()
                      .stats(static_cast<tensor::Kernel>(k))
                      .seconds;
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(tensor::Kernel::kCount);
       ++k) {
    const auto kernel = static_cast<tensor::Kernel>(k);
    const auto stats = tensor::OpCounters::instance().stats(kernel);
    std::string base = std::string("tensor.op.") + tensor::kernel_name(kernel);
    for (auto& c : base) c = static_cast<char>(std::tolower(c));
    r.add(base + ".flops_per_step",
          ratio(static_cast<double>(stats.flops), work.steps), "flop");
    r.add(base + ".bytes_per_step",
          ratio(static_cast<double>(stats.bytes), work.steps), "B");
    r.add(base + ".seconds_share", ratio(stats.seconds, op_seconds), "ratio");
  }
  double kernel_calls = 0;
  for (const char* variant : {"scalar", "avx2", "bf16", "int8"}) {
    kernel_calls += counter(
        (std::string("tensor.kernel.") + variant + ".calls").c_str());
  }
  r.add("tensor.kernel.calls_per_step", ratio(kernel_calls, work.steps),
        "count");
  r.add("workspace.block_allocs_per_forecast",
        ratio(counter("workspace.block_allocs"), engine_forecasts), "count");
  r.add("workspace.high_water_bytes", gauge("workspace.high_water_bytes"),
        "B");

  r.add("trace.overhead_forecasts_per_s", out.fps_untraced - out.fps_traced,
        "1/s");
}

double set_shard_busy(OutsideReadings& out, const std::vector<double>& before,
                      const std::vector<double>& after) {
  double total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double busy = after[i] - before[i];
    out.shard_busy_max_s = std::max(out.shard_busy_max_s, busy);
    total += busy;
  }
  out.shard_imbalance =
      total > 0 ? out.shard_busy_max_s * after.size() / total : 0.0;
  return total;
}

double partition_overhead(const Models& models,
                          std::span<const OverheadKey> keys) {
  std::vector<double> ratios;
  for (const auto& key : keys) {
    SpanLog log;
    auto inner = make_ranknet(models);
    TracedForecaster traced(inner, log, 0);
    core::ParallelForecastEngine engine(traced, /*threads=*/0);
    // Warm the race caches and workspaces, then time one engine forecast
    // and one whole-field partition call for the same key.
    (void)engine.forecast_with_base(*key.race, key.origin_lap, key.horizon,
                                    key.num_samples, key.base);
    log.set_enabled(true);
    (void)engine.forecast_with_base(*key.race, key.origin_lap, key.horizon,
                                    key.num_samples, key.base);
    log.set_enabled(false);
    const double engine_partitions = model_work(log).partition_seconds;
    const auto cars = inner->forecast_cars(*key.race, key.origin_lap);
    const auto t0 = Clock::now();
    (void)inner->forecast_partition(*key.race, key.origin_lap, key.horizon,
                                    key.num_samples, key.base, cars);
    const double whole = seconds_since(t0);
    if (whole > 0) ratios.push_back(engine_partitions / whole);
  }
  return median(ratios);
}

}  // namespace perfbench
