#include "core/parallel_engine.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/simd_kernels.hpp"
#include "util/timer.hpp"

namespace ranknet::core {

namespace {

/// Default weights token for the forecast-cache key (see
/// set_model_version): a digest of the wrapped forecaster's name.
std::uint64_t name_digest(const std::string& name) {
  Fnv1a h;
  h.update_bytes(name.data(), name.size());
  return h.digest();
}

/// Broadcast a fallback partition's sample matrix to the engine-wide
/// num_samples row count (rows repeat cyclically; point forecasters like
/// CurRank return one row per car). Merging a short matrix verbatim next
/// to num_samples-row primary matrices used to hand sort_to_ranks a ragged
/// map whose per-sample loop read past the short matrix — unchecked in
/// release builds, hence the documented armed-active winner-line
/// nondeterminism. tests/test_fault_injection.cpp
/// (PartialFallbackOutputHasUniformSampleRows) regresses this.
tensor::Matrix broadcast_rows(tensor::Matrix m, std::size_t rows) {
  if (m.rows() == rows || m.rows() == 0) return m;
  tensor::Matrix out(rows, m.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = m(r % m.rows(), c);
    }
  }
  return out;
}

/// "engine.*" and "degradation.*" metrics, resolved once per process and
/// shared by every engine and pool worker. "engine.*" keeps CPU-seconds
/// (summed per-task wall time) apart from elapsed wall time, so the
/// efficiency benches can tell a parallel run from a flop-rate miracle;
/// "degradation.*" sums the per-engine Degradation tallies.
struct EngineMetrics {
  obs::Counter* forecasts;
  obs::Counter* tasks;
  obs::Gauge* task_seconds;
  obs::Gauge* wall_seconds;
  obs::Counter* full_cars;
  obs::Counter* damaged_fallback_cars;
  obs::Counter* deadline_fallback_cars;
  obs::Counter* error_fallback_cars;
  obs::Counter* deadline_hits;
  obs::Counter* task_failures;
  EngineMetrics() {
    auto& reg = obs::Registry::instance();
    forecasts = &reg.counter("engine.forecasts");
    tasks = &reg.counter("engine.tasks");
    task_seconds = &reg.gauge("engine.task_seconds");
    wall_seconds = &reg.gauge("engine.wall_seconds");
    full_cars = &reg.counter("degradation.full_cars");
    damaged_fallback_cars = &reg.counter("degradation.damaged_fallback_cars");
    deadline_fallback_cars =
        &reg.counter("degradation.deadline_fallback_cars");
    error_fallback_cars = &reg.counter("degradation.error_fallback_cars");
    deadline_hits = &reg.counter("degradation.deadline_hits");
    task_failures = &reg.counter("degradation.task_failures");
  }
  void record_task(double seconds) const {
    tasks->add(1);
    task_seconds->add(seconds);
  }
  void record_forecast(double seconds) const {
    forecasts->add(1);
    wall_seconds->add(seconds);
  }
  void record_degradation(
      const ParallelForecastEngine::Degradation& deg) const {
    // Skip zero adds: an add still takes the cache line, and the fallback
    // tallies are zero on almost every forecast.
    const auto book = [](obs::Counter* c, std::uint64_t n) {
      if (n > 0) c->add(n);
    };
    book(full_cars, deg.full_cars);
    book(damaged_fallback_cars, deg.damaged_fallback_cars);
    book(deadline_fallback_cars, deg.deadline_fallback_cars);
    book(error_fallback_cars, deg.error_fallback_cars);
    book(deadline_hits, deg.deadline_hits);
    book(task_failures, deg.task_failures);
  }
};

const EngineMetrics& metrics() {
  static const EngineMetrics m;
  return m;
}

}  // namespace

ParallelForecastEngine::ParallelForecastEngine(RaceForecaster& wrapped,
                                               std::size_t threads,
                                               std::size_t max_cars_per_task)
    : wrapped_(wrapped),
      partitioned_(dynamic_cast<PartitionableForecaster*>(&wrapped)),
      pool_(threads),
      max_cars_per_task_(max_cars_per_task == 0 ? 1 : max_cars_per_task),
      model_version_(name_digest(wrapped.name())) {}

ParallelForecastEngine::ParallelForecastEngine(
    std::shared_ptr<RaceForecaster> wrapped, std::size_t threads,
    std::size_t max_cars_per_task)
    : owned_(std::move(wrapped)),
      wrapped_(*owned_),
      partitioned_(dynamic_cast<PartitionableForecaster*>(owned_.get())),
      pool_(threads),
      max_cars_per_task_(max_cars_per_task == 0 ? 1 : max_cars_per_task) {
  if (!owned_) {
    throw std::invalid_argument("ParallelForecastEngine: null forecaster");
  }
  model_version_ = name_digest(wrapped_.name());
}

util::Status ParallelForecastEngine::set_degradation_policy(
    DegradationPolicy policy) {
  // A NaN deadline fails every `deadline > 0.0` comparison in forecast(),
  // and a negative one is indistinguishable from "disabled": both would
  // silently turn the deadline tier off, so reject them here instead.
  if (!std::isfinite(policy.deadline_seconds) ||
      policy.deadline_seconds < 0.0) {
    return util::Status::invalid_argument(
        "ParallelForecastEngine: deadline_seconds must be a finite value "
        ">= 0 (0 disables the deadline tier), got " +
        std::to_string(policy.deadline_seconds));
  }
  PartitionableForecaster* fallback_part = nullptr;
  if (policy.fallback) {
    fallback_part =
        dynamic_cast<PartitionableForecaster*>(policy.fallback.get());
    if (fallback_part == nullptr) {
      return util::Status::invalid_argument(
          "ParallelForecastEngine: fallback forecaster must implement "
          "PartitionableForecaster");
    }
  }
  policy_ = std::move(policy);
  fallback_part_ = fallback_part;
  return {};
}

RaceSamples ParallelForecastEngine::delegate_forecast(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, util::Rng& rng) {
  util::Timer wall;
  auto out = wrapped_.forecast(race, origin_lap, horizon, num_samples, rng);
  const double secs = wall.seconds();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.forecasts;
    ++stats_.tasks;
    stats_.task_seconds += secs;
    stats_.wall_seconds += secs;
  }
  metrics().record_task(secs);
  metrics().record_forecast(secs);
  return out;
}

RaceSamples ParallelForecastEngine::forecast(const telemetry::RaceLog& race,
                                             int origin_lap, int horizon,
                                             int num_samples, util::Rng& rng) {
  if (partitioned_ == nullptr) {
    // Not partitionable: plain delegation on the calling thread, consuming
    // the caller's generator exactly as the wrapped forecaster would.
    return delegate_forecast(race, origin_lap, horizon, num_samples, rng);
  }
  // Same rng protocol as the wrapped forecaster's own forecast(): consume
  // exactly one u64 as the stream base (prepare(), which runs inside
  // forecast_with_base, never touches the caller's generator, so drawing
  // first is byte-equivalent to the historical prepare-then-draw order).
  // This is what makes engine output identical to a direct forecast() call
  // — and, because the fallback tiers derive from the same base, what
  // keeps degraded forecasts deterministic too.
  return forecast_with_base(race, origin_lap, horizon, num_samples, rng());
}

RaceSamples ParallelForecastEngine::forecast_with_base(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, std::uint64_t base) {
  util::Timer wall;
  if (partitioned_ == nullptr) {
    // Keyed delegation: derive a generator from the base so the result is
    // still a pure function of (model, race, request, base).
    util::Rng rng = util::Rng::stream(base, /*k1=*/0x666c6565756e70ULL);
    return delegate_forecast(race, origin_lap, horizon, num_samples, rng);
  }

  obs::SpanScope prepare_span(obs::Stage::kPrepare);
  partitioned_->prepare(race);

  // Forecast cache: the key covers every input the computation below is a
  // pure function of (see forecast_cache.hpp), so a hit can return the
  // cached bytes verbatim. The base draw above already happened — a hit
  // consumes exactly the rng state a cold compute would.
  ForecastCacheKey key;
  if (cache_ != nullptr) {
    key = cache_key(race, origin_lap, horizon, num_samples, base);
    if (auto cached = cache_->get(key)) {
      prepare_span.stop();
      const double secs = wall.seconds();
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.forecasts;
        ++stats_.cache_hits;
        stats_.wall_seconds += secs;
      }
      metrics().record_forecast(secs);
      return *std::move(cached);
    }
  }

  const std::vector<int> all_cars =
      partitioned_->forecast_cars(race, origin_lap);

  // Tier 1: cars whose telemetry is too damaged for the primary model go
  // straight to the fallback (only meaningful when a fallback exists).
  std::vector<int> cars, damaged;
  cars.reserve(all_cars.size());
  if (policy_.series_damaged && fallback_part_ != nullptr) {
    for (int car : all_cars) {
      (policy_.series_damaged(car, origin_lap) ? damaged : cars)
          .push_back(car);
    }
  } else {
    cars = all_cars;
  }

  // Chunk cars into contiguous blocks. Block composition cannot affect the
  // result (per-car child streams), only load balance.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // [begin, end)
  for (std::size_t begin = 0; begin < cars.size();
       begin += max_cars_per_task_) {
    blocks.emplace_back(begin,
                        std::min(begin + max_cars_per_task_, cars.size()));
  }
  prepare_span.stop();

  // Tier 2: one rule whether blocks run on pool workers or inline inside
  // submit(). A block counts as primary only if it completed by the
  // deadline, and a block that would start after the deadline does not
  // run, so an overrun forecast stops at the first late block instead of
  // running to the end.
  const double deadline = policy_.deadline_seconds;
  const auto past_deadline = [&] {
    return deadline > 0.0 && wall.seconds() > deadline;
  };
  struct TaskResult {
    RaceSamples part;
    double secs = 0.0;
    bool on_time = false;  // completed by the deadline
  };
  obs::SpanScope partition_span(obs::Stage::kPartition);
  std::vector<std::future<TaskResult>> futures;
  futures.reserve(blocks.size());
  for (const auto& [begin, end] : blocks) {
    futures.push_back(pool_.submit([&, begin = begin, end = end] {
      TaskResult result;
      if (past_deadline()) return result;
      util::Timer task_timer;
      result.part = partitioned_->forecast_partition(
          race, origin_lap, horizon, num_samples, base,
          std::span<const int>(cars.data() + begin, end - begin));
      result.secs = task_timer.seconds();
      result.on_time = !past_deadline();
      metrics().record_task(result.secs);
      return result;
    }));
  }

  // Collect. Every future is drained even on error/deadline — tasks capture
  // the stack-local `cars` by reference, so abandoning a future here would
  // leave a worker reading freed stack memory. A block that ran past the
  // deadline is discarded even though it finished: its cars go to the
  // rescue tier, so deadline_hits always comes with deadline_fallback_cars.
  Degradation deg;
  std::vector<TaskResult> finished(futures.size());  // kept primary parts
  std::vector<int> rescue = damaged;  // cars the fallback must serve
  std::exception_ptr first_error;
  double task_seconds = 0.0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto& [begin, end] = blocks[i];
    TaskResult result;
    try {
      result = futures[i].get();
    } catch (...) {
      ++deg.task_failures;
      deg.error_fallback_cars += end - begin;
      if (!first_error) first_error = std::current_exception();
      rescue.insert(rescue.end(), cars.begin() + begin, cars.begin() + end);
      continue;
    }
    task_seconds += result.secs;
    if (result.on_time) {
      deg.full_cars += end - begin;
      finished[i] = std::move(result);
    } else {
      deg.deadline_fallback_cars += end - begin;
      rescue.insert(rescue.end(), cars.begin() + begin, cars.begin() + end);
    }
  }
  if (deg.deadline_fallback_cars > 0) deg.deadline_hits = 1;
  deg.damaged_fallback_cars = damaged.size();
  partition_span.stop();

  if (first_error && fallback_part_ == nullptr) {
    // No fallback tier configured: propagate the primary model's failure
    // (all futures are drained above, so no task still references `cars`).
    std::rethrow_exception(first_error);
  }

  RaceSamples out;
  {
    obs::SpanScope merge_span(obs::Stage::kMerge);
    for (auto& result : finished) {
      for (auto& [car_id, samples] : result.part) {
        out.insert_or_assign(car_id, std::move(samples));
      }
    }
  }

  if (!rescue.empty() && fallback_part_ != nullptr) {
    obs::SpanScope fallback_span(obs::Stage::kFallback);
    std::sort(rescue.begin(), rescue.end());
    fallback_part_->prepare(race);
    auto fb = fallback_part_->forecast_partition(race, origin_lap, horizon,
                                                 num_samples, base, rescue);
    for (auto& [car_id, samples] : fb) {
      // Rescue matrices must match the primary sample count: point
      // forecasters return fewer rows, and a ragged merge is exactly the
      // old winner-line nondeterminism (see broadcast_rows).
      out.insert_or_assign(
          car_id, broadcast_rows(std::move(samples),
                                 static_cast<std::size_t>(num_samples)));
    }
  }

  // Only pristine results enter the cache: any fallback, deadline, or error
  // involvement means these bytes do not equal the healthy-system forecast
  // for this key, and must not be replayed once the system recovers.
  if (cache_ != nullptr && deg.fallback_cars() == 0 &&
      deg.deadline_hits == 0 && !first_error) {
    cache_->put(key, out);
  }

  const double wall_seconds = wall.seconds();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.forecasts;
    stats_.tasks += futures.size();
    stats_.task_seconds += task_seconds;
    stats_.wall_seconds += wall_seconds;
    degradation_.full_cars += deg.full_cars;
    degradation_.damaged_fallback_cars += deg.damaged_fallback_cars;
    degradation_.deadline_fallback_cars += deg.deadline_fallback_cars;
    degradation_.error_fallback_cars += deg.error_fallback_cars;
    degradation_.deadline_hits += deg.deadline_hits;
    degradation_.task_failures += deg.task_failures;
  }
  metrics().record_degradation(deg);
  metrics().record_forecast(wall_seconds);
  return out;
}

ForecastCacheKey ParallelForecastEngine::cache_key(
    const telemetry::RaceLog& race, int origin_lap, int horizon,
    int num_samples, std::uint64_t base) const {
  return ForecastCacheKey{race.digest(),
                          base,
                          model_version_,
                          origin_lap,
                          horizon,
                          num_samples,
                          static_cast<int>(tensor::kernels::active_variant())};
}

ParallelForecastEngine::Stats ParallelForecastEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

ParallelForecastEngine::Degradation ParallelForecastEngine::degradation()
    const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return degradation_;
}

void ParallelForecastEngine::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = Stats{};
  degradation_ = Degradation{};
}

}  // namespace ranknet::core
