// Observability layer: registry semantics, golden-snapshot exports,
// round-trips, span bookkeeping, and a concurrency smoke test.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/forecast_cache.hpp"
#include "core/parallel_engine.hpp"
#include "core/ranknet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simulator/season.hpp"
#include "util/rng.hpp"

namespace {

using namespace ranknet;

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableHandles) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.calls");
  obs::Counter& b = reg.counter("x.calls");
  EXPECT_EQ(&a, &b);  // same name -> same metric
  a.add(2);
  EXPECT_EQ(b.value(), 2u);

  obs::Gauge& g = reg.gauge("x.seconds");
  g.add(0.25);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("x.seconds").value(), 0.5);
  g.record_max(0.1);  // below current value: no-op
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
  g.record_max(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);

  reg.reset();
  EXPECT_EQ(a.value(), 0u);  // handles survive a reset
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, HistogramBucketsAndQuantiles) {
  obs::Registry reg;
  const std::vector<double> bounds{0.1, 1.0};
  obs::Histogram& h = reg.histogram("lat", bounds);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);  // above the last bound -> +Inf bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 5.55, 1e-12);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  // Quantiles interpolate inside buckets and cap at the last finite bound.
  EXPECT_GT(h.approx_quantile(0.5), 0.1);
  EXPECT_LE(h.approx_quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.approx_quantile(1.0), 1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Golden-snapshot exports (stable ordering, deterministic values)
// ---------------------------------------------------------------------------

TEST(ObsExport, JsonGoldenSnapshot) {
  obs::Registry reg;
  reg.counter("alpha.count").add(3);
  reg.gauge("beta.seconds").add(1.5);
  const std::vector<double> bounds{0.1, 1.0};
  obs::Histogram& h = reg.histogram("gamma.seconds", bounds);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"alpha.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"beta.seconds\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"gamma.seconds\": {\"count\": 3, \"sum\": 5.55, \"buckets\": "
      "[{\"le\": 0.1, \"count\": 1}, {\"le\": 1, \"count\": 1}, "
      "{\"le\": \"+Inf\", \"count\": 1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(reg.to_json(), expected);
  // Repeated exports of unchanged state are byte-identical.
  EXPECT_EQ(reg.to_json(), reg.to_json());
}

TEST(ObsExport, PrometheusGoldenSnapshot) {
  obs::Registry reg;
  reg.counter("alpha.count").add(3);
  reg.gauge("beta.seconds").add(1.5);
  const std::vector<double> bounds{0.1, 1.0};
  obs::Histogram& h = reg.histogram("gamma.seconds", bounds);
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string expected =
      "# TYPE ranknet_alpha_count counter\n"
      "ranknet_alpha_count 3\n"
      "# TYPE ranknet_beta_seconds gauge\n"
      "ranknet_beta_seconds 1.5\n"
      "# TYPE ranknet_gamma_seconds histogram\n"
      "ranknet_gamma_seconds_bucket{le=\"0.1\"} 1\n"
      "ranknet_gamma_seconds_bucket{le=\"1\"} 2\n"
      "ranknet_gamma_seconds_bucket{le=\"+Inf\"} 3\n"
      "ranknet_gamma_seconds_sum 5.55\n"
      "ranknet_gamma_seconds_count 3\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
  EXPECT_EQ(reg.to_prometheus(), reg.to_prometheus());
}

/// Extract the number following `key` in `text` (first occurrence).
double NumberAfter(const std::string& text, const std::string& key) {
  const auto pos = text.find(key);
  EXPECT_NE(pos, std::string::npos) << "missing key: " << key;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + key.size(), nullptr);
}

TEST(ObsExport, ValuesRoundTripThroughBothFormats) {
  obs::Registry reg;
  reg.counter("rt.requests").add(12345);
  reg.gauge("rt.seconds").add(0.125);
  obs::Histogram& h = reg.latency_histogram("rt.latency");
  for (int i = 0; i < 7; ++i) h.observe(0.002);

  const std::string json = reg.to_json();
  EXPECT_EQ(NumberAfter(json, "\"rt.requests\": "), 12345.0);
  EXPECT_EQ(NumberAfter(json, "\"rt.seconds\": "), 0.125);
  EXPECT_EQ(NumberAfter(json, "\"rt.latency\": {\"count\": "), 7.0);

  // "\n" anchors to line starts, skipping the "# TYPE ..." comment lines.
  const std::string prom = reg.to_prometheus();
  EXPECT_EQ(NumberAfter(prom, "\nranknet_rt_requests "), 12345.0);
  EXPECT_EQ(NumberAfter(prom, "\nranknet_rt_seconds "), 0.125);
  EXPECT_EQ(NumberAfter(prom, "\nranknet_rt_latency_count "), 7.0);
  // Cumulative-le invariant: the +Inf bucket equals the total count.
  EXPECT_EQ(NumberAfter(prom, "ranknet_rt_latency_bucket{le=\"+Inf\"} "),
            7.0);
}

// ---------------------------------------------------------------------------
// The engine, cache, decode tree and arenas book into the process registry
// ---------------------------------------------------------------------------

TEST(ObsIntegration, EngineBookingsLandInProcessRegistry) {
  obs::set_spans_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset();

  const auto race = sim::simulate_race({"Indy500", 2019, 60,
                                        sim::Usage::kTest});
  core::CurRankForecaster model;
  core::ParallelForecastEngine engine(model, /*threads=*/1);
  util::Rng rng(17);
  (void)engine.forecast(race, 30, 5, 4, rng);
  (void)engine.forecast(race, 40, 5, 4, rng);

  const auto stats = engine.stats();
  EXPECT_EQ(reg.counter("engine.forecasts").value(), stats.forecasts);
  EXPECT_EQ(reg.counter("engine.tasks").value(), stats.tasks);
  EXPECT_EQ(reg.counter("degradation.full_cars").value(),
            engine.degradation().full_cars);
  // Each forecast opens one prepare / partition / merge span.
  EXPECT_EQ(obs::stage_histogram(obs::Stage::kPrepare).count(), 2u);
  EXPECT_EQ(obs::stage_histogram(obs::Stage::kPartition).count(), 2u);
  EXPECT_EQ(obs::stage_histogram(obs::Stage::kMerge).count(), 2u);
  EXPECT_EQ(obs::stage_histogram(obs::Stage::kFallback).count(), 0u);

  // One RankNet forecast twice through a cached engine: a miss, then a hit.
  const features::CarVocab vocab({race});
  core::SeqModelConfig cfg;
  cfg.cov_dim = features::CovariateConfig{}.dim();
  cfg.hidden = 8;
  cfg.embed_dim = 2;
  cfg.vocab = vocab.size();
  auto lstm = std::make_shared<core::LstmSeqModel>(cfg);
  lstm->set_scaler(features::StandardScaler(17.0, 9.0));
  core::RankNetForecaster ranknet(lstm, nullptr, vocab,
                                  features::CovariateConfig{},
                                  core::StatusSource::kOracle, "oracle");
  ranknet.set_decode_mode(core::DecodeMode::kTree);
  core::ParallelForecastEngine cached(ranknet, /*threads=*/1);
  cached.set_forecast_cache(std::make_shared<core::ForecastCache>(4));
  for (int i = 0; i < 2; ++i) {
    util::Rng same_seed(23);
    (void)cached.forecast(race, 40, 3, 4, same_seed);
  }
  EXPECT_EQ(cached.stats().cache_hits, 1u);

  // Every layer metric perfbench reads by name is exported and has moved.
  const std::string prom = reg.to_prometheus();
  for (const char* name :
       {"engine_forecasts", "engine_tasks", "engine_task_seconds",
        "engine_wall_seconds", "forecast_cache_hits", "forecast_cache_misses",
        "forecast_cache_insertions", "decode_tree_rows",
        "decode_tree_branches", "workspace_block_allocs",
        "workspace_high_water_bytes"}) {
    EXPECT_GT(NumberAfter(prom, std::string("\nranknet_") + name + " "), 0.0)
        << name;
  }
}

TEST(ObsIntegration, SpanScopeRespectsGlobalSwitch) {
  obs::Histogram& h = obs::stage_histogram(obs::Stage::kIngest);
  h.reset();
  obs::set_spans_enabled(false);
  { obs::SpanScope span(obs::Stage::kIngest); }
  EXPECT_EQ(h.count(), 0u);
  obs::set_spans_enabled(true);
  { obs::SpanScope span(obs::Stage::kIngest); }
  EXPECT_EQ(h.count(), 1u);
  {
    obs::SpanScope span(obs::Stage::kIngest);
    EXPECT_GE(span.stop(), 0.0);
  }  // stop() already booked; destructor must not double-count
  EXPECT_EQ(h.count(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency smoke: exact totals under contention
// ---------------------------------------------------------------------------

TEST(ObsConcurrency, CounterAndHistogramTotalsAreExact) {
  auto& reg = obs::Registry::instance();
  obs::Counter& c = reg.counter("test.smoke.counter");
  obs::Histogram& h = reg.latency_histogram("test.smoke.latency");
  c.reset();
  h.reset();

  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kIncrements; ++i) {
        c.add(1);
        if (i % 100 == 0) h.observe(1e-3);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  const auto expected_obs =
      static_cast<std::uint64_t>(kThreads) * (kIncrements / 100);
  EXPECT_EQ(h.count(), expected_obs);
  std::uint64_t bucket_total = 0;
  for (const auto n : h.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, expected_obs);  // no sample lost between buckets
}

}  // namespace
