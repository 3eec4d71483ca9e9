// Fault-tolerance suite: sim::FaultInjector, telemetry::StreamIngestor and
// the forecast engine's degradation ladder, plus the end-to-end property
// the whole PR hangs on — a zero-fault injected stream ingests to a RaceLog
// byte-identical to the clean one, and a damaged stream degrades to a
// well-formed log with every loss accounted for in a counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/baselines.hpp"
#include "core/parallel_engine.hpp"
#include "obs/metrics.hpp"
#include "serve/affine_model.hpp"
#include "serve/model_registry.hpp"
#include "simulator/fault_injector.hpp"
#include "simulator/season.hpp"
#include "telemetry/stream_ingestor.hpp"
#include "test_support.hpp"
#include "util/timer.hpp"

namespace {

using namespace ranknet;
using telemetry::LapRecord;

// Bitwise double compare so NaN-corrupted fields still compare equal to
// themselves across two identical fault realizations.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool RecordsEqual(const LapRecord& a, const LapRecord& b) {
  return a.rank == b.rank && a.car_id == b.car_id && a.lap == b.lap &&
         SameBits(a.lap_time, b.lap_time) &&
         SameBits(a.time_behind_leader, b.time_behind_leader) &&
         a.lap_status == b.lap_status && a.track_status == b.track_status;
}

::testing::AssertionResult StreamsEqual(const std::vector<LapRecord>& a,
                                        const std::vector<LapRecord>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "length " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!RecordsEqual(a[i], b[i])) {
      return ::testing::AssertionFailure() << "records differ at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

telemetry::RaceLog SmallRace() {
  return sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
}

LapRecord MakeRecord(int car, int lap, int rank = 3, double lap_time = 50.0,
                     double behind = 4.0) {
  LapRecord r;
  r.car_id = car;
  r.lap = lap;
  r.rank = rank;
  r.lap_time = lap_time;
  r.time_behind_leader = behind;
  return r;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ZeroProfileIsByteIdenticalPassthrough) {
  const auto race = SmallRace();
  sim::FaultInjector feed(race.records(), sim::FaultProfile{}, /*seed=*/123);
  const auto out = feed.drain();
  EXPECT_TRUE(StreamsEqual(out, race.records()));
  const auto& c = feed.counters();
  EXPECT_EQ(c.delivered, race.records().size());
  EXPECT_EQ(c.dropped + c.duplicated + c.corrupted + c.reordered +
                c.stall_ticks,
            0u);
}

TEST(FaultInjector, SameSeedSameFaults) {
  const auto race = SmallRace();
  sim::FaultProfile p;
  p.drop_rate = 0.05;
  p.duplicate_rate = 0.03;
  p.corrupt_rate = 0.02;
  p.reorder_depth = 3;
  p.stall_rate = 0.01;
  sim::FaultInjector a(race.records(), p, 9);
  sim::FaultInjector b(race.records(), p, 9);
  const auto stream_a = a.drain();
  EXPECT_TRUE(StreamsEqual(stream_a, b.drain()));
  // A different seed realizes a different fault pattern.
  sim::FaultInjector d(race.records(), p, 10);
  EXPECT_FALSE(StreamsEqual(stream_a, d.drain()));
}

TEST(FaultInjector, CountersBalanceAndFaultsOccur) {
  const auto race = SmallRace();
  sim::FaultProfile p;
  p.drop_rate = 0.10;
  p.duplicate_rate = 0.05;
  p.corrupt_rate = 0.05;
  p.reorder_depth = 4;
  p.stall_rate = 0.02;
  sim::FaultInjector feed(race.records(), p, 7);
  const auto out = feed.drain();
  const auto& c = feed.counters();
  EXPECT_EQ(c.delivered, out.size());
  EXPECT_EQ(c.delivered + c.dropped,
            race.records().size() + c.duplicated);
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.corrupted, 0u);
  EXPECT_GT(c.reordered, 0u);
}

TEST(FaultInjector, ReorderDisplacementIsBounded) {
  std::vector<LapRecord> clean;
  for (int lap = 1; lap <= 200; ++lap) clean.push_back(MakeRecord(1, lap));
  sim::FaultProfile p;
  p.reorder_depth = 3;
  sim::FaultInjector feed(clean, p, 42);
  const auto out = feed.drain();
  ASSERT_EQ(out.size(), clean.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto arrival = static_cast<std::size_t>(out[i].lap - 1);
    EXPECT_LE(arrival > i ? arrival - i : i - arrival, 3u)
        << "record displaced more than reorder_depth at " << i;
  }
  EXPECT_GT(feed.counters().reordered, 0u);
}

// ---------------------------------------------------------------------------
// StreamIngestor
// ---------------------------------------------------------------------------

TEST(StreamIngestor, CleanStreamRoundTripsExactly) {
  const auto race = SmallRace();
  telemetry::StreamIngestor ing;
  for (const auto& rec : race.records()) EXPECT_TRUE(ing.push(rec).ok());
  auto out = ing.finalize(race.info());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().to_csv().to_string(), race.to_csv().to_string());
  EXPECT_EQ(ing.counters().accepted, race.records().size());
  EXPECT_EQ(ing.counters().quarantined(), 0u);
  EXPECT_EQ(ing.counters().imputed, 0u);
  for (int car : out.value().car_ids()) {
    EXPECT_EQ(ing.damage_fraction(car), 0.0);
  }
}

TEST(StreamIngestor, DedupIsIdempotent) {
  // A flaky feed re-sends each record moments after the original (still
  // inside the reorder window). The first copy wins; the log is identical
  // to a clean ingest and every replay is tallied.
  const auto race = SmallRace();
  telemetry::StreamIngestor once, twice;
  for (const auto& rec : race.records()) ASSERT_TRUE(once.push(rec).ok());
  for (const auto& rec : race.records()) {
    ASSERT_TRUE(twice.push(rec).ok());
    EXPECT_TRUE(twice.push(rec).ok());  // immediate replay: OK but dropped
  }
  auto a = once.finalize(race.info());
  auto b = twice.finalize(race.info());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().to_csv().to_string(), b.value().to_csv().to_string());
  EXPECT_EQ(twice.counters().duplicates, race.records().size());
  EXPECT_EQ(twice.counters().accepted, once.counters().accepted);
}

TEST(StreamIngestor, ReorderWithinWindowHeals) {
  const auto race = SmallRace();
  // Shuffle the stream locally: reverse disjoint blocks of 7 records. Every
  // record stays within a few positions of home — inside the lap window.
  auto shuffled = race.records();
  for (std::size_t i = 0; i + 7 <= shuffled.size(); i += 7) {
    std::reverse(shuffled.begin() + static_cast<std::ptrdiff_t>(i),
                 shuffled.begin() + static_cast<std::ptrdiff_t>(i + 7));
  }
  telemetry::StreamIngestor ing;
  for (const auto& rec : shuffled) EXPECT_TRUE(ing.push(rec).ok());
  auto out = ing.finalize(race.info());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().to_csv().to_string(), race.to_csv().to_string());
  EXPECT_EQ(ing.counters().quarantined(), 0u);
}

TEST(StreamIngestor, ShortGapIsInterpolatedLongGapTruncates) {
  telemetry::IngestConfig cfg;
  cfg.max_gap_laps = 3;
  // Car 1: laps 1..10 minus {4, 5} — a 2-lap gap, bridgeable.
  // Car 2: laps 1..10 minus {4, 5, 6, 7} — a 4-lap gap, unbridgeable.
  telemetry::StreamIngestor ing(cfg);
  for (int lap = 1; lap <= 10; ++lap) {
    if (lap != 4 && lap != 5) {
      ASSERT_TRUE(
          ing.push(MakeRecord(1, lap, /*rank=*/lap <= 3 ? 2 : 8)).ok());
    }
    if (lap <= 3 || lap >= 8) {
      ASSERT_TRUE(ing.push(MakeRecord(2, lap)).ok());
    }
  }
  auto out = ing.finalize(telemetry::EventInfo{"Gap", 2019});
  ASSERT_TRUE(out.ok());
  const auto& log = out.value();

  const auto& car1 = log.car(1);
  ASSERT_EQ(car1.laps(), 10u);  // gap bridged
  // Interpolated ranks sit between the neighbours (2 at lap 3, 8 at lap 6).
  EXPECT_GE(car1.rank[3], 2.0);
  EXPECT_LE(car1.rank[3], 8.0);
  EXPECT_GE(car1.rank[4], car1.rank[3]);
  EXPECT_NEAR(ing.damage_fraction(1), 2.0 / 10.0, 1e-12);

  const auto& car2 = log.car(2);
  EXPECT_EQ(car2.laps(), 3u);  // truncated at the gap
  EXPECT_EQ(ing.last_observed_lap(2), 3);
  EXPECT_EQ(ing.counters().imputed, 2u);
  EXPECT_EQ(ing.counters().quarantined_gap, 3u);  // car 2 laps 8..10
}

// Regression: damage_fraction() used to count only imputed laps, so a car
// whose tail was quarantined behind an unbridgeable gap read as pristine
// (0.0) and sailed past the degradation ladder's damage threshold.
TEST(StreamIngestor, TruncatedTailCountsTowardDamageFraction) {
  telemetry::IngestConfig cfg;
  cfg.max_gap_laps = 3;
  telemetry::StreamIngestor ing(cfg);
  // Laps 1..10 arrive clean, then the feed blacks out for 10 laps (inside
  // the forward-jump plausibility bound) and resumes for 21..30.
  for (int lap = 1; lap <= 10; ++lap) {
    ASSERT_TRUE(ing.push(MakeRecord(4, lap)).ok());
  }
  for (int lap = 21; lap <= 30; ++lap) {
    ASSERT_TRUE(ing.push(MakeRecord(4, lap)).ok());
  }
  auto out = ing.finalize(telemetry::EventInfo{"Tail", 2019});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().car(4).laps(), 10u);  // truncated at the gap
  EXPECT_EQ(ing.counters().quarantined_gap, 10u);
  // 20 of the car's 30 observed-span laps (11..30) are not real telemetry.
  EXPECT_NEAR(ing.damage_fraction(4), 20.0 / 30.0, 1e-12);
}

TEST(StreamIngestor, LongLeadingGapDropsCar) {
  telemetry::StreamIngestor ing;
  for (int lap = 20; lap <= 25; ++lap) {
    ASSERT_TRUE(ing.push(MakeRecord(5, lap)).ok());
  }
  ASSERT_TRUE(ing.push(MakeRecord(6, 1)).ok());
  auto out = ing.finalize(telemetry::EventInfo{"Lead", 2019});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().car_ids(), std::vector<int>{6});
  EXPECT_EQ(ing.counters().trimmed_cars, 1u);
  EXPECT_EQ(ing.counters().quarantined_gap, 6u);
}

TEST(StreamIngestor, SchemaAndRangeViolationsAreQuarantined) {
  telemetry::IngestConfig cfg;
  cfg.expected_total_laps = 200;
  telemetry::StreamIngestor ing(cfg);

  auto nan_time = MakeRecord(1, 1);
  nan_time.lap_time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ing.push(nan_time).code(), util::StatusCode::kCorruptData);

  EXPECT_EQ(ing.push(MakeRecord(1, 1, /*rank=*/0)).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(ing.push(MakeRecord(1, 1, /*rank=*/9999)).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(ing.push(MakeRecord(1, 4001)).code(),
            util::StatusCode::kOutOfRange);  // lap > expected_total_laps
  auto negative = MakeRecord(1, 1);
  negative.lap_time = -negative.lap_time;
  EXPECT_EQ(ing.push(negative).code(), util::StatusCode::kOutOfRange);
  auto behind = MakeRecord(1, 1);
  behind.time_behind_leader = -1.0;
  EXPECT_EQ(ing.push(behind).code(), util::StatusCode::kOutOfRange);

  EXPECT_EQ(ing.counters().quarantined_schema, 1u);
  EXPECT_EQ(ing.counters().quarantined_range, 5u);
  EXPECT_EQ(ing.counters().accepted, 0u);
}

TEST(StreamIngestor, MonotonicityGuards) {
  telemetry::StreamIngestor ing;  // reorder_window 8, max_lap_jump 32

  // A first record with an implausible lap must not poison the frontier.
  EXPECT_EQ(ing.push(MakeRecord(3, 500)).code(),
            util::StatusCode::kOutOfRange);
  ASSERT_TRUE(ing.push(MakeRecord(3, 1)).ok());

  // Establish frontier at 30, then violate both window edges.
  for (int lap = 2; lap <= 30; ++lap) {
    ASSERT_TRUE(ing.push(MakeRecord(3, lap)).ok());
  }
  EXPECT_EQ(ing.push(MakeRecord(3, 10)).code(),
            util::StatusCode::kOutOfRange);  // 20 laps behind > window 8
  EXPECT_EQ(ing.push(MakeRecord(3, 100)).code(),
            util::StatusCode::kOutOfRange);  // 70 ahead > jump 32
  EXPECT_TRUE(ing.push(MakeRecord(3, 25)).ok());  // within the window
  EXPECT_EQ(ing.counters().quarantined_monotonic, 3u);
  EXPECT_EQ(ing.counters().duplicates, 1u);  // lap 25 already accepted
}

TEST(StreamIngestor, PushAfterFinalizeFails) {
  telemetry::StreamIngestor ing;
  ASSERT_TRUE(ing.push(MakeRecord(1, 1)).ok());
  ASSERT_TRUE(ing.finalize(telemetry::EventInfo{"X", 2019}).ok());
  EXPECT_EQ(ing.push(MakeRecord(1, 2)).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(ing.finalize(telemetry::EventInfo{"X", 2019}).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(StreamIngestor, EmptyStreamIsUnavailable) {
  telemetry::StreamIngestor ing;
  auto out = ing.finalize(telemetry::EventInfo{"Empty", 2019});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kUnavailable);
}

TEST(StreamIngestor, BeginRaceResetsPerRaceCountersAndFinalizedLatch) {
  // Regression: a session-long ingestor (the online loop keeps one alive
  // across races) used to carry quarantine counters and the finalized latch
  // from race to race, so race N's damage was billed to race N+1 and the
  // second race could not be ingested at all. begin_race() re-arms the
  // ingestor; counters() is per-race, session_counters() is the lifetime
  // total.
  telemetry::StreamIngestor ing;
  // Race 1: two good records, one schema-corrupt one.
  ASSERT_TRUE(ing.push(MakeRecord(1, 1)).ok());
  ASSERT_TRUE(ing.push(MakeRecord(1, 2)).ok());
  auto nan_rec = MakeRecord(1, 3);
  nan_rec.lap_time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ing.push(nan_rec).ok());
  ASSERT_TRUE(ing.finalize(telemetry::EventInfo{"A", 2019}).ok());
  EXPECT_EQ(ing.counters().accepted, 2u);
  EXPECT_EQ(ing.counters().quarantined_schema, 1u);

  // Without begin_race the ingestor is spent (PushAfterFinalizeFails); with
  // it, the next race starts from a zeroed per-race ledger.
  ing.begin_race();
  EXPECT_EQ(ing.counters().accepted, 0u);
  EXPECT_EQ(ing.counters().quarantined(), 0u);
  ASSERT_TRUE(ing.push(MakeRecord(2, 1)).ok());
  ASSERT_TRUE(ing.push(MakeRecord(2, 2)).ok());
  auto second = ing.finalize(telemetry::EventInfo{"B", 2019});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ing.counters().accepted, 2u);
  EXPECT_EQ(ing.counters().quarantined_schema, 0u)
      << "race A's quarantine leaked into race B's damage report";

  // The session ledger still remembers both races.
  const auto session = ing.session_counters();
  EXPECT_EQ(session.accepted, 4u);
  EXPECT_EQ(session.quarantined_schema, 1u);

  // Damage metadata is also per-race: race B never saw car 1.
  EXPECT_EQ(ing.last_observed_lap(1), 0);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline properties
// ---------------------------------------------------------------------------

TEST(FaultPipeline, ZeroFaultRateIsByteIdenticalEndToEnd) {
  const auto race = SmallRace();
  sim::FaultInjector feed(race.records(), sim::FaultProfile{}, 1);
  telemetry::IngestConfig cfg;
  cfg.expected_total_laps = race.num_laps();
  telemetry::StreamIngestor ing(cfg);
  while (!feed.done()) {
    if (auto rec = feed.next()) ASSERT_TRUE(ing.push(*rec).ok());
  }
  auto out = ing.finalize(race.info());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().to_csv().to_string(), race.to_csv().to_string());
  EXPECT_EQ(ing.counters().quarantined(), 0u);
  EXPECT_EQ(ing.counters().imputed, 0u);
}

TEST(FaultPipeline, AcceptanceProfileSurvivesWithAccounting) {
  // The ISSUE acceptance scenario: 5% drop + 2% corruption + reorder depth 3
  // must produce a usable log with nonzero quarantine counters, no crash.
  const auto race = SmallRace();
  sim::FaultProfile p;
  p.drop_rate = 0.05;
  p.corrupt_rate = 0.02;
  p.reorder_depth = 3;
  sim::FaultInjector feed(race.records(), p, 77);
  telemetry::IngestConfig cfg;
  cfg.expected_total_laps = race.num_laps();
  telemetry::StreamIngestor ing(cfg);
  while (!feed.done()) {
    if (auto rec = feed.next()) (void)ing.push(*rec);
  }
  auto out = ing.finalize(race.info());
  ASSERT_TRUE(out.ok());
  const auto& log = out.value();
  EXPECT_GT(log.num_laps(), 0);
  EXPECT_FALSE(log.car_ids().empty());
  EXPECT_GT(ing.counters().quarantined(), 0u);
  EXPECT_GT(ing.counters().imputed, 0u);
  // Whatever survived must satisfy the RaceLog invariants (contiguous laps
  // from 1) — RaceLog's constructor throws otherwise, so ok() proves it.
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// Toy partitionable forecaster: fills every sample with `value`. Optional
/// per-partition sleep (to trip deadlines) and optional throwing.
class ConstForecaster : public core::RaceForecaster,
                        public core::PartitionableForecaster {
 public:
  explicit ConstForecaster(double value, int sleep_ms = 0,
                           bool throw_in_partition = false)
      : value_(value),
        sleep_ms_(sleep_ms),
        throw_in_partition_(throw_in_partition) {}

  std::string name() const override { return "const"; }

  core::RaceSamples forecast(const telemetry::RaceLog& race, int origin_lap,
                             int horizon, int num_samples,
                             util::Rng& rng) override {
    prepare(race);
    const std::uint64_t base = rng();
    return forecast_partition(race, origin_lap, horizon, num_samples, base,
                              forecast_cars(race, origin_lap));
  }

  void prepare(const telemetry::RaceLog&) override {}

  std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                 int origin_lap) override {
    std::vector<int> cars;
    for (int id : race.car_ids()) {
      if (race.car(id).laps() >= static_cast<std::size_t>(origin_lap)) {
        cars.push_back(id);
      }
    }
    return cars;
  }

  core::RaceSamples forecast_partition(const telemetry::RaceLog&, int,
                                       int horizon, int num_samples,
                                       std::uint64_t,
                                       std::span<const int> cars) override {
    if (throw_in_partition_) throw std::runtime_error("model exploded");
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    core::RaceSamples out;
    for (int car : cars) {
      tensor::Matrix m(static_cast<std::size_t>(num_samples),
                       static_cast<std::size_t>(horizon));
      for (double& v : m.flat()) v = value_;
      out.emplace(car, std::move(m));
    }
    return out;
  }

 private:
  double value_;
  int sleep_ms_;
  bool throw_in_partition_;
};

class DegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    race_ = new telemetry::RaceLog(SmallRace());
  }
  static void TearDownTestSuite() { delete race_; }

  static double CarValue(const core::RaceSamples& out, int car) {
    return out.at(car)(0, 0);
  }

  static telemetry::RaceLog* race_;
};
telemetry::RaceLog* DegradationTest::race_ = nullptr;

TEST_F(DegradationTest, DamagedSeriesRouteToFallback) {
  ConstForecaster primary(42.0);
  core::ParallelForecastEngine engine(primary, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  policy.series_damaged = [](int car_id, int) { return car_id % 2 == 1; };
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(3);
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);
  ASSERT_FALSE(out.empty());
  std::uint64_t odd = 0, even = 0;
  for (const auto& [car, m] : out) {
    (void)m;
    if (car % 2 == 1) {
      EXPECT_EQ(CarValue(out, car), 7.0) << "car " << car;
      ++odd;
    } else {
      EXPECT_EQ(CarValue(out, car), 42.0) << "car " << car;
      ++even;
    }
  }
  const auto deg = engine.degradation();
  EXPECT_EQ(deg.damaged_fallback_cars, odd);
  EXPECT_EQ(deg.full_cars, even);
  EXPECT_EQ(deg.fallback_cars(), odd);
  EXPECT_EQ(deg.task_failures, 0u);
}

// Regression for the documented armed-active winner-line nondeterminism:
// CurRank (a point forecaster) returns ONE row per rescued car, while
// primary cars carry num_samples rows. The engine used to merge the 1-row
// matrices verbatim, and sort_to_ranks — which sizes its sample loop from
// the first car's matrix — then read past the short matrices: unchecked
// out-of-bounds heap reads in release builds, so the winner line of
// examples/live_forecast changed run to run whenever tier 1 was active.
// The fix broadcasts fallback matrices to num_samples rows in the merge.
TEST_F(DegradationTest, PartialFallbackOutputHasUniformSampleRows) {
  ConstForecaster primary(42.0);
  core::ParallelForecastEngine engine(primary, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<core::CurRankForecaster>();
  policy.series_damaged = [](int car_id, int) { return car_id % 2 == 1; };
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(21);
  const int kSamples = 6, kHorizon = 5;
  const auto out = engine.forecast(*race_, 30, kHorizon, kSamples, rng);
  ASSERT_FALSE(out.empty());
  bool saw_fallback_car = false;
  for (const auto& [car, m] : out) {
    // The mixed-tier merge must hand downstream consumers a shape-uniform
    // map: every car at (num_samples x horizon), fallback cars included.
    ASSERT_EQ(m.rows(), static_cast<std::size_t>(kSamples)) << "car " << car;
    ASSERT_EQ(m.cols(), static_cast<std::size_t>(kHorizon)) << "car " << car;
    if (car % 2 == 1) {
      saw_fallback_car = true;
      // Broadcast rows replicate the point forecast byte-for-byte.
      for (std::size_t s = 1; s < m.rows(); ++s) {
        for (std::size_t h = 0; h < m.cols(); ++h) {
          EXPECT_TRUE(SameBits(m(s, h), m(0, h)))
              << "car " << car << " sample " << s << " lap " << h;
        }
      }
    }
  }
  ASSERT_TRUE(saw_fallback_car);

  // Downstream rank conversion must be well-defined and reproducible on
  // the mixed-tier output (it crashed-silently before the fix).
  const auto ranks_a = core::sort_to_ranks(out);
  const auto ranks_b = core::sort_to_ranks(out);
  for (const auto& [car, m] : ranks_a) {
    const auto& n = ranks_b.at(car);
    ASSERT_EQ(std::memcmp(m.flat().data(), n.flat().data(),
                          m.flat().size() * sizeof(double)),
              0)
        << "car " << car;
  }
}

TEST_F(DegradationTest, ArmedButIdlePolicyIsBitIdentical) {
  // With a fallback configured but nothing damaged and no deadline, the
  // ladder must not perturb the engine's output or rng protocol.
  core::CurRankForecaster a_model, b_model;
  core::ParallelForecastEngine plain(a_model, 2);
  core::ParallelForecastEngine armed(b_model, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  policy.series_damaged = [](int, int) { return false; };
  ASSERT_TRUE(armed.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng_a(11), rng_b(11);
  const auto a = plain.forecast(*race_, 30, 5, 9, rng_a);
  const auto b = armed.forecast(*race_, 30, 5, 9, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [car, m] : a) {
    const auto& n = b.at(car);
    ASSERT_EQ(m.rows(), n.rows());
    ASSERT_EQ(m.cols(), n.cols());
    EXPECT_EQ(std::memcmp(m.flat().data(), n.flat().data(),
                          m.flat().size() * sizeof(double)),
              0)
        << "car " << car;
  }
  EXPECT_EQ(rng_a(), rng_b());
  EXPECT_EQ(armed.degradation().fallback_cars(), 0u);
}

TEST_F(DegradationTest, DeadlineOverrunFallsBackAndStillServesEveryCar) {
  ConstForecaster primary(42.0, /*sleep_ms=*/30);
  core::ParallelForecastEngine engine(primary, 2, /*max_cars_per_task=*/4);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.deadline_seconds = 1e-4;  // far below one partition's sleep
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(5);
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);

  // Every running car is served — by the primary or by the fallback.
  ConstForecaster probe(0.0);
  const auto expected = probe.forecast_cars(*race_, 30);
  ASSERT_EQ(out.size(), expected.size());
  for (int car : expected) EXPECT_TRUE(out.count(car)) << "car " << car;

  const auto deg = engine.degradation();
  EXPECT_GE(deg.deadline_hits, 1u);
  EXPECT_GT(deg.deadline_fallback_cars, 0u);
  EXPECT_EQ(deg.full_cars + deg.fallback_cars(), expected.size());
}

// Regression: a block that finished after the deadline used to be counted
// as full_cars — a forecast could report deadline_hits > 0 with zero
// deadline_fallback_cars, and serve the late primary result past its
// deadline. One worker and one block make it deterministic: the only task
// sleeps past the deadline, yet the drain always sees a completed result.
TEST_F(DegradationTest, TimedOutBlockIsNotCountedAsFullEvenIfItFinishes) {
  ConstForecaster primary(42.0, /*sleep_ms=*/50);
  core::ParallelForecastEngine engine(primary, /*threads=*/1,
                                      /*max_cars_per_task=*/1024);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.deadline_seconds = 1e-4;  // far below the single block's sleep
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(5);
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);

  ConstForecaster probe(0.0);
  const auto expected = probe.forecast_cars(*race_, 30);
  ASSERT_EQ(out.size(), expected.size());
  // Every car must carry the fallback's value: the timed-out primary
  // result is discarded even though it completed during the drain.
  for (int car : expected) {
    EXPECT_EQ(CarValue(out, car), 7.0) << "car " << car;
  }
  const auto deg = engine.degradation();
  EXPECT_EQ(deg.deadline_hits, 1u);
  EXPECT_EQ(deg.full_cars, 0u);
  EXPECT_EQ(deg.deadline_fallback_cars, expected.size());
}

// Inline mode (threads 0, the default in the registry and the shards) runs
// every block inside submit(). The deadline rule must still hold there: the
// engine used to run all blocks to the end and then send only block 0 (which
// had finished on time) to the fallback. Blocks of 10 ms against a 25 ms
// deadline: the first is primary, the last never starts.
TEST_F(DegradationTest, InlineDeadlineBoundsWorkAndDegradesTheLateBlocks) {
  constexpr std::size_t kBlocks = 8, kCarsPerBlock = 4;
  constexpr int kBlockMs = 10;
  class FirstCars : public ConstForecaster {
   public:
    FirstCars() : ConstForecaster(42.0, kBlockMs) {}
    std::vector<int> forecast_cars(const telemetry::RaceLog& race,
                                   int origin_lap) override {
      auto cars = ConstForecaster::forecast_cars(race, origin_lap);
      cars.resize(std::min(cars.size(), kBlocks * kCarsPerBlock));
      return cars;
    }
  };
  FirstCars primary;
  const auto cars = primary.forecast_cars(*race_, 30);
  ASSERT_EQ(cars.size(), kBlocks * kCarsPerBlock);
  core::ParallelForecastEngine engine(primary, /*threads=*/0, kCarsPerBlock);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.deadline_seconds = 0.025;
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(5);
  util::Timer wall;
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);
  const double wall_ms = wall.millis();

  ASSERT_EQ(out.size(), cars.size());
  for (std::size_t i = 0; i < kCarsPerBlock; ++i) {
    EXPECT_EQ(CarValue(out, cars[i]), 42.0) << "block 0 car " << cars[i];
    const int late = cars[cars.size() - 1 - i];
    EXPECT_EQ(CarValue(out, late), 7.0) << "last block car " << late;
  }
  const auto deg = engine.degradation();
  EXPECT_EQ(deg.full_cars + deg.fallback_cars(), cars.size());
  EXPECT_EQ(deg.deadline_hits, 1u);
  EXPECT_LT(wall_ms, kBlocks * kBlockMs);
}

TEST_F(DegradationTest, TaskExceptionFallsBackWhenConfigured) {
  ConstForecaster primary(42.0, 0, /*throw_in_partition=*/true);
  core::ParallelForecastEngine engine(primary, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(5);
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);
  ASSERT_FALSE(out.empty());
  for (const auto& [car, m] : out) {
    (void)m;
    EXPECT_EQ(CarValue(out, car), 7.0) << "car " << car;
  }
  const auto deg = engine.degradation();
  EXPECT_GE(deg.task_failures, 1u);
  EXPECT_EQ(deg.error_fallback_cars, out.size());
  EXPECT_EQ(deg.full_cars, 0u);
}

TEST_F(DegradationTest, TaskExceptionWithoutFallbackPropagates) {
  ConstForecaster primary(42.0, 0, /*throw_in_partition=*/true);
  core::ParallelForecastEngine engine(primary, 2);
  util::Rng rng(5);
  EXPECT_THROW((void)engine.forecast(*race_, 30, 5, 4, rng),
               std::runtime_error);
}

TEST_F(DegradationTest, NonPartitionableFallbackIsRejected) {
  ConstForecaster primary(42.0);
  core::ParallelForecastEngine engine(primary, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<core::ArimaForecaster>();
  // ArimaForecaster IS partitionable; use a wrapper that is not.
  class PlainForecaster : public core::RaceForecaster {
   public:
    std::string name() const override { return "plain"; }
    core::RaceSamples forecast(const telemetry::RaceLog&, int, int, int,
                               util::Rng&) override {
      return {};
    }
  };
  policy.fallback = std::make_shared<PlainForecaster>();
  const auto st = engine.set_degradation_policy(std::move(policy));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
}

// A negative or NaN deadline would make every `deadline > 0.0` comparison
// in the forecast path false — silently disabling the deadline tier while
// the caller believes it is armed. The setter must reject such policies
// and leave the previously armed policy in force.
TEST_F(DegradationTest, InvalidDeadlineIsRejectedNotSilentlyDisabled) {
  ConstForecaster primary(42.0, /*sleep_ms=*/30);
  core::ParallelForecastEngine engine(primary, 2);

  for (const double bad :
       {-1.0, -1e-9, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    core::ParallelForecastEngine::DegradationPolicy policy;
    policy.deadline_seconds = bad;
    policy.fallback = std::make_shared<ConstForecaster>(7.0);
    const auto st = engine.set_degradation_policy(std::move(policy));
    EXPECT_FALSE(st.ok()) << "deadline " << bad << " accepted";
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  }

  // A rejected policy must not clobber a previously armed valid one: the
  // deadline tier armed below still fires after the failed updates above.
  {
    core::ParallelForecastEngine::DegradationPolicy policy;
    policy.deadline_seconds = 1e-4;  // far below one partition's sleep
    policy.fallback = std::make_shared<ConstForecaster>(7.0);
    ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());
  }
  {
    core::ParallelForecastEngine::DegradationPolicy policy;
    policy.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
    policy.fallback = std::make_shared<ConstForecaster>(7.0);
    EXPECT_FALSE(engine.set_degradation_policy(std::move(policy)).ok());
  }
  util::Rng rng(5);
  const auto out = engine.forecast(*race_, 30, 5, 4, rng);
  ASSERT_FALSE(out.empty());
  EXPECT_GT(engine.degradation().deadline_hits, 0u)
      << "armed deadline tier was lost after a rejected policy update";
}

TEST_F(DegradationTest, GlobalCountersMirrorEngineTallies) {
  auto& reg = obs::Registry::instance();
  const auto count = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  const auto full0 = count("degradation.full_cars");
  const auto damaged0 = count("degradation.damaged_fallback_cars");
  const auto deadline0 = count("degradation.deadline_fallback_cars");
  const auto error0 = count("degradation.error_fallback_cars");
  const auto failures0 = count("degradation.task_failures");
  ConstForecaster primary(42.0);
  core::ParallelForecastEngine engine(primary, 2);
  core::ParallelForecastEngine::DegradationPolicy policy;
  policy.fallback = std::make_shared<ConstForecaster>(7.0);
  policy.series_damaged = [](int car_id, int) { return car_id % 3 == 0; };
  ASSERT_TRUE(engine.set_degradation_policy(std::move(policy)).ok());

  util::Rng rng(8);
  (void)engine.forecast(*race_, 30, 5, 4, rng);
  const auto deg = engine.degradation();
  EXPECT_EQ(count("degradation.full_cars") - full0, deg.full_cars);
  EXPECT_EQ(count("degradation.damaged_fallback_cars") - damaged0,
            deg.damaged_fallback_cars);
  EXPECT_EQ(count("degradation.damaged_fallback_cars") - damaged0 +
                count("degradation.deadline_fallback_cars") - deadline0 +
                count("degradation.error_fallback_cars") - error0,
            deg.fallback_cars());
  EXPECT_EQ(count("degradation.task_failures") - failures0, 0u);
}

// ---------------------------------------------------------------------------
// WireFaultInjector: the serving path's transport adversary
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> test_frame(std::size_t n, std::uint8_t fill) {
  std::vector<std::uint8_t> frame(n);
  for (std::size_t i = 0; i < n; ++i) {
    frame[i] = static_cast<std::uint8_t>(fill + i);
  }
  return frame;
}

TEST(WireFaultInjector, ZeroProfileIsByteIdenticalPassthrough) {
  sim::WireFaultInjector injector({}, 1234);
  for (int i = 0; i < 500; ++i) {
    const auto frame = test_frame(1 + (i % 64), static_cast<std::uint8_t>(i));
    const auto out = injector.apply(frame);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, frame);
    EXPECT_EQ(injector.stall_before_send_ms(), 0);
  }
  const auto& c = injector.counters();
  EXPECT_EQ(c.frames, 500u);
  EXPECT_EQ(c.delivered, 500u);
  EXPECT_EQ(c.dropped + c.truncated + c.corrupted + c.stalls, 0u);
}

TEST(WireFaultInjector, SameSeedSameMangling) {
  sim::WireFaultProfile profile;
  profile.drop_rate = 0.2;
  profile.truncate_rate = 0.2;
  profile.corrupt_rate = 0.2;
  profile.stall_rate = 0.1;
  sim::WireFaultInjector a(profile, 7), b(profile, 7);
  for (int i = 0; i < 300; ++i) {
    const auto frame = test_frame(32, static_cast<std::uint8_t>(i));
    const auto out_a = a.apply(frame);
    const auto out_b = b.apply(frame);
    ASSERT_EQ(out_a.has_value(), out_b.has_value());
    if (out_a) EXPECT_EQ(*out_a, *out_b);
    EXPECT_EQ(a.stall_before_send_ms(), b.stall_before_send_ms());
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
  EXPECT_EQ(a.counters().truncated, b.counters().truncated);
  EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);
}

TEST(WireFaultInjector, TruncationKeepsAtLeastOneByteAndNeverAll) {
  sim::WireFaultProfile profile;
  profile.truncate_rate = 1.0;
  sim::WireFaultInjector injector(profile, 3);
  for (int i = 0; i < 200; ++i) {
    const auto frame = test_frame(40, 0);
    const auto out = injector.apply(frame);
    ASSERT_TRUE(out.has_value());
    EXPECT_GE(out->size(), 1u);
    EXPECT_LT(out->size(), frame.size());
    // The surviving prefix is untouched — truncation, not corruption.
    EXPECT_TRUE(std::equal(out->begin(), out->end(), frame.begin()));
  }
  EXPECT_EQ(injector.counters().truncated, 200u);
  EXPECT_EQ(injector.counters().delivered, 200u);
}

TEST(WireFaultInjector, CorruptionFlipsExactlyOneBit) {
  sim::WireFaultProfile profile;
  profile.corrupt_rate = 1.0;
  sim::WireFaultInjector injector(profile, 11);
  for (int i = 0; i < 200; ++i) {
    const auto frame = test_frame(24, static_cast<std::uint8_t>(i));
    const auto out = injector.apply(frame);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->size(), frame.size());
    int bits_flipped = 0;
    for (std::size_t j = 0; j < frame.size(); ++j) {
      bits_flipped += __builtin_popcount((*out)[j] ^ frame[j]);
    }
    EXPECT_EQ(bits_flipped, 1);
  }
  EXPECT_EQ(injector.counters().corrupted, 200u);
}

TEST(WireFaultInjector, CountersAccountForEveryFrame) {
  sim::WireFaultProfile profile;
  profile.drop_rate = 0.3;
  profile.truncate_rate = 0.2;
  profile.corrupt_rate = 0.2;
  sim::WireFaultInjector injector(profile, 21);
  for (int i = 0; i < 1000; ++i) {
    (void)injector.apply(test_frame(16, static_cast<std::uint8_t>(i)));
  }
  const auto& c = injector.counters();
  EXPECT_EQ(c.frames, 1000u);
  EXPECT_EQ(c.delivered + c.dropped, 1000u);
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.truncated, 0u);
  EXPECT_GT(c.corrupted, 0u);
  // A frame is truncated OR corrupted, never both (one fault per frame).
  EXPECT_LE(c.truncated + c.corrupted, c.delivered);
}

// Artifact corruption "mid-swap": the candidate file is damaged between
// being written by the trainer and being staged by the registry — the
// window the v2 checksum exists for. The swap must reject, the active
// model must keep serving bit-identical forecasts, and a later probation
// failure must still roll back cleanly.
TEST(WireFaultInjector, ArtifactCorruptionMidSwapIsContainedAndRollbackFires) {
  const auto race =
      sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
  const std::string good =
      test_support::unique_temp_path("fault_swap_good.bin");
  const std::string cand =
      test_support::unique_temp_path("fault_swap_cand.bin");
  serve::AffineRankModel::save_artifact(good, 1.0, 0.0);
  serve::AffineRankModel::save_artifact(cand, 1.2, 0.5);

  serve::RegistryConfig cfg;
  cfg.gate.probe_origin_lap = 30;
  cfg.gate.probe_horizon = 5;
  cfg.gate.probe_num_samples = 4;
  cfg.gate.max_prediction_failure_rate = 1.0;  // probation is under test
  serve::ModelRegistry registry(
      [](const std::string& path)
          -> util::Result<std::shared_ptr<core::RaceForecaster>> {
        auto model = std::make_shared<serve::AffineRankModel>();
        if (auto st = model->load_artifact(path); !st.ok()) return st;
        return std::shared_ptr<core::RaceForecaster>(std::move(model));
      },
      cfg);
  registry.set_probe_race(race);
  ASSERT_TRUE(registry.init(good).ok());

  auto serve_bytes = [&race, &registry] {
    util::Rng rng(9);
    const auto samples =
        registry.active()->engine->forecast(race, 30, 5, 4, rng);
    std::vector<double> flat;
    for (const auto& [car, m] : samples) {
      for (double v : m.flat()) flat.push_back(v);
    }
    return flat;
  };
  const auto baseline = serve_bytes();

  // Mangle the candidate's bytes with the same seeded adversary the wire
  // tests use — a bit flip and a truncation, applied to the file.
  std::vector<char> clean;
  {
    std::ifstream in(cand, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  sim::WireFaultProfile corrupt_only;
  corrupt_only.corrupt_rate = 1.0;
  sim::WireFaultInjector injector(corrupt_only, 5);
  const auto mangled = injector.apply(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(clean.data()), clean.size()));
  ASSERT_TRUE(mangled.has_value());
  for (const auto& bytes :
       {std::vector<char>(mangled->begin(), mangled->end()),
        std::vector<char>(clean.begin(),
                          clean.begin() + static_cast<std::ptrdiff_t>(
                                              clean.size() / 2))}) {
    std::ofstream out(cand, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    const auto outcome = registry.swap(cand);
    EXPECT_EQ(outcome.action, serve::wire::SwapAction::kRejected);
    EXPECT_EQ(registry.active_version(), 1u);
    const auto now = serve_bytes();
    ASSERT_EQ(now.size(), baseline.size());
    EXPECT_EQ(std::memcmp(now.data(), baseline.data(),
                          now.size() * sizeof(double)),
              0);
  }

  // Healthy candidate promotes; a probation failure rolls straight back.
  {
    std::ofstream out(cand, std::ios::binary | std::ios::trunc);
    out.write(clean.data(), static_cast<std::streamsize>(clean.size()));
  }
  ASSERT_EQ(registry.swap(cand).action, serve::wire::SwapAction::kPromoted);
  ASSERT_EQ(registry.active_version(), 2u);
  EXPECT_TRUE(registry.record_serving_result(2, /*ok=*/false));
  EXPECT_EQ(registry.active_version(), 1u);
  EXPECT_EQ(std::memcmp(serve_bytes().data(), baseline.data(),
                        baseline.size() * sizeof(double)),
            0) << "post-rollback serving differs from the original model";
}

}  // namespace
