#include <gtest/gtest.h>

#include "features/scaler.hpp"
#include "features/transforms.hpp"
#include "features/window.hpp"
#include "simulator/season.hpp"

#include <sstream>

namespace {

using namespace ranknet;

telemetry::RaceLog tiny_race() {
  telemetry::EventInfo info;
  info.name = "Tiny";
  info.year = 2020;
  info.total_laps = 6;
  using telemetry::LapStatus;
  using telemetry::TrackStatus;
  std::vector<telemetry::LapRecord> recs;
  auto add = [&](int rank, int car, int lap, telemetry::LapStatus ls,
                 telemetry::TrackStatus ts) {
    recs.push_back({rank, car, lap, 50.0, rank == 1 ? 0.0 : 1.0, ls, ts});
  };
  // Car 1: pit on lap 4. Car 2: never pits. Laps 2-3 under yellow.
  for (int lap = 1; lap <= 6; ++lap) {
    const auto ts = (lap == 2 || lap == 3) ? TrackStatus::kYellow
                                           : TrackStatus::kGreen;
    add(1, 1, lap, lap == 4 ? LapStatus::kPit : LapStatus::kNormal, ts);
    add(2, 2, lap, LapStatus::kNormal, ts);
  }
  return telemetry::RaceLog(info, std::move(recs));
}

TEST(Transforms, StatusAndAgeFeatures) {
  const auto race = tiny_race();
  const auto f = features::compute_status_features(race.car(1));
  // PitAge accumulates then resets at the pit lap.
  EXPECT_EQ(f.pit_age, (std::vector<double>{1, 2, 3, 0, 1, 2}));
  // CautionLaps counts yellow laps since last pit (laps 2,3 yellow).
  EXPECT_EQ(f.caution_laps, (std::vector<double>{0, 1, 2, 0, 0, 0}));
  EXPECT_EQ(f.lap_status[3], 1.0);
  EXPECT_EQ(f.track_status[1], 1.0);
  EXPECT_EQ(f.track_status[4], 0.0);
}

TEST(Transforms, LapsToNextPit) {
  const auto race = tiny_race();
  const auto to_pit = features::laps_to_next_pit(race.car(1));
  // Pit is at index 3: distances 3,2,1,0 then no further stop (to end: 6).
  EXPECT_EQ(to_pit[0], 3.0);
  EXPECT_EQ(to_pit[2], 1.0);
  EXPECT_EQ(to_pit[3], 0.0);
  EXPECT_EQ(to_pit[4], 2.0);  // sentinel: end of series at index 6
}

TEST(Transforms, RaceContext) {
  const auto race = tiny_race();
  const auto ctx = features::compute_race_context(race);
  EXPECT_EQ(ctx.total_pit_count[3], 1.0);
  EXPECT_EQ(ctx.total_pit_count[0], 0.0);
  EXPECT_EQ(ctx.total_caution[1], 1.0);
  EXPECT_EQ(ctx.total_caution[4], 0.0);
}

TEST(Transforms, LeaderPitCount) {
  const auto race = tiny_race();
  // Car 1 leads and pits lap 4 => for car 2, one leader pit at lap 4.
  const auto lpc = features::compute_leader_pit_count(race, 2);
  EXPECT_EQ(lpc[3], 1.0);
  EXPECT_EQ(lpc[2], 0.0);
  // The leader itself has no cars ahead pitting.
  const auto lpc1 = features::compute_leader_pit_count(race, 1);
  EXPECT_EQ(lpc1[3], 0.0);
}

TEST(Covariates, DimMatchesConfig) {
  features::CovariateConfig full;
  EXPECT_EQ(full.dim(), 9u);
  features::CovariateConfig none;
  none.race_status = none.age_features = none.context_features =
      none.shift_features = false;
  EXPECT_EQ(none.dim(), 0u);
}

TEST(Covariates, ShiftFeaturesLookAhead) {
  const auto race = tiny_race();
  const auto streams = features::StatusStreams::from_race(race, 1);
  features::CovariateConfig cfg;  // full, shift = 2
  const auto covs = features::build_covariates(streams, cfg);
  // One row of 9 per lap, back to back: lap t's value c at covs[t * 9 + c].
  ASSERT_EQ(covs.size(), 6u * 9u);
  const auto at = [&](std::size_t t, std::size_t c) { return covs[t * 9 + c]; };
  // Layout: [track, lap, caution/10, age/40, leader/10, total/10,
  //          shift_lap, shift_track, shift_total/10].
  // At lap index 1 (lap 2), shift 2 looks at lap 4 = pit lap of car 1.
  EXPECT_EQ(at(1, 6), 1.0);
  // At index 4 (lap 5), shift 2 looks past the end -> zeros.
  EXPECT_EQ(at(4, 6), 0.0);
  // Age features recomputed from statuses match compute_status_features.
  const auto f = features::compute_status_features(race.car(1));
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_NEAR(at(t, 3), f.pit_age[t] / 40.0, 1e-12);
    EXPECT_NEAR(at(t, 2), f.caution_laps[t] / 10.0, 1e-12);
  }
}

TEST(CarVocab, IndexingAndUnknownSlot) {
  const auto race = tiny_race();
  features::CarVocab vocab({race});
  EXPECT_EQ(vocab.size(), 3);  // cars 1, 2 + unknown
  EXPECT_EQ(vocab.index(1), 0);
  EXPECT_EQ(vocab.index(2), 1);
  EXPECT_EQ(vocab.index(77), 2);  // unknown maps to the last slot
}

TEST(Windows, BuildShapesWeightsAndStride) {
  const auto ds = sim::build_event_dataset("Indy500");
  features::CarVocab vocab(ds.train);
  features::WindowConfig cfg;
  cfg.encoder_length = 20;
  cfg.decoder_length = 2;
  cfg.stride = 4;
  cfg.change_weight = 9.0;
  const std::vector<telemetry::RaceLog> one{ds.train[0]};
  const auto windows = features::build_windows(one, vocab, cfg);
  ASSERT_FALSE(windows.empty());
  std::size_t weighted = 0;
  for (const auto& w : windows) {
    EXPECT_EQ(w.target.size(), 22u);
    EXPECT_EQ(w.covariates.size(), 22u * cfg.covariates.dim());
    EXPECT_TRUE(w.weight == 1.0 || w.weight == 9.0);
    if (w.weight == 9.0) ++weighted;
    EXPECT_GE(w.car_index, 0);
    EXPECT_LT(w.car_index, vocab.size());
  }
  // Rank changes exist, so some windows must carry the higher weight...
  EXPECT_GT(weighted, 0u);
  // ...but not all (most laps are static).
  EXPECT_LT(weighted, windows.size());
}

TEST(Windows, ShortSeriesProduceNoWindows) {
  const auto race = tiny_race();
  features::CarVocab vocab({race});
  features::WindowConfig cfg;  // encoder 60 >> 6 laps
  const auto windows = features::build_windows({race}, vocab, cfg);
  EXPECT_TRUE(windows.empty());
}

TEST(Scaler, TransformInverseRoundTrip) {
  features::StandardScaler s;
  const std::vector<double> xs{2, 4, 6, 8};
  s.fit(xs);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  for (double x : xs) {
    EXPECT_NEAR(s.inverse(s.transform(x)), x, 1e-12);
  }
  EXPECT_NEAR(s.transform(5.0), 0.0, 1e-12);
}

TEST(Scaler, DegenerateInputKeepsUnitScale) {
  features::StandardScaler s;
  const std::vector<double> xs{3, 3, 3};
  s.fit(xs);
  EXPECT_DOUBLE_EQ(s.stddev(), 1.0);
  EXPECT_DOUBLE_EQ(s.transform(4.0), 1.0);
}

TEST(Scaler, SerializeRoundTrip) {
  features::StandardScaler s(2.5, 1.5);
  std::stringstream ss;
  s.save(ss);
  const auto back = features::StandardScaler::load(ss);
  EXPECT_DOUBLE_EQ(back.mean(), 2.5);
  EXPECT_DOUBLE_EQ(back.stddev(), 1.5);
}

}  // namespace
