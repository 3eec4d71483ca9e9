// Tests of the sequence models (LSTM + Transformer) and the PitModel at the
// model level: learning synthetic patterns, trace/step consistency,
// sampling behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <span>

#include "core/ar_model.hpp"
#include "core/pit_model.hpp"
#include "core/status_forecast.hpp"
#include "core/transformer_model.hpp"
#include "nn/adam.hpp"
#include "simulator/season.hpp"
#include "util/stats.hpp"

namespace {

using namespace ranknet;
using core::LstmSeqModel;
using core::PitFeatures;
using core::PitModel;
using core::SeqModelConfig;
using features::SeqExample;

/// Synthetic windows: the target alternates slowly unless the single
/// covariate fires, which forces a +5 jump — a toy version of the pit
/// effect RankNet must learn.
std::vector<SeqExample> toy_windows(std::size_t count, std::size_t window,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SeqExample> out;
  for (std::size_t i = 0; i < count; ++i) {
    SeqExample ex;
    ex.car_index = 0;
    double level = rng.uniform(5.0, 15.0);
    ex.target.resize(window);
    ex.covariates.assign(window, 0.0);  // one covariate per lap
    for (std::size_t t = 0; t < window; ++t) {
      if (rng.bernoulli(0.15)) {
        ex.covariates[t] = 1.0;
        level += 5.0;
      }
      ex.target[t] = level + rng.normal(0.0, 0.1);
    }
    ex.weight = 1.0;
    out.push_back(std::move(ex));
  }
  return out;
}

SeqModelConfig toy_config() {
  SeqModelConfig cfg;
  cfg.cov_dim = 1;
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.embed_dim = 2;
  cfg.vocab = 2;
  return cfg;
}

features::StandardScaler toy_scaler() {
  return features::StandardScaler(12.0, 6.0);
}

/// Every step of one sequence's encoder trace: a batch-1
/// trace_checkpoints call that keeps every step.
std::vector<double> Trace(const LstmSeqModel& model,
                          std::span<const double> history,
                          std::span<const double> covs, std::size_t width,
                          int car) {
  return model.trace_checkpoints({&history, 1}, {&covs, 1}, width, {&car, 1},
                                 1)[0];
}

TEST(LstmSeqModel, TrainingReducesLoss) {
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  const auto windows = toy_windows(64, 12, 1);
  std::vector<const SeqExample*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  const auto batch = model.make_batch(ptrs, 2);
  nn::Adam adam(model.params(), {.lr = 5e-3});
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 60; ++step) {
    const double loss = model.train_step(batch);
    adam.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first - 0.5);
}

TEST(LstmSeqModel, LearnsCovariateDrivenJump) {
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  const auto windows = toy_windows(128, 12, 2);
  std::vector<const SeqExample*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  const auto batch = model.make_batch(ptrs, 2);
  nn::Adam adam(model.params(), {.lr = 5e-3});
  for (int step = 0; step < 150; ++step) {
    model.train_step(batch);
    adam.step();
  }
  // Forecast with the covariate firing at step 1 vs not firing: the
  // predicted level should jump by roughly +5 only in the first case.
  const std::vector<double> history{10, 10, 10, 10, 10, 10};
  const std::vector<double> hist_covs(6, 0.0);
  util::Rng rng(3);
  const auto trace = Trace(model, history, hist_covs, 1, 0);
  const std::size_t step = model.trace_step_size();
  ASSERT_EQ(trace.size(), 5 * step);
  const std::span<const double> last =
      std::span<const double>(trace).subspan(4 * step, step);

  auto mean_forecast = [&](double cov_value) {
    double acc = 0.0;
    const int reps = 200;
    const std::span<const double> fut(&cov_value, 1);
    const double z = 10.0;
    const int car = 0;
    for (int i = 0; i < reps; ++i) {
      auto state = model.state_from_trace({&last, 1});
      const auto out =
          model.sample_forward(state, {{&fut, 1}, 1, {&z, 1}, {&car, 1}}, 1,
                               rng);
      acc += out(0, 0);
    }
    return acc / reps;
  };
  const double with_jump = mean_forecast(1.0);
  const double without = mean_forecast(0.0);
  EXPECT_NEAR(without, 10.0, 1.8);  // toy model trained a few steps only
  EXPECT_GT(with_jump, without + 2.5);
}

bool BitsEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LstmSeqModel, TraceMatchesManualAdvance) {
  // Bit for bit, not approximately: a forecast starts from a checkpointed
  // trace step and replays the steps after it through advance(), so its
  // bytes rest on this.
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  const std::vector<double> history{10, 11, 12, 13};
  const std::vector<double> covs{0, 1, 0, 1};
  const auto trace = Trace(model, history, covs, 1, 0);
  const std::size_t step = model.trace_step_size();
  ASSERT_EQ(trace.size(), 3 * step);
  // Replaying the last step from step 1 must reproduce step 2.
  const auto slice = std::span<const double>(trace).subspan(step, step);
  auto state = model.state_from_trace({&slice, 1});
  const auto cov = std::span<const double>(covs).subspan(3);
  const int car = 0;
  model.advance(state, {{&cov, 1}, 1, {&history[2], 1}, {&car, 1}}, 1);
  std::vector<double> got(step);
  model.trace_from_state(state, got);
  EXPECT_TRUE(BitsEqual(got, std::span<const double>(trace).last(step)));

  // Every step of a multi-lap trace, rebuilt from the checkpoint at or
  // below it as a forecast does: load the kept step, then advance in one
  // call with the inputs the trace consumed at each later step (z of that
  // lap, the next lap's covariate row). A multivariate target carries its
  // aux dims in the leading covariates of the same lap, as run_trace packs
  // them.
  for (const std::size_t target_dim : {std::size_t{1}, std::size_t{3}}) {
    auto cfg = toy_config();
    cfg.cov_dim = 3;
    cfg.target_dim = target_dim;
    LstmSeqModel m(cfg);
    m.set_scaler(toy_scaler());
    util::Rng rng(target_dim);
    const std::size_t laps = 23;
    std::vector<double> ranks(laps);
    std::vector<double> rows(laps * 3);  // lap t's row at rows[t * 3]
    for (std::size_t t = 0; t < laps; ++t) {
      ranks[t] = rng.uniform(1.0, 33.0);
      for (std::size_t c = 0; c < 3; ++c) {
        rows[t * 3 + c] = rng.bernoulli(0.3) ? 1.0 : 0.0;
      }
    }
    const auto flat = Trace(m, ranks, rows, 3, 1);
    const std::size_t step = m.trace_step_size();
    ASSERT_EQ(flat.size(), (laps - 1) * step);
    const std::span<const double> history(ranks), block(rows);
    const int car = 1;
    for (const std::size_t every : {std::size_t{1}, std::size_t{4},
                                    std::size_t{5}}) {
      const auto kept = m.trace_checkpoints({&history, 1}, {&block, 1}, 3,
                                            {&car, 1}, every)[0];
      ASSERT_EQ(kept.size(), ((laps - 2) / every + 1) * step);
      for (std::size_t t = 0; t + 1 < laps; ++t) {
        const std::size_t from = t / every;
        const std::span<const double> checkpoint =
            std::span<const double>(kept).subspan(from * step, step);
        auto replayed = m.state_from_trace({&checkpoint, 1});
        const std::size_t first = from * every + 1;
        std::vector<double> z;
        for (std::size_t u = first; u <= t; ++u) {
          z.push_back(ranks[u]);
          for (std::size_t j = 1; j < target_dim; ++j) {
            z.push_back(rows[u * 3 + j - 1]);
          }
        }
        const auto cov = block.subspan((first + 1) * 3);
        m.advance(replayed, {{&cov, 1}, 3, z, {&car, 1}}, t + 1 - first);
        std::vector<double> got(step);
        m.trace_from_state(replayed, got);
        EXPECT_TRUE(BitsEqual(
            got, std::span<const double>(flat).subspan(t * step, step)))
            << "target_dim " << target_dim << " every " << every
            << " step " << t;
      }
    }
  }
}

TEST(LstmSeqModel, BatchedCheckpointsMatchPerCarTraceOnARaggedField) {
  // A race cache traces each group of equal-length cars in one batch and
  // keeps every 4th step. On a ragged field (one car withdrawn early, one
  // with two laps, cars retired at their own laps) every kept step equals
  // the car's own batch-1 trace bit for bit.
  const auto race = sim::simulate_race({"Indy500", 2019, 60, sim::Usage::kTest});
  const auto ids = race.car_ids();
  ASSERT_GE(ids.size(), 3u);
  std::vector<telemetry::LapRecord> records;
  for (const auto& rec : race.records()) {
    if (rec.car_id == ids[0] && rec.lap > 21) continue;  // withdrawn
    if (rec.car_id == ids[1] && rec.lap > 2) continue;   // under 3 laps
    records.push_back(rec);
  }
  const telemetry::RaceLog ragged(race.info(), std::move(records));
  const features::CovariateConfig cov_config;
  const features::CarVocab vocab({ragged});
  auto cfg = toy_config();
  cfg.cov_dim = cov_config.dim();
  cfg.vocab = vocab.size();
  LstmSeqModel model(cfg);
  model.set_scaler(features::StandardScaler(17.0, 9.0));
  const std::size_t step = model.trace_step_size();
  constexpr std::size_t kEvery = 4;

  std::map<std::size_t, std::vector<int>> by_laps;
  for (const int car_id : ragged.car_ids()) {
    by_laps[ragged.car(car_id).laps()].push_back(car_id);
  }
  ASSERT_GE(by_laps.size(), 3u);
  const std::size_t dim = cov_config.dim();
  for (const auto& [laps, group] : by_laps) {
    std::vector<std::vector<double>> blocks;
    std::vector<int> index;
    for (const int car_id : group) {
      blocks.push_back(features::build_covariates(
          features::StatusStreams::from_race(ragged, car_id), cov_config));
      index.push_back(vocab.index(car_id));
    }
    std::vector<std::span<const double>> history, covs;
    for (std::size_t i = 0; i < group.size(); ++i) {
      history.push_back(ragged.car(group[i]).rank);
      covs.push_back(blocks[i]);
    }
    const auto kept =
        model.trace_checkpoints(history, covs, dim, index, kEvery);
    ASSERT_EQ(kept.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto flat = Trace(model, history[i], covs[i], dim, index[i]);
      ASSERT_EQ(flat.size(), laps > 1 ? (laps - 1) * step : 0u);
      const std::size_t n = laps > 1 ? (laps - 2) / kEvery + 1 : 0;
      ASSERT_EQ(kept[i].size(), n * step) << "car " << group[i];
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_TRUE(BitsEqual(
            std::span<const double>(kept[i]).subspan(k * step, step),
            std::span<const double>(flat).subspan(k * kEvery * step, step)))
            << "car " << group[i] << " checkpoint " << k;
      }
    }
  }
}

TEST(LstmSeqModel, TraceCheckpointsRejectsMismatchedShapes) {
  // Every history row needs one laps x cov_width covariate block and one
  // car index; anything else would be read past its end.
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  const std::vector<double> ranks{10, 11, 12};
  const std::vector<double> rows{0, 1, 0};
  const std::vector<std::span<const double>> two(2, ranks), one_cov(1, rows),
      two_covs(2, rows);
  const std::vector<int> one_car(1, 0), two_cars(2, 0);
  EXPECT_NO_THROW(model.trace_checkpoints(two, two_covs, 1, two_cars, 1));
  EXPECT_THROW(model.trace_checkpoints(two, one_cov, 1, two_cars, 1),
               std::invalid_argument);
  EXPECT_THROW(model.trace_checkpoints(two, two_covs, 1, one_car, 1),
               std::invalid_argument);
  // A block of 3 values is not 3 laps of width 2.
  EXPECT_THROW(model.trace_checkpoints(two, two_covs, 2, two_cars, 1),
               std::invalid_argument);
  const std::vector<double> short_rows{0, 1};
  const std::vector<std::span<const double>> ragged_covs{rows, short_rows};
  EXPECT_THROW(model.trace_checkpoints(two, ragged_covs, 1, two_cars, 1),
               std::invalid_argument);
}

TEST(LstmSeqModel, MakeBatchRejectsCovariatesThatAreNotRows) {
  // A window's covariates are one row of cov_dim (here 1) or more per lap.
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  auto windows = toy_windows(2, 12, 1);
  const std::vector<const SeqExample*> ptrs{&windows[0], &windows[1]};
  EXPECT_NO_THROW(model.make_batch(ptrs, 2));
  windows[1].covariates.pop_back();  // 11 values for 12 laps
  EXPECT_THROW(model.make_batch(ptrs, 2), std::invalid_argument);
  windows[1].covariates.assign(12 * 2 + 1, 0.0);  // 25 values for 12 laps
  EXPECT_THROW(model.make_batch(ptrs, 2), std::invalid_argument);
}

TEST(LstmSeqModel, FlatTraceMatchesAdvanceFromZeroState) {
  // An independent recurrence: step t of the flat trace is t + 1 advance
  // steps from a zero state over the same inputs, bit for bit. toy_config
  // has two layers, so the per-layer layout is exercised too.
  const auto cfg = toy_config();
  LstmSeqModel model(cfg);
  model.set_scaler(toy_scaler());
  const std::vector<double> history{10, 11, 9, 12, 12, 8};
  const std::vector<double> covs{0, 1, 0, 1, 1, 0};
  const auto flat = Trace(model, history, covs, 1, 0);
  const std::size_t step = model.trace_step_size();
  ASSERT_EQ(step, cfg.num_layers * 2 * cfg.hidden);
  ASSERT_EQ(flat.size(), (history.size() - 1) * step);
  const auto cov = std::span<const double>(covs).subspan(1);
  const int car = 0;
  for (std::size_t t = 0; t + 1 < history.size(); ++t) {
    LstmSeqModel::StackState state(cfg.num_layers,
                                   nn::LstmState(1, cfg.hidden));
    model.advance(state, {{&cov, 1}, 1, {history.data(), t + 1}, {&car, 1}},
                  t + 1);
    std::vector<double> got(step);
    model.trace_from_state(state, got);
    EXPECT_TRUE(BitsEqual(
        got, std::span<const double>(flat).subspan(t * step, step)))
        << "step " << t;
  }
}

TEST(LstmSeqModel, StateFromTraceCopiesStepsPerRow) {
  const auto cfg = toy_config();
  LstmSeqModel model(cfg);
  model.set_scaler(toy_scaler());
  const std::vector<double> history{10, 11, 12};
  const std::vector<double> covs{0, 1, 0};
  const auto flat = Trace(model, history, covs, 1, 0);
  const std::size_t step = model.trace_step_size();
  const auto slice = [&](std::size_t t) {
    return std::span<const double>(flat).subspan(t * step, step);
  };
  // Rows 0-2 repeat the last step, row 3 is the first: any mix of cars,
  // samples and steps batches into one state.
  const std::vector<std::span<const double>> steps{slice(1), slice(1),
                                                   slice(1), slice(0)};
  const auto state = model.state_from_trace(steps);
  ASSERT_EQ(state.size(), cfg.num_layers);
  for (std::size_t l = 0; l < state.size(); ++l) {
    ASSERT_EQ(state[l].h.rows(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      // Layer l of a flat step: h then c, `hidden` values each.
      const auto want = slice(r < 3 ? 1 : 0).subspan(2 * l * cfg.hidden);
      for (std::size_t c = 0; c < cfg.hidden; ++c) {
        EXPECT_EQ(state[l].h(r, c), want[c]);
        EXPECT_EQ(state[l].c(r, c), want[cfg.hidden + c]);
      }
    }
  }
  const std::vector<std::span<const double>> short_step{
      slice(0).first(step - 1)};
  EXPECT_THROW(model.state_from_trace(short_step), std::invalid_argument);
}

TEST(LstmSeqModel, SampleForwardShapesAndSpread) {
  LstmSeqModel model(toy_config());
  model.set_scaler(toy_scaler());
  const std::vector<double> history{10, 10, 10};
  const std::vector<double> covs{0, 0, 0};
  const auto trace = Trace(model, history, covs, 1, 0);
  const std::size_t step = model.trace_step_size();
  const std::vector<std::span<const double>> start(
      64, std::span<const double>(trace).last(step));
  auto state = model.state_from_trace(start);
  const std::vector<double> z(64, 10.0);
  const std::vector<double> zeros(4, 0.0);
  const std::vector<std::span<const double>> fut(64, zeros);
  const std::vector<int> idx(64, 0);
  util::Rng rng(4);
  const auto out = model.sample_forward(state, {fut, 1, z, idx}, 4, rng);
  EXPECT_EQ(out.rows(), 64u);
  EXPECT_EQ(out.cols(), 4u);
  // Untrained model: samples must still be finite, in the clamp range, and
  // not all identical (Gaussian sampling).
  util::RunningStats st;
  for (double v : out.flat()) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 45.0);
    st.add(v);
  }
  EXPECT_GT(st.stddev(), 1e-3);
}

TEST(TransformerSeqModel, TrainingReducesLoss) {
  core::TransformerConfig cfg;
  cfg.cov_dim = 1;
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.ffn_dim = 32;
  cfg.embed_dim = 2;
  cfg.vocab = 2;
  core::TransformerSeqModel model(cfg);
  model.set_scaler(toy_scaler());
  const auto windows = toy_windows(64, 10, 5);
  std::vector<const SeqExample*> ptrs;
  for (const auto& w : windows) ptrs.push_back(&w);
  const auto batch = model.make_batch(ptrs, 2);
  nn::Adam adam(model.params(), {.lr = 3e-3});
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 80; ++step) {
    const double loss = model.train_step(batch);
    adam.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first - 0.3);
}

TEST(TransformerSeqModel, SampleForecastShape) {
  core::TransformerConfig cfg;
  cfg.cov_dim = 1;
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 0;
  core::TransformerSeqModel model(cfg);
  model.set_scaler(toy_scaler());
  util::Rng rng(6);
  const std::vector<double> ranks{10, 11, 12, 11};
  const std::vector<double> rows{0, 0, 0, 0, 1, 0};  // 4 context + 2 horizon
  const std::vector<std::span<const double>> history(3, ranks), covs(3, rows);
  const std::vector<int> car_index(3, 0);
  const auto out = model.sample_forecast(history, covs, 1, car_index, 2, rng);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 2u);
  for (double v : out.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(TransformerSeqModel, SampleForecastRejectsMismatchedShapes) {
  // One covariate span and one car index per history row.
  core::TransformerConfig cfg;
  cfg.cov_dim = 1;
  cfg.model_dim = 16;
  cfg.heads = 4;
  cfg.blocks = 1;
  cfg.embed_dim = 2;
  cfg.vocab = 2;
  core::TransformerSeqModel model(cfg);
  model.set_scaler(toy_scaler());
  util::Rng rng(6);
  const std::vector<double> ranks{10, 11, 12, 11};
  const std::vector<double> rows{0, 0, 0, 0, 1, 0};
  const std::vector<std::span<const double>> history(3, ranks),
      covs(3, rows), short_covs(2, rows);
  const std::vector<int> cars(3, 0), short_cars(2, 0);
  EXPECT_NO_THROW(model.sample_forecast(history, covs, 1, cars, 2, rng));
  EXPECT_THROW(model.sample_forecast(history, short_covs, 1, cars, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(model.sample_forecast(history, covs, 1, short_cars, 2, rng),
               std::invalid_argument);
}

TEST(PitModel, LearnsStintLength) {
  // Synthetic races aren't needed: use the simulator's event data.
  const auto ds = sim::build_event_dataset("Indy500");
  PitModel model;
  const auto data = model.build_training_data(
      {ds.train.begin(), ds.train.begin() + 2});
  ASSERT_GT(data.y.size(), 500u);
  model.fit(data, 40);
  // Fresh stint: expected laps-to-pit should be near the planned stint
  // (~0.86 * 33-lap fuel window), far from zero.
  const auto fresh = model.predict({0.0, 0.0});
  EXPECT_GT(fresh.mean, 18.0);
  EXPECT_LT(fresh.mean, 35.0);
  // Late in the stint the remaining distance must be much smaller.
  const auto late = model.predict({0.0, 26.0});
  EXPECT_LT(late.mean, fresh.mean - 12.0);
  EXPECT_GT(late.stddev, 0.0);
}

TEST(PitModel, SampleFutureLapStatusRespectsHorizon) {
  const auto ds = sim::build_event_dataset("Indy500");
  PitModel model;
  const auto data = model.build_training_data(
      {ds.train.begin(), ds.train.begin() + 2});
  model.fit(data, 30);
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto status = model.sample_future_lap_status({0.0, 20.0}, 50, rng);
    EXPECT_EQ(status.size(), 50u);
    for (double s : status) EXPECT_TRUE(s == 0.0 || s == 1.0);
  }
  // Starting deep into a stint, a pit must usually appear within the
  // remaining fuel window.
  int with_pit = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto status = model.sample_future_lap_status({0.0, 25.0}, 20, rng);
    for (double s : status) {
      if (s > 0.5) {
        ++with_pit;
        break;
      }
    }
  }
  EXPECT_GT(with_pit, 30);
}

TEST(StatusForecast, CurrentPitFeatures) {
  features::StatusStreams s;
  s.track_status = {0, 1, 1, 0, 0};
  s.lap_status = {0, 0, 1, 0, 0};
  s.total_pit_count = {0, 0, 1, 0, 0};
  s.leader_pit_count = {0, 0, 0, 0, 0};
  const auto f = core::current_pit_features(s, 5);
  EXPECT_DOUBLE_EQ(f.pit_age, 2.0);       // laps 4, 5 since the stop
  EXPECT_DOUBLE_EQ(f.caution_laps, 0.0);  // no yellow since the stop
  const auto f3 = core::current_pit_features(s, 2);
  EXPECT_DOUBLE_EQ(f3.pit_age, 2.0);
  EXPECT_DOUBLE_EQ(f3.caution_laps, 1.0);
}

}  // namespace
