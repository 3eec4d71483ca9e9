// Pit-strategy analysis — the use case the paper's conclusion motivates
// ("RankNet is promising to be used as a tool to investigate and optimize
// the pit stop strategy").
//
// For one car at one decision point, we compare sampled race outcomes under
// alternative pit plans by feeding each plan into the RankModel as oracle
// covariates (everyone else follows their observed race). This is a
// counterfactual rollout: "if we pit on lap L, where do we run 15 laps from
// now?"
#include <cstdio>
#include <vector>

#include "core/registry.hpp"
#include "core/status_forecast.hpp"
#include "util/stats.hpp"

namespace {

using namespace ranknet;

/// Roll out `horizon` laps for `car_id` with a forced own-pit plan; other
/// cars keep their ground-truth status (oracle). Returns sampled ranks of
/// the car at the final lap.
std::vector<double> rollout_with_plan(
    const core::ModelZoo::LstmBundle& bundle, const telemetry::RaceLog& race,
    int car_id, int origin, int horizon, int pit_in_laps, int samples,
    util::Rng& rng) {
  const auto& model = *bundle.model;
  const auto& car = race.car(car_id);

  // Build this car's covariates with the planned stop replacing reality.
  auto streams = features::StatusStreams::from_race(race, car_id);
  const auto o = static_cast<std::size_t>(origin);
  for (std::size_t t = o; t < streams.laps(); ++t) {
    streams.lap_status[t] = 0.0;  // wipe the observed future stops
  }
  if (pit_in_laps > 0 && o + static_cast<std::size_t>(pit_in_laps) <=
                             streams.laps()) {
    streams.lap_status[o + static_cast<std::size_t>(pit_in_laps) - 1] = 1.0;
  }
  const auto covs =
      features::build_covariates(streams, bundle.wcfg.covariates);

  // Prime the LSTM on the true history, then sample forward under the plan.
  const auto trace =
      model.trace_flat(car.rank, covs, bundle.vocab.index(car_id));
  const std::size_t step = model.trace_step_size();
  const std::vector<std::span<const double>> start(
      static_cast<std::size_t>(samples),
      std::span<const double>(trace).subspan((o - 2) * step, step));
  auto state = model.state_from_trace(start);
  // Every sample reads the planned rows from lap o + 1 on, in place; the
  // decode reads zeros past the end of the log.
  std::vector<double> future;
  for (std::size_t t = o; t < covs.size(); ++t) {
    future.insert(future.end(), covs[t].begin(), covs[t].end());
  }
  const auto n = static_cast<std::size_t>(samples);
  const std::vector<std::span<const double>> future_rows(n, future);
  const std::vector<double> z(n, car.rank[o - 1]);
  const std::vector<int> car_idx(n, bundle.vocab.index(car_id));
  const auto out = model.sample_forward(
      state, {future_rows, bundle.wcfg.covariates.dim(), z, car_idx}, horizon,
      rng);
  std::vector<double> final_ranks;
  for (std::size_t s = 0; s < out.rows(); ++s) {
    final_ranks.push_back(out(s, out.cols() - 1));
  }
  return final_ranks;
}

}  // namespace

int main() {
  const auto ds = sim::build_event_dataset("Indy500");
  const auto& race = ds.test[0];
  core::ModelZoo zoo;
  const auto bundle = zoo.rank_model(ds);
  const auto pit_model = zoo.pit_model(ds);

  // Decision point: lap 80 for a mid-field car with an aging stint.
  const int origin = 80, horizon = 15, samples = 200;
  int car_id = -1;
  for (int cand : race.car_ids()) {
    const auto& car = race.car(cand);
    if (car.laps() < static_cast<std::size_t>(origin + horizon)) continue;
    const auto streams = features::StatusStreams::from_race(race, cand);
    const auto f = core::current_pit_features(streams, origin);
    const double rank = car.rank[origin - 1];
    if (f.pit_age > 15 && rank >= 6 && rank <= 14) {
      car_id = cand;
      break;
    }
  }
  if (car_id < 0) car_id = race.car_ids()[race.car_ids().size() / 2];

  const auto& car = race.car(car_id);
  const auto streams = features::StatusStreams::from_race(race, car_id);
  const auto now = core::current_pit_features(streams, origin);
  const auto predicted = pit_model->predict(now);
  std::printf("car %d at lap %d: rank %.0f, stint age %.0f laps\n", car_id,
              origin, car.rank[origin - 1], now.pit_age);
  std::printf("PitModel expects the next stop in %.1f ± %.1f laps\n\n",
              predicted.mean, predicted.stddev);

  std::printf("counterfactual: rank at lap %d under alternative pit plans "
              "(%d sampled futures each)\n",
              origin + horizon, samples);
  std::printf("%-22s %8s %8s %8s\n", "plan", "median", "q10", "q90");
  util::Rng rng(7);
  for (const int pit_in : {0, 3, 6, 9, 12}) {
    const auto ranks = rollout_with_plan(bundle, race, car_id, origin,
                                         horizon, pit_in, samples, rng);
    char label[64];
    if (pit_in == 0) {
      std::snprintf(label, sizeof(label), "stay out (no stop)");
    } else {
      std::snprintf(label, sizeof(label), "pit in %d laps", pit_in);
    }
    std::printf("%-22s %8.1f %8.1f %8.1f\n", label, util::median(ranks),
                util::quantile(ranks, 0.1), util::quantile(ranks, 0.9));
  }
  std::printf("\n(staying out defers the ~%d-position pit loss beyond the "
              "horizon but risks running dry; the model quantifies the "
              "trade-off)\n",
              8);
  return 0;
}
