#include "core/status_forecast.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/forecast_cache.hpp"
#include "tensor/workspace.hpp"

namespace ranknet::core {

std::uint64_t covariate_window_digest(
    std::span<const std::span<const double>> rows) {
  Fnv1a h;
  for (const auto& row : rows) {
    h.update_u64(static_cast<std::uint64_t>(row.size()));
    for (double v : row) h.update_double(v);
  }
  return h.digest();
}

PitFeatures current_pit_features(const features::StatusStreams& streams,
                                 std::size_t origin) {
  return streams.ages_after(origin);
}

std::map<int, std::vector<std::vector<double>>> sample_status_realization(
    const std::map<int, const features::StatusStreams*>& streams,
    const std::map<int, double>& origin_rank, const PitModel& pit_model,
    const features::CovariateConfig& config, std::size_t origin,
    std::size_t future_len, std::size_t lo, util::Rng& rng) {
  if (lo > origin) {
    throw std::invalid_argument(
        "sample_status_realization: first row lies past the origin");
  }
  // Sample every car's future pit laps first (they couple through the
  // race-context features). One zero-allocation MLP session serves every
  // car; the sequential draw order matches PitModel::sample_future_lap_status
  // exactly.
  auto& ws = tensor::Workspace::thread_local_instance();
  ws.begin();
  const PitModel::InferenceSession pit(pit_model, ws);
  std::map<int, std::vector<double>> predicted;
  for (const auto& [car_id, s] : streams) {
    auto& dst = predicted[car_id];
    dst.assign(future_len, 0.0);
    pit.sample_future_into(current_pit_features(*s, origin), dst, rng);
  }
  std::vector<double> future_total(future_len, 0.0);
  for (const auto& [_, status] : predicted) {
    for (std::size_t t = 0; t < future_len; ++t) future_total[t] += status[t];
  }

  std::map<int, std::vector<std::vector<double>>> out;
  for (const auto& [car_id, s] : streams) {
    if (s->laps() < lo) {
      throw std::invalid_argument(
          "sample_status_realization: streams end before the first row");
    }
    // The streams from row lo on: observed laps up to the origin, then the
    // sampled future. The rows before lo enter only through the age state.
    features::StatusStreams window;
    const auto observed = [lo, origin](const std::vector<double>& src) {
      const auto end = std::min(origin, src.size());
      return std::vector<double>(
          src.begin() + static_cast<std::ptrdiff_t>(std::min(lo, end)),
          src.begin() + static_cast<std::ptrdiff_t>(end));
    };
    window.track_status = observed(s->track_status);
    window.lap_status = observed(s->lap_status);
    window.total_pit_count = observed(s->total_pit_count);
    window.leader_pit_count = observed(s->leader_pit_count);
    const auto& mine = predicted.at(car_id);
    for (std::size_t t = 0; t < future_len; ++t) {
      window.track_status.push_back(0.0);  // Algorithm 2: assume green
      window.lap_status.push_back(mine[t]);
      window.total_pit_count.push_back(future_total[t]);
      double leaders = 0.0;
      for (const auto& [other_id, status] : predicted) {
        if (other_id != car_id && status[t] > 0.5 &&
            origin_rank.at(other_id) < origin_rank.at(car_id)) {
          leaders += 1.0;
        }
      }
      window.leader_pit_count.push_back(leaders);
    }
    out.emplace(car_id, features::build_covariates(window, config,
                                                   s->ages_after(lo)));
  }
  return out;
}

}  // namespace ranknet::core
