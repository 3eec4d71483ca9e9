#include "core/race_shard.hpp"

#include <stdexcept>
#include <string>

namespace ranknet::core {

RaceShard::RaceShard(std::size_t index,
                     std::shared_ptr<RaceForecaster> forecaster,
                     const ShardConfig& config,
                     std::shared_ptr<ForecastCache> shared_cache)
    : index_(index),
      forecaster_(std::move(forecaster)),
      driver_(1) {
  if (!forecaster_) {
    throw std::invalid_argument("RaceShard: null forecaster");
  }
  engine_ = std::make_shared<ParallelForecastEngine>(
      forecaster_, config.engine_threads, config.max_cars_per_task);
  if (shared_cache != nullptr) {
    cache_ = std::move(shared_cache);
  } else if (config.cache_capacity > 0) {
    cache_ = std::make_shared<ForecastCache>(config.cache_capacity);
  }
  if (cache_ != nullptr) engine_->set_forecast_cache(cache_);

  const std::string prefix = "fleet.shard." + std::to_string(index_) + ".";
  auto& reg = obs::Registry::instance();
  forecasts_ = &reg.counter(prefix + "forecasts");
  jobs_ = &reg.counter(prefix + "jobs");
}

RaceSamples RaceShard::forecast(const telemetry::RaceLog& race, int origin_lap,
                                int horizon, int num_samples,
                                std::uint64_t base) {
  forecasts_->add(1);
  return engine_->forecast_with_base(race, origin_lap, horizon, num_samples,
                                     base);
}

}  // namespace ranknet::core
