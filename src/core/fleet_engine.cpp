#include "core/fleet_engine.hpp"

#include <future>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace ranknet::core {

FleetEngine::FleetEngine(ForecasterFactory factory, FleetConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  if (!factory_) {
    throw std::invalid_argument("FleetEngine: null forecaster factory");
  }
  if (config_.shards == 0) config_.shards = 1;
  shards_ = build_shards(config_.shards);

  auto& reg = obs::Registry::instance();
  reshards_ = &reg.counter("fleet.reshards");
  season_jobs_ = &reg.counter("fleet.season.jobs");
  season_runs_ = &reg.counter("fleet.season.runs");
}

std::vector<std::shared_ptr<RaceShard>> FleetEngine::build_shards(
    std::size_t n) const {
  std::vector<std::shared_ptr<RaceShard>> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto forecaster = factory_();
    if (!forecaster) {
      throw std::invalid_argument(
          "FleetEngine: forecaster factory returned null for shard " +
          std::to_string(i));
    }
    shards.push_back(std::make_shared<RaceShard>(
        i, std::move(forecaster), config_.shard, config_.shared_cache));
  }
  return shards;
}

std::uint64_t FleetEngine::race_key(std::string_view race_id) {
  Fnv1a h;
  h.update_bytes(race_id.data(), race_id.size());
  return h.digest();
}

std::uint64_t FleetEngine::job_base(std::uint64_t season_seed,
                                    std::uint64_t race_key, int origin_lap,
                                    int horizon, int num_samples) {
  // Fold the job shape into one key so the three-key stream covers the
  // whole tuple. First draw of the keyed stream = the job's engine base.
  Fnv1a shape;
  shape.update_u64(static_cast<std::uint64_t>(origin_lap));
  shape.update_u64(static_cast<std::uint64_t>(horizon));
  shape.update_u64(static_cast<std::uint64_t>(num_samples));
  return util::Rng::stream(season_seed, race_key, shape.digest(),
                           /*k3=*/0x73686172645f6aULL)();
}

std::size_t FleetEngine::num_shards() const {
  std::shared_lock lock(mutex_);
  return shards_.size();
}

std::size_t FleetEngine::shard_index(std::string_view race_id) const {
  std::shared_lock lock(mutex_);
  return static_cast<std::size_t>(race_key(race_id) % shards_.size());
}

std::shared_ptr<RaceShard> FleetEngine::shard(std::size_t index) const {
  std::shared_lock lock(mutex_);
  if (index >= shards_.size()) {
    throw std::out_of_range("FleetEngine: shard index " +
                            std::to_string(index) + " >= " +
                            std::to_string(shards_.size()));
  }
  return shards_[index];
}

std::shared_ptr<RaceShard> FleetEngine::shard_for(
    std::string_view race_id) const {
  std::shared_lock lock(mutex_);
  return shards_[static_cast<std::size_t>(race_key(race_id) %
                                          shards_.size())];
}

RaceSamples FleetEngine::forecast(const telemetry::RaceLog& race,
                                  int origin_lap, int horizon,
                                  int num_samples, util::Rng& rng) {
  // One base draw, exactly like ParallelForecastEngine::forecast — the
  // caller's generator state never depends on the shard count.
  return forecast_keyed(race, origin_lap, horizon, num_samples, rng());
}

RaceSamples FleetEngine::forecast_keyed(const telemetry::RaceLog& race,
                                        int origin_lap, int horizon,
                                        int num_samples, std::uint64_t base) {
  // Route, then compute on the shard's driver: every job for one shard is
  // serialized on one thread, which is what makes the per-shard
  // forecaster's prepare() cache safe without locks. `target` stays alive
  // in THIS frame until the future completes, which keeps the generation
  // alive across a concurrent reshard — the job itself must not own the
  // shard (see RaceShard::submit).
  auto target = shard_for(race.id());
  RaceShard* const s = target.get();
  return target
      ->submit([&race, origin_lap, horizon, num_samples, base, s] {
        return s->forecast(race, origin_lap, horizon, num_samples, base);
      })
      .get();
}

std::vector<RaceSamples> FleetEngine::run_season(
    std::span<const SeasonJob> jobs, std::uint64_t season_seed) {
  season_runs_->add(1);
  season_jobs_->add(jobs.size());

  // Snapshot the shard set once: a reshard mid-season affects the NEXT
  // run_season, never this one (bytes would be identical either way; the
  // snapshot just keeps the grouping coherent).
  std::vector<std::shared_ptr<RaceShard>> shards;
  {
    std::shared_lock lock(mutex_);
    shards = shards_;
  }

  // Group job indices by shard. Job bases are keyed by (season_seed, race,
  // shape) — never by position or shard — so this grouping is pure load
  // placement.
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_shard;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].race) {
      throw std::invalid_argument("FleetEngine::run_season: job " +
                                  std::to_string(i) + " has a null race");
    }
    by_shard[static_cast<std::size_t>(race_key(jobs[i].race->id()) %
                                      shards.size())]
        .push_back(i);
  }

  std::vector<RaceSamples> results(jobs.size());
  std::vector<std::future<void>> inflight;
  inflight.reserve(by_shard.size());
  // The `shards` snapshot above outlives the futures-drain below, so jobs
  // hold only raw shard pointers (see RaceShard::submit for why they must
  // not own the shard).
  for (auto& [shard_idx, indices] : by_shard) {
    RaceShard* const target = shards[shard_idx].get();
    inflight.push_back(target->submit(
        [&jobs, &results, season_seed, target,
         indices = std::move(indices)] {
          for (const std::size_t i : indices) {
            const SeasonJob& job = jobs[i];
            const std::uint64_t base =
                job_base(season_seed, race_key(job.race->id()),
                         job.origin_lap, job.horizon, job.num_samples);
            results[i] = target->forecast(*job.race, job.origin_lap,
                                          job.horizon, job.num_samples, base);
          }
        }));
  }
  for (auto& f : inflight) f.get();
  return results;
}

void FleetEngine::reshard(std::size_t new_shards) {
  if (new_shards == 0) new_shards = 1;
  std::unique_lock lock(mutex_);
  auto fresh = build_shards(new_shards);
  // Re-apply engine-level settings so the new generation is
  // indistinguishable (bytes and policy) from a fleet constructed at this
  // size — the reshard-invariance contract.
  if (model_version_) {
    for (auto& s : fresh) s->engine()->set_model_version(*model_version_);
  }
  if (policy_) {
    for (auto& s : fresh) {
      // Re-validation cannot fail: the policy was accepted once already.
      (void)s->engine()->set_degradation_policy(*policy_);
    }
  }
  shards_.swap(fresh);
  reshards_->add(1);
  // `fresh` (the old generation) unwinds after the lock: shards with
  // in-flight jobs survive via the shared_ptrs those jobs hold.
}

void FleetEngine::set_model_version(std::uint64_t version) {
  std::unique_lock lock(mutex_);
  model_version_ = version;
  for (auto& s : shards_) s->engine()->set_model_version(version);
}

util::Status FleetEngine::set_degradation_policy(
    ParallelForecastEngine::DegradationPolicy policy) {
  std::unique_lock lock(mutex_);
  // Validation is deterministic in the policy contents, so applying in
  // order cannot leave the fleet half-armed: shard 0 rejects exactly when
  // every shard would.
  for (auto& s : shards_) {
    if (auto st = s->engine()->set_degradation_policy(policy); !st.ok()) {
      return st;
    }
  }
  policy_ = std::move(policy);
  return {};
}

ParallelForecastEngine::Stats FleetEngine::stats() const {
  std::shared_lock lock(mutex_);
  ParallelForecastEngine::Stats total;
  for (const auto& s : shards_) {
    const auto one = s->engine()->stats();
    total.forecasts += one.forecasts;
    total.cache_hits += one.cache_hits;
    total.tasks += one.tasks;
    total.task_seconds += one.task_seconds;
    total.wall_seconds += one.wall_seconds;
  }
  return total;
}

ParallelForecastEngine::Degradation FleetEngine::degradation() const {
  std::shared_lock lock(mutex_);
  ParallelForecastEngine::Degradation total;
  for (const auto& s : shards_) {
    const auto one = s->engine()->degradation();
    total.full_cars += one.full_cars;
    total.damaged_fallback_cars += one.damaged_fallback_cars;
    total.deadline_fallback_cars += one.deadline_fallback_cars;
    total.error_fallback_cars += one.error_fallback_cars;
    total.deadline_hits += one.deadline_hits;
    total.task_failures += one.task_failures;
  }
  return total;
}

}  // namespace ranknet::core
