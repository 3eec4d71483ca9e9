// Table II dataset inventory: the 25 superspeedway races (events × years)
// used by the paper, with the paper's train/validation/test split, all
// generated deterministically from a base seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simulator/race_sim.hpp"
#include "telemetry/race_log.hpp"

namespace ranknet::sim {

enum class Usage { kTrain, kValidation, kTest };

const char* usage_name(Usage u);

/// One row of the expanded Table II inventory.
struct RaceSpec {
  std::string event;
  int year = 0;
  int laps = 0;  // lap counts vary by year for Iowa/Pocono/Texas
  Usage usage = Usage::kTrain;
};

/// All 25 races of the paper's Table II, in (event, year) order.
std::vector<RaceSpec> table2_specs();

/// Default base seed for the generated dataset.
inline constexpr std::uint64_t kDefaultDatasetSeed = 20210521;

/// Bumped whenever simulator dynamics change, so trained-model caches keyed
/// on it are invalidated together with the data they were fitted on.
inline constexpr int kSimulatorVersion = 2;

/// Deterministically simulate one spec'd race.
telemetry::RaceLog simulate_race(const RaceSpec& spec,
                                 std::uint64_t base_seed = kDefaultDatasetSeed);

/// Deterministically simulate every Table II race (all 25 track/event/year
/// combinations, 2013-2019), in table2_specs() order — the whole-season
/// workload (perfbench's season_replay runs it through FleetEngine).
std::vector<telemetry::RaceLog> simulate_season(
    std::uint64_t base_seed = kDefaultDatasetSeed);

/// One event's races grouped by usage.
struct EventDataset {
  std::string event;
  std::vector<telemetry::RaceLog> train;
  std::vector<telemetry::RaceLog> validation;
  std::vector<telemetry::RaceLog> test;

  std::size_t total_records() const;
};

/// Build the dataset for one event ("Indy500", "Texas", "Iowa", "Pocono").
EventDataset build_event_dataset(const std::string& event,
                                 std::uint64_t base_seed = kDefaultDatasetSeed);

/// Build all four event datasets.
std::vector<EventDataset> build_all_datasets(
    std::uint64_t base_seed = kDefaultDatasetSeed);

}  // namespace ranknet::sim
