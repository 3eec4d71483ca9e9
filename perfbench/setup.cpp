// Process helpers, read-only model set-up and Task-A scoring.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "core/forecast_cache.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "simulator/season.hpp"
#include "util/string_util.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

/// The committed artifacts this benchmark serves. The zoo derives its file
/// names from the model, window and training configuration; a change to any
/// of them makes the zoo want a file that is not committed, and train it.
constexpr const char* kArtifactsDir = "artifacts";
constexpr const char* kRankArtifact = "Indy500-9ae0cc01a4229fcc.bin";
constexpr const char* kPitArtifact = "Indy500-45c22c32603922b0.bin";

/// The file name ModelZoo caches a model under (ModelZoo::cache_path).
std::string zoo_file_name(const std::string& key) {
  const auto full_key = util::format(
      "v%d|%llu|%s", sim::kSimulatorVersion,
      static_cast<unsigned long long>(sim::kDefaultDatasetSeed), key.c_str());
  return util::format("Indy500-%016llx.bin",
                      static_cast<unsigned long long>(util::fnv1a(full_key)));
}

/// name -> (size, mtime) of every file in the artifacts directory.
std::map<std::string, std::pair<std::uintmax_t, long long>> list_artifacts() {
  std::map<std::string, std::pair<std::uintmax_t, long long>> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(kArtifactsDir, ec)) {
    out[entry.path().filename().string()] = {
        entry.file_size(ec),
        static_cast<long long>(
            entry.last_write_time(ec).time_since_epoch().count())};
  }
  if (ec) throw BenchError("cannot list " + std::string(kArtifactsDir));
  return out;
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double sliced_quantile(const std::vector<double>& in_time_order, double q) {
  constexpr std::size_t kSliceSamples = 1000;
  const std::size_t n = in_time_order.size();
  const std::size_t slices = std::max<std::size_t>(1, n / kSliceSamples);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    per_slice.push_back(quantile(
        std::vector<double>(in_time_order.begin() + n * s / slices,
                            in_time_order.begin() + n * (s + 1) / slices),
        q));
  }
  return median(per_slice);
}

std::uint64_t samples_digest(const core::RaceSamples& samples) {
  core::Fnv1a h;
  for (const auto& [car_id, m] : samples) {
    h.update_u64(static_cast<std::uint64_t>(car_id));
    h.update_u64(m.rows());
    h.update_u64(m.cols());
    h.update_bytes(m.data(), m.rows() * m.cols() * sizeof(double));
  }
  return h.digest();
}

Models load_models() {
  const auto ds = sim::build_event_dataset("Indy500");
  core::ZooConfig zoo_config;
  zoo_config.artifacts_dir = kArtifactsDir;

  // Pre-flight: the names the zoo will look up must be the committed files.
  const auto wcfg = core::ModelZoo::ranknet_window_config();
  core::SeqModelConfig net;
  net.cov_dim = wcfg.covariates.dim();
  net.vocab = features::CarVocab(ds.train).size();
  const std::string rank_name =
      zoo_file_name("rank|" + net.cache_key() + "|" +
                    core::ModelZoo::window_key(wcfg) + "|" +
                    zoo_config.train.cache_key());
  const std::string pit_name =
      zoo_file_name("pit|" + core::PitModelConfig{}.cache_key());
  const auto before = list_artifacts();
  for (const auto& [name, committed] :
       {std::pair{rank_name, kRankArtifact}, std::pair{pit_name, kPitArtifact}}) {
    if (name != committed || before.count(name) == 0) {
      throw BenchError("ModelZoo would train instead of loading: it looks up " +
                       std::string(kArtifactsDir) + "/" + name +
                       ", the committed artifact is " + committed);
    }
  }

  core::ModelZoo zoo(zoo_config);
  auto bundle = zoo.rank_model(ds);
  Models models;
  models.pit = zoo.pit_model(ds);
  models.rank = bundle.model;
  models.vocab = bundle.vocab;
  models.covariates = bundle.wcfg.covariates;

  if (list_artifacts() != before) {
    throw BenchError("ModelZoo wrote into " + std::string(kArtifactsDir) +
                     "/: it trained instead of loading");
  }
  return models;
}

std::shared_ptr<core::RankNetForecaster> make_ranknet(const Models& models) {
  return std::make_shared<core::RankNetForecaster>(
      models.rank, models.pit, models.vocab, models.covariates,
      core::StatusSource::kPitModel, "RankNet-MLP");
}

void TaskAScore::add(const core::RaceSamples& raw,
                     const telemetry::RaceLog& race, int origin_lap,
                     int horizon) {
  if (raw.empty()) return;
  const auto ranks = core::sort_to_ranks(raw);
  const auto target_lap = static_cast<std::size_t>(origin_lap + horizon);
  for (const auto& [car_id, samples] : ranks) {
    const auto& car = race.car(car_id);
    if (car.laps() < target_lap) continue;  // retired inside the window
    const std::size_t h = samples.cols() - 1;
    median_.push_back(core::sample_quantile(samples, h, 0.5));
    q90_.push_back(core::sample_quantile(samples, h, 0.9));
    actual_.push_back(car.rank[target_lap - 1]);
  }
}

void add_end_to_end(RunResult& r, const EndToEnd& e) {
  std::fprintf(stderr,
               "setup %.3f s | latency p50 %.3f ms p99 %.3f ms (%zu samples) "
               "| %.2f forecasts/s | failed_share %.4f degraded_share %.4f | "
               "rank_mae %.4f risk90 %.4f (%zu pairs) | peak rss %.1f MB\n",
               e.setup_s, e.latency_p50_ms, e.latency_p99_ms,
               e.latency_samples, e.forecasts_per_s, e.failed_share,
               e.degraded_share, e.rank_mae, e.risk90, e.score_pairs,
               peak_rss_mb());
  r.add("setup_s", e.setup_s, "s");
  r.add("latency_p50_ms", e.latency_p50_ms, "ms");
  r.add("latency_p99_ms", e.latency_p99_ms, "ms");
  r.add("forecasts_per_s", e.forecasts_per_s, "1/s");
  r.add("served_share", 1.0 - e.failed_share, "ratio");
  r.add("undegraded_share", 1.0 - e.degraded_share, "ratio");
  r.add("rank_mae", e.rank_mae, "rank");
  r.add("risk90", e.risk90, "ratio");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

double TaskAScore::mae() const { return core::mae(median_, actual_); }
double TaskAScore::risk90() const {
  return core::rho_risk(q90_, actual_, 0.9);
}

}  // namespace perfbench
