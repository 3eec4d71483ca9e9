// End-to-end RankNet benchmark binary (built and driven by run.py):
//
//   ranknet_perfbench --workload <live_fanout|whatif_closed|season_replay>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--work-dir <dir>]
//
// Run from the repository root (it reads artifacts/). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Exit codes: 0 ok, 1 outputs wrong, 2 bad arguments,
// 3 the run could not be made (no result line is printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"

namespace {

using perfbench::RunResult;

void print_result(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ranknet_perfbench: %s\nusage: ranknet_perfbench --workload "
               "<live_fanout|whatif_closed|season_replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef _OPENMP
  // Shards and engines compute on util::ThreadPool threads, which run their
  // kernels single-threaded. The registry's gate probe and the oracle run
  // on this thread: keep it single-threaded too, or an OpenMP team spins
  // against the shard threads for the same cores.
  omp_set_num_threads(1);
#endif
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  try {
    RunResult result;
    if (options.workload == "live_fanout") {
      result = perfbench::run_live_fanout(options);
    } else if (options.workload == "whatif_closed") {
      result = perfbench::run_whatif_closed(options);
    } else if (options.workload == "season_replay") {
      result = perfbench::run_season_replay(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ranknet_perfbench: %s\n", e.what());
    return 3;
  }
}
