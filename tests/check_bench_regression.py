#!/usr/bin/env python3
"""Gate benchmark JSON against the committed baseline.

Usage:
  # after: ./build/bench/micro_kernels --benchmark_out=BENCH_kernels.json
  tests/check_bench_regression.py BENCH_kernels.json            # check
  tests/check_bench_regression.py BENCH_kernels.json --update   # rebaseline
  # after: ./build/bench/fig10_batch_scaling   (writes BENCH_fig10.json)
  tests/check_bench_regression.py BENCH_fig10.json

Two input formats are understood:
  * google-benchmark output ("benchmarks" key): entry name -> cpu_time ns.
  * the fig10 bench's own JSON ("mc_decode" key): synthesized entries
    "fig10_rollout_us_per_sample/<S>" (end-to-end MC rollout, ns/sample)
    and "fig10_cache_hit_us_per_sample/<S>" (forecast-cache replay) so the
    serving path is gated by the same ratio check as the microkernels.

End-to-end serving and fleet throughput is measured by perfbench
(`python3 perfbench/run.py`, bounds in BENCHMARK.json), not here.

Compares each entry (e.g. "BM_GemmLstmGates<avx2>/256") against
tests/bench_baseline.json and fails — exit code 1 — when any entry is more
than --tolerance (default 15%) slower. Entries present in only one file are
reported but never fail the run, so adding or retiring a benchmark doesn't
require a lockstep baseline edit.

This is a manually-run tool, not a ctest entry: on a shared machine
scalar GEMM timing swings tens of percent with heap-allocation layout
alone (see DESIGN.md, "Kernel dispatch
& batched sampling"). Run it on a quiet machine before and after touching
src/tensor, and rebaseline with --update in the same commit as an
intentional perf change.
"""

import argparse
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "bench_baseline.json"


def load_times(path):
    """name -> time (ns) for real benchmark entries (not aggregates)."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    if "mc_decode" in doc:  # fig10_batch_scaling output
        for row in doc["mc_decode"]:
            name = f"fig10_rollout_us_per_sample/{row['num_samples']}"
            out[name] = float(row["us_per_sample"]) * 1e3  # us -> ns
        for row in doc.get("forecast_cache", []):
            name = f"fig10_cache_hit_us_per_sample/{row['num_samples']}"
            out[name] = float(row["hit_us_per_sample"]) * 1e3
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        out[b["name"]] = float(b["cpu_time"])
    if not out:
        sys.exit(f"error: no benchmark entries in {path}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", help="BENCH_kernels.json from micro_kernels")
    ap.add_argument("--baseline", default=str(BASELINE),
                    help=f"baseline file (default: {BASELINE})")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed slowdown fraction (default 0.15 = 15%%)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from these results and exit")
    args = ap.parse_args()

    current = load_times(args.results)

    if args.update:
        # Merge, don't replace: kernel and fig10 results live in one
        # baseline file but come from different binaries, so rebaselining
        # one must not drop the other's entries.
        merged = {}
        try:
            with open(args.baseline) as f:
                merged = json.load(f)["cpu_time_ns"]
        except FileNotFoundError:
            pass
        merged.update(current)
        with open(args.baseline, "w") as f:
            json.dump({"cpu_time_ns": dict(sorted(merged.items()))}, f,
                      indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(current)} entries merged, {len(merged)} total)")
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["cpu_time_ns"]
    except FileNotFoundError:
        sys.exit(f"error: {args.baseline} missing — generate it with "
                 f"--update")

    failures = []
    print(f"{'benchmark':44s} {'baseline':>12s} {'current':>12s} "
          f"{'ratio':>7s}")
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"{name:44s} {baseline[name]:12.0f} {'(gone)':>12s}")
            continue
        if name not in baseline:
            print(f"{name:44s} {'(new)':>12s} {current[name]:12.0f}")
            continue
        ratio = current[name] / baseline[name]
        flag = ""
        if ratio > 1.0 + args.tolerance:
            failures.append((name, ratio))
            flag = "  REGRESSION"
        print(f"{name:44s} {baseline[name]:12.0f} {current[name]:12.0f} "
              f"{ratio:6.2f}x{flag}")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x baseline")
        return 1
    print(f"\nok: no entry slower than {1 + args.tolerance:.2f}x baseline "
          f"({len(current)} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
