#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root (builds the benchmark on first use). Runs
every workload briefly with --trace 0 and --trace 1 and checks that the
result line names every metric BENCHMARK.json declares, with its unit, and
that the correctness oracle passed with nothing failed. Then checks that
the benchmark refuses to run, without printing a result, in a tree that
holds only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: oracle failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}"
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, " \
        f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name}"
        if trace == "0":
            assert m["value"] > 0, f"{where}: end-to-end metric {name} is 0"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} attempted")


def check_refuses_partial_tree():
    tree = os.path.join(ROOT, ".bench_build", "smoke-partial-tree")
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(tree, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    try:
        proc = run("live_fanout", "0", cwd=tree,
                   script=os.path.join(tree, "perfbench", "run.py"))
        assert proc.returncode != 0, "partial tree: benchmark did not fail"
        assert '"metrics"' not in proc.stdout, "partial tree: printed a result"
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    print("ok  partial tree: refused without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            check_result(spec, workload, trace)
    check_refuses_partial_tree()
    print("smoke test passed")


if __name__ == "__main__":
    main()
