#!/usr/bin/env python3
"""Smoke-sized self-test of the raw-filter benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py at smoke size, untraced and
traced, and checks that:

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, nothing failed, and every
    metric BENCHMARK.json names for the mode present with its unit (and,
    untraced, above zero);
  * in the traced run's span file every child span lies inside its parent
    and no span's self time (its duration minus the union of its
    children's intervals) is negative;
  * a deliberately flipped verdict is counted in `failed` and makes the
    run exit nonzero.

Last, it checks that the benchmark exits nonzero without a result in a
directory holding only BENCHMARK.json and perfbench/. Exits 1 on any
failure.
"""
import csv
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("qs0-stream", "fleet-10k", "qt-project", "qs1-service")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(args, cwd=".", env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def spans_ok(path):
    """Containment and non-negative self time of every span in the file."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
    spans = {int(r["id"]): (int(r["parent"]), int(r["start_ns"]),
                            int(r["end_ns"])) for r in rows}
    children = {}
    bad = 0
    for parent, start, end in spans.values():
        if end < start:
            bad += 1
        if parent >= 0:
            p = spans.get(parent)
            if p is None or start < p[1] or end > p[2]:
                bad += 1
            children.setdefault(parent, []).append((start, end))
    for parent, intervals in children.items():
        intervals.sort()
        covered, lo, hi = 0, intervals[0][0], intervals[0][1]
        for start, end in intervals[1:]:
            if start > hi:
                covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        covered += hi - lo
        if spans[parent][2] - spans[parent][1] < covered:
            bad += 1
    return len(spans), bad


def main():
    spec = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

    for workload in WORKLOADS:
        common = ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--smoke"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, log = bench([*common, "--trace", str(trace)])
            tag = f"{workload} trace {trace}"
            check(result is not None and set(result) == RESULT_KEYS,
                  f"{tag}: last line is the result object")
            if result is None:
                print(log[-3000:])
                continue
            check(rc == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: correct, {result['failed']} failed of "
                  f"{result['attempted']}")
            metrics = result["metrics"]
            for m in spec.get(group, []):
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and (trace == 1 or got["value"] > 0),
                      f"{tag}: {m['name']} = {got}")
            if spec:
                check(set(metrics) == {m["name"] for m in spec[group]},
                      f"{tag}: metric set matches BENCHMARK.json")
            if trace == 1:
                path = os.path.join(build_root, f"{workload}.spans.tsv")
                count, bad = spans_ok(path)
                check(count > 0 and bad == 0,
                      f"{tag}: {count} spans nest with non-negative self "
                      f"time ({bad} violations)")
        rc, result, _ = bench([*common, "--trace", "0", "--flip-record", "3"])
        check(rc != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a flipped verdict is counted "
              f"(exit {rc}, failed {result and result['failed']})")

    bare = os.path.join(build_root, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    if os.path.isfile("BENCHMARK.json"):
        shutil.copy("BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    rc, result, _ = bench(["--workload", "qs0-stream", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None,
          f"without src/: exit {rc} and no result line")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
