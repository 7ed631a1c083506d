#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark package
(`perfbench/Cargo.toml`, its own workspace over the repository's crates)
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one of its
binaries:

* `--trace 0`: `perfbench` measures the end-to-end metrics with nothing
  attached to the program.
* `--trace 1`: `perfbench` runs for half the time as the untraced
  baseline, then `perfbench-traced` (counting allocator, timing executor
  and transport, counting trace sink) gives the per-layer metrics. The
  traced outputs must digest the same as the untraced ones, and
  `trace.overhead_ratio` is traced over untraced time per op (CPU time
  for `fleet-10k` and `paper-sweep`, wall time for `live-loopback`).

Metric names and units come from BENCHMARK.json. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous per-binary limit; a run normally takes --seconds plus a few.
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; run from a full checkout")
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_binary(env, name, args, seconds):
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", name)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} timed out")
    if done.returncode != 0:
        fail(f"{name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{name} printed nothing")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(spec_metrics, measured, fill_missing):
    """The spec's metrics, in its order, with its units."""
    out, missing = {}, []
    for m in spec_metrics:
        got = measured.get(m["name"])
        if got is None:
            if not fill_missing:
                fail(f"metric {m['name']} was not measured")
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']} in BENCHMARK.json")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, missing


def overhead_ratio(untraced, traced):
    """Traced over untraced time per op, over the inputs both ran."""
    common = sorted(set(untraced["walls"]) & set(traced["traced_walls"]))
    if not common:
        fail("the traced and untraced runs share no input")
    t = sum(statistics.median(traced["traced_walls"][k]) for k in common)
    u = sum(statistics.median(untraced["walls"][k]) for k in common)
    return t / u


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = os.path.abspath(env["CARGO_TARGET_DIR"])
    build(env)

    if args.trace == 0:
        r = run_binary(env, "perfbench", args, args.seconds)
        metrics, _ = select(spec["end_to_end"], r["metrics"], fill_missing=False)
        attempted, failed = r["attempted"], r["failed"]
    else:
        untraced = run_binary(env, "perfbench", args, max(1.0, args.seconds / 2))
        traced = run_binary(env, "perfbench-traced", args, max(1.0, args.seconds / 2))
        common = set(untraced["digests"]) & set(traced["digests"])
        differ = sorted(k for k in common if untraced["digests"][k] != traced["digests"][k])
        print(f"{args.workload} traced vs untraced digests: {len(common)} inputs compared, "
              f"{len(differ)} differ {differ[:5]}")
        measured = dict(traced["metrics"])
        measured["trace.overhead_ratio"] = {
            "value": overhead_ratio(untraced, traced), "unit": "ratio"}
        metrics, missing = select(spec["per_layer"], measured, fill_missing=True)
        if missing:
            print(f"{args.workload} layers not exercised here (reported as 0): "
                  + " ".join(missing))
        print(f"{args.workload} trace.overhead_ratio = "
              f"{metrics['trace.overhead_ratio']['value']:.6f} ratio")
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"] + len(differ)
        if not common:
            failed += 1
            print(f"{args.workload} FAILED: no input ran both traced and untraced")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
