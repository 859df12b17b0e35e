#!/usr/bin/env python3
"""Builds the espbench harness from source and runs one workload.

Run from the root of a checkout:

    python3 espbench/run.py --workload engine_fleet --seed 1 --seconds 10 --trace 0

Workloads: engine_fleet, engine_arms, session_fig8, session_repair.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
--tiny and --plant CHECK are passed through for the benchmark's own tests.

The harness is configured and built (Release) under .bench_build/espbench
in the checkout; a rebuild only recompiles what changed.  Everything the
harness prints is passed through, followed by a machine-context line and,
last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is the harness's: 0 when every correctness check passed,
non-zero otherwise (and when the build fails, with no result printed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "espbench")
BINARY = os.path.join(BUILD, "espbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "espbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("espbench: build failed: " + " ".join(cmd))


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant", default="")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant:
        cmd += ["--plant", args.plant]

    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("espbench: run exceeded %d s" % RUN_TIMEOUT_S)
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.exit("espbench: harness exited %d without a result" % proc.returncode)

    build_info = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("# build "):
            build_info = json.loads(line[len("# build "):])
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "git_describe": git_describe(),
        "build": build_info,
    }
    print("# context " + json.dumps(context, sort_keys=True))

    want = expected_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        sys.exit("espbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(want - got), sorted(got - want)))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
