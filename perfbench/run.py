#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the library sources under src/) into
.bench_build with CMake, runs one workload and ends standard output with the
result line {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
Chrome trace file is written to .bench_build and must parse.

--smoke runs all three workloads at tiny sizes, traced and untraced, and
checks that every metric BENCHMARK.json names is printed with its unit, that
no operation failed, that Auto picked the same backends in both runs, and
that the trace file parses. It exits 0 only if every check passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("oneshot-hv15r", "replay-queen", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sa1d.hpp")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines, trace path)."""
    trace_path = os.path.join(BUILD, f"trace-{workload}-{seed}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--trace-out", trace_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines, trace_path


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def check_trace(path):
    """Returns the number of events, or None when the file does not parse."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError):
        return None
    return len(events)


def auto_picks(lines):
    return next((l for l in lines if l.startswith("auto picks:")), None)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in WORKLOADS:
        picks = {}
        for trace in (0, 1):
            code, lines, trace_path = run_binary(wl, 1, 0.5, trace, smoke=True, echo=False)
            tag = f"{wl} --trace {trace}"
            res = parse_result(lines)
            if code != 0 or res is None:
                problems.append(f"{tag}: exit code {code}, result line {lines[-1:]}")
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{tag}: missing {missing}, unexpected {extra}, wrong unit {units}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{tag}: error rate {res['failed']}/{res['attempted']}")
            picks[trace] = auto_picks(lines)
            if trace == 1:
                events = check_trace(trace_path)
                if not events:
                    problems.append(f"{tag}: trace {trace_path} missing, empty or unparsable")
            print(f"smoke {tag}: {res['attempted']} multiplies, {res['failed']} failed")
        if picks.get(0) is None or picks.get(0) != picks.get(1):
            problems.append(f"{wl}: Auto's picks differ between runs: {picks}")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} check(s) failed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if os.environ.get("SA1D_COST_PARAMS"):
        fail("refusing to run with SA1D_COST_PARAMS set; the benchmark pins its cost parameters")
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    code, lines, trace_path = run_binary(args.workload, args.seed, args.seconds, args.trace)
    res = parse_result(lines)
    if res is None:
        fail(f"no result line (exit code {code})")
    if args.trace and code == 0:
        events = check_trace(trace_path)
        if not events:
            fail(f"trace file {trace_path} is missing, empty or does not parse")
        print(f"trace parses: {events} events")
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
