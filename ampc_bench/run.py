#!/usr/bin/env python3
"""Builds and runs the ampc_bench benchmark driver.

    python3 ampc_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the driver (Release) into .bench_build/ampc_bench; later calls only
re-check the build. The driver's stdout is passed through; its last line
is the result object. With --trace 1 the spans go to
.bench_build/traces/<workload>-<seed>.json, which must parse as JSON.
The printed metric names must be exactly the ones BENCHMARK.json lists
for the mode. Exit status is non-zero when the build, a check, a gate,
the trace file or the metric list fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "ampc_bench"
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "ampc_bench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("ampc_bench: build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build()
    trace_file = BUILD.parent / "traces" / f"{args.workload}-{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "ampc_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-file", str(trace_file)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])

    problems = []
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append("metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}, "
                        "unit mismatch "
                        f"{sorted(n for n in expected.keys() & printed.keys() if expected[n] != printed[n])}")
    if args.trace:
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            if not events:
                problems.append("trace file holds no spans")
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"trace file does not parse: {err}")
    for problem in problems:
        print(f"ampc_bench: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
        lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
