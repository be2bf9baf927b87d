#!/usr/bin/env python3
"""Build the tgl end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lp-email --seed 1 --seconds 15 --trace 0

The benchmark binary (tgl_perfbench) is configured and built in
.bench_build/perfbench on first use and rebuilt incrementally after
that; build output goes to stderr. Standard output is the binary's:
a {"meta": ...} line, an {"extra": ...} line with the figures only that
workload measures, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run (spans land in
.bench_build/perfbench/work/spans-<workload>.json); either way exactly
those BENCHMARK.json lists, in its units. Exits non-zero, without a
result line, when the build or the run fails or the metrics differ from
BENCHMARK.json's.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tgl_perfbench")
WORK = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def manifest_units(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as manifest:
        key = "per_layer" if trace == "1" else "end_to_end"
        return {m["name"]: m["unit"] for m in json.load(manifest)[key]}


def build():
    """Configure once, then build incrementally. Raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no tgl sources under " + ROOT + "/src")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS], **quiet)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        units = manifest_units(args.trace)
        build()
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--work-dir", WORK],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print("perfbench: " + str(error), file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: tgl_perfbench printed no result line",
              file=sys.stderr)
        return 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != units:
        print("perfbench: the metrics differ from BENCHMARK.json's: " +
              json.dumps(printed), file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
