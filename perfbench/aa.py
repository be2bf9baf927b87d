#!/usr/bin/env python3
"""A/A report: two interleaved sets of runs of the same build.

Usage (from the repository root):

    python3 perfbench/aa.py --workload lp-email --runs 10 --seconds 20

Run i of both sets uses seed first_seed + i; which set goes first
alternates with i, so slow drift of the host lands on both sets alike.
For each metric the report prints each set's median and quartiles, its
spread (quartile distance over median, as statistics.quantiles(n=4)
gives them) and the gap between the two medians, next to host.calib_s,
the fixed single-thread reference loop each run times: a gap that
host.calib_s shares is the host's, not the program's. The figures of
the {"extra": ...} line (those only the workload measures) are
reported too. --sets 1 runs
one set only (the ten-seed steadiness check). --json writes every run's
metrics to a file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run %s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith('{"meta"'):
            values.setdefault("host.calib_s",
                              json.loads(line)["meta"]["host.calib_s"])
        elif line.startswith('{"extra"'):
            for name, m in json.loads(line)["extra"].items():
                values.setdefault(name, m["value"])
    if not result["correct"] or result["failed"]:
        print("run %s seed %d: correct=%s failed=%d" %
              (workload, seed, result["correct"], result["failed"]),
              file=sys.stderr)
    return values


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("nan")
    return q1, q2, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sets = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            seed = args.first_seed + i
            sets[s].append(run_once(args.workload, seed, args.seconds,
                                    args.trace))
            print("set %s run %d seed %d done" % ("AB"[s], i + 1, seed),
                  file=sys.stderr, flush=True)

    names = sorted(set().union(*[run.keys() for run in sets[0]]))
    header = "%-26s" % "metric"
    for s in range(args.sets):
        header += " | %s: median [q1, q3] spread" % "AB"[s]
    if args.sets == 2:
        header += " | gap B/A-1"
    print(header)
    for name in names:
        row = "%-26s" % name
        medians = []
        for runs in sets:
            q1, q2, q3, spread = summary([run[name] for run in runs])
            medians.append(q2)
            row += " | %.6g [%.6g, %.6g] %.2f%%" % (q2, q1, q3, 100 * spread)
        if args.sets == 2:
            gap = medians[1] / medians[0] - 1 if medians[0] else float("nan")
            row += " | %+.2f%%" % (100 * gap)
        print(row)
    if args.json:
        with open(args.json, "w") as out:
            json.dump({"workload": args.workload, "sets": sets}, out,
                      indent=1)


if __name__ == "__main__":
    main()
