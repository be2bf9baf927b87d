#!/usr/bin/env python3
"""Compare fresh BENCH_*.json files against committed baselines.

The micro benches and the pipeline smoke run write machine-readable
results in the shared bench schema (see bench/bench_json.hpp).  This
script gates CI on them: for every baseline suite it computes the
per-entry wall-time ratio (current / baseline) and the suite's median
ratio.  A suite whose median regresses more than --fail-threshold
(default 15%) fails the run; more than --warn-threshold (default 5%)
prints a warning but stays green.  Medians, not means, so one noisy
entry on a shared CI runner cannot flip the gate by itself.

Entries may declare "higher_is_better": true (throughput entries such
as the serve layer's QPS rungs, unit "qps" with the value riding in
the `seconds` slot).  For those the ratio is inverted (baseline /
current) before aggregation, so a ratio above 1 uniformly means "got
worse" in both directions and one median rule gates everything.  The
flag is part of an entry's identity: a baseline and current run that
disagree on it are comparing incommensurable quantities, which is a
schema error (exit 2), not a skip.

Suites may carry a "meta" block (bench_json.hpp).  When the baseline
and the current run disagree on meta["simd_isa"] or meta["nproc"] —
including when only one side records it — their timings come from
different vector backends (e.g. an AVX2 baseline against a
scalar-fallback build) or from different core counts (a thread-scaling
entry trains with a smaller team on a smaller host), and the suite is
skipped with a warning instead of gated: a 2x "regression" that is
really a host change must not page anyone, and a scalar or small-host
baseline must not mask a real regression.

Usage:
    python3 tools/bench_compare.py \
        --baseline-dir bench/baselines --current-dir build

    # refresh the committed baselines from a fresh run
    python3 tools/bench_compare.py \
        --baseline-dir bench/baselines --current-dir build --update

Exit codes: 0 ok (including warnings), 1 regression, 2 usage/schema
error (missing suite, malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

SCHEMA_VERSION = 1

# Meta keys that must agree between baseline and current run for a
# suite's timings to be comparable.
HOST_META_KEYS = ("simd_isa", "nproc")


class BenchError(Exception):
    """Schema or usage problem — exit code 2, never a regression."""


def load_bench(path: Path) -> dict[str, tuple[float, bool]]:
    """Return {entry name: (value, higher_is_better)} for one
    BENCH_*.json file.

    Gated entries are timing entries (unit "seconds", lower is better)
    and rate entries declaring "higher_is_better": true (e.g. unit
    "qps").  Any other non-"seconds" unit (the fig09/fig11
    model-vs-measured comparisons use "mix" / "stall_share") carries
    counter values in its `seconds` slot and is excluded.  Missing
    "unit" / "higher_is_better" keys default to "seconds" / False for
    backward compatibility with pre-flag baselines.  A "seconds" entry
    claiming higher_is_better is contradictory and rejected.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise BenchError(f"{path}: unreadable bench JSON: {err}") from err
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise BenchError(
            f"{path}: schema_version {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    raw_entries = doc.get("entries", [])
    entries = {}
    for entry in raw_entries:
        name = entry.get("name")
        seconds = entry.get("seconds")
        unit = entry.get("unit", "seconds")
        higher_is_better = entry.get("higher_is_better", False)
        if (
            not isinstance(name, str)
            or not isinstance(seconds, (int, float))
            or not isinstance(higher_is_better, bool)
        ):
            raise BenchError(f"{path}: malformed entry {entry!r}")
        if unit == "seconds" and higher_is_better:
            raise BenchError(
                f"{path}: entry {name!r} declares unit 'seconds' with "
                f"higher_is_better — a wall time cannot be "
                f"higher-is-better"
            )
        if unit != "seconds" and not higher_is_better:
            continue
        entries[name] = (float(seconds), higher_is_better)
    if not raw_entries:
        raise BenchError(f"{path}: no entries")
    return entries


def load_meta(path: Path) -> dict[str, str]:
    """Return the suite's "meta" block ({} when absent).

    Meta is optional and free-form string-to-string; anything else is a
    schema error so a half-written block cannot silently disable the
    host gate.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise BenchError(f"{path}: unreadable bench JSON: {err}") from err
    meta = doc.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise BenchError(f"{path}: malformed meta block {meta!r}")
    return meta


def compare_suite(
    baseline: dict[str, tuple[float, bool]],
    current: dict[str, tuple[float, bool]],
) -> tuple[list[tuple[str, float]], float | None, list[str]]:
    """Per-entry (name, ratio) for shared entries, the median ratio,
    and the baseline entries missing from the current run.

    Ratios are normalized so > 1 always means "worse": current /
    baseline for timings, baseline / current for higher-is-better
    rates (a current rate of zero maps to +inf — a server that stopped
    serving is the regression the gate exists for).  A per-entry
    direction disagreement between the two runs raises BenchError.

    Entries present only in the current run are skipped (new benches
    should not fail the gate); baseline entries missing from the
    current run are reported so the caller can warn — a rename or a
    bench that stopped emitting must be visible, but neither is a
    regression.  Zero-valued baselines are skipped too, since their
    ratio is meaningless.  With nothing comparable at all the median
    is None and the caller decides (warn, not fail).
    """
    ratios = []
    missing = []
    for name, (base_value, base_hib) in sorted(baseline.items()):
        if name not in current:
            missing.append(name)
            continue
        cur_value, cur_hib = current[name]
        if base_hib != cur_hib:
            raise BenchError(
                f"entry {name!r}: higher_is_better flag disagrees "
                f"(baseline {base_hib}, current {cur_hib}) — refusing "
                f"to compare opposite gate directions; refresh the "
                f"baseline with --update"
            )
        if base_value <= 0.0:
            continue
        if base_hib:
            ratio = (
                base_value / cur_value if cur_value > 0.0 else float("inf")
            )
        else:
            ratio = cur_value / base_value
        ratios.append((name, ratio))
    if not ratios:
        return [], None, missing
    return ratios, statistics.median(r for _, r in ratios), missing


def compare_dirs(
    baseline_dir: Path,
    current_dir: Path,
    fail_threshold: float,
    warn_threshold: float,
    out=sys.stdout,
) -> bool:
    """Compare every baseline suite; return True iff the gate passes."""
    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        raise BenchError(f"{baseline_dir}: no BENCH_*.json baselines")

    ok = True
    for baseline_path in baseline_files:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            raise BenchError(
                f"{current_path}: missing — the bench run did not produce "
                f"this suite"
            )
        base_meta = load_meta(baseline_path)
        cur_meta = load_meta(current_path)
        mismatch = next(
            (key for key in HOST_META_KEYS
             if base_meta.get(key) != cur_meta.get(key)),
            None,
        )
        if mismatch is not None:
            print(
                f"WARN  {baseline_path.name}: {mismatch} mismatch "
                f"(baseline {base_meta.get(mismatch) or 'unrecorded'}, "
                f"current {cur_meta.get(mismatch) or 'unrecorded'}) — "
                f"timings from different hosts are not comparable; "
                f"suite skipped",
                file=out,
            )
            continue
        baseline_entries = load_bench(baseline_path)
        ratios, median, missing = compare_suite(
            baseline_entries, load_bench(current_path)
        )
        for name in missing:
            print(
                f"WARN  {baseline_path.name}: baseline entry {name} "
                f"missing from the current run — skipped (renamed or "
                f"no longer emitted? refresh with --update)",
                file=out,
            )
        if median is None:
            print(
                f"WARN  {baseline_path.name}: no comparable entries "
                f"between baseline and current — suite skipped",
                file=out,
            )
            continue
        if median > 1.0 + fail_threshold:
            verdict = "FAIL"
            ok = False
        elif median > 1.0 + warn_threshold:
            verdict = "WARN"
        else:
            verdict = "ok"
        print(
            f"{verdict:>4}  {baseline_path.name}: median ratio "
            f"{median:.3f} over {len(ratios)} entries "
            f"(fail > {1.0 + fail_threshold:.2f}, "
            f"warn > {1.0 + warn_threshold:.2f})",
            file=out,
        )
        for name, ratio in ratios:
            higher_is_better = baseline_entries[name][1]
            marker = ""
            if ratio > 1.0 + fail_threshold:
                marker = (
                    "  <-- lower throughput"
                    if higher_is_better
                    else "  <-- slower"
                )
            elif ratio < 1.0 - fail_threshold:
                marker = (
                    "  (higher throughput)"
                    if higher_is_better
                    else "  (faster)"
                )
            print(f"      {name}: {ratio:.3f}{marker}", file=out)
    return ok


def update_baselines(baseline_dir: Path, current_dir: Path, out=sys.stdout):
    """Copy the current suites over the committed baselines."""
    current_files = sorted(current_dir.glob("BENCH_*.json"))
    if not current_files:
        raise BenchError(f"{current_dir}: no BENCH_*.json files to promote")
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for path in current_files:
        load_bench(path)  # refuse to promote malformed files
        shutil.copy2(path, baseline_dir / path.name)
        print(f"updated {baseline_dir / path.name}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, required=True,
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir", type=Path, required=True,
        help="directory holding the fresh BENCH_*.json results",
    )
    parser.add_argument(
        "--fail-threshold", type=float, default=0.15,
        help="fail when a suite's median ratio exceeds 1 + this "
        "(default 0.15)",
    )
    parser.add_argument(
        "--warn-threshold", type=float, default=0.05,
        help="warn when a suite's median ratio exceeds 1 + this "
        "(default 0.05)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="promote the current results to baselines instead of "
        "comparing",
    )
    args = parser.parse_args(argv)

    try:
        if args.update:
            update_baselines(args.baseline_dir, args.current_dir)
            return 0
        ok = compare_dirs(
            args.baseline_dir,
            args.current_dir,
            args.fail_threshold,
            args.warn_threshold,
        )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not ok:
        print(
            "benchmark regression: median suite time exceeded the fail "
            "threshold (see above); if intentional, refresh the "
            "baselines with --update",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
