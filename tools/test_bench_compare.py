#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py.

The load-bearing case doctors a +30% slowdown into the current results
and asserts the gate goes red — the proof the CI bench-regression job
can actually fail.  Run with:

    python3 -m unittest tools.test_bench_compare
"""

import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_compare


def write_suite(
    path: Path,
    names_seconds: dict[str, float],
    units: dict[str, str] | None = None,
    meta: dict[str, str] | None = None,
    higher_is_better: dict[str, bool] | None = None,
):
    units = units or {}
    higher_is_better = higher_is_better or {}
    doc = {
        "benchmark": path.stem.removeprefix("BENCH_"),
        "schema_version": 1,
        **({"meta": meta} if meta is not None else {}),
        "entries": [
            {"name": name, "seconds": seconds, "items_per_second": 0.0,
             **({"unit": units[name]} if name in units else {}),
             **({"higher_is_better": higher_is_better[name]}
                if name in higher_is_better else {}),
             "metrics": {}}
            for name, seconds in names_seconds.items()
        ],
    }
    path.write_text(json.dumps(doc))


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline_dir = root / "baselines"
        self.current_dir = root / "current"
        self.baseline_dir.mkdir()
        self.current_dir.mkdir()
        self.baseline = {
            "walk/exponential/direct": 1.0,
            "walk/exponential/cached": 0.4,
            "walk/uniform/direct": 0.2,
        }
        write_suite(self.baseline_dir / "BENCH_walk.json", self.baseline)

    def tearDown(self):
        self._tmp.cleanup()

    def compare(self, current: dict[str, float]) -> tuple[bool, str]:
        write_suite(self.current_dir / "BENCH_walk.json", current)
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        return ok, out.getvalue()

    def test_identical_results_pass(self):
        ok, out = self.compare(dict(self.baseline))
        self.assertTrue(ok)
        self.assertIn("ok", out)

    def test_injected_30_percent_slowdown_fails(self):
        doctored = {name: s * 1.30 for name, s in self.baseline.items()}
        ok, out = self.compare(doctored)
        self.assertFalse(ok)
        self.assertIn("FAIL", out)

    def test_8_percent_slowdown_warns_but_passes(self):
        doctored = {name: s * 1.08 for name, s in self.baseline.items()}
        ok, out = self.compare(doctored)
        self.assertTrue(ok)
        self.assertIn("WARN", out)

    def test_median_gate_tolerates_one_noisy_entry(self):
        # One entry 2x slower, the other two unchanged: the median stays
        # at 1.0, so a single outlier cannot flip the gate.
        doctored = dict(self.baseline)
        doctored["walk/uniform/direct"] *= 2.0
        ok, out = self.compare(doctored)
        self.assertTrue(ok)
        self.assertIn("<-- slower", out)

    def test_speedups_pass(self):
        doctored = {name: s * 0.5 for name, s in self.baseline.items()}
        ok, _ = self.compare(doctored)
        self.assertTrue(ok)

    def test_new_entries_are_ignored(self):
        doctored = dict(self.baseline)
        doctored["walk/brand_new_bench"] = 99.0
        ok, _ = self.compare(doctored)
        self.assertTrue(ok)

    def test_counter_entries_are_excluded_from_the_gate(self):
        # A counter-valued entry (unit != "seconds", e.g. the fig09
        # model-vs-measured mix) may drift by orders of magnitude run to
        # run — it must never participate in the timing gate.
        units = {"walk/perf_counter": "mix"}
        baseline = dict(self.baseline)
        baseline["walk/perf_counter"] = 1.0
        write_suite(
            self.baseline_dir / "BENCH_walk.json", baseline, units
        )
        doctored = dict(self.baseline)
        doctored["walk/perf_counter"] = 5_000_000.0  # huge "drift"
        write_suite(self.current_dir / "BENCH_walk.json", doctored, units)
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertTrue(ok)
        self.assertNotIn("perf_counter", out.getvalue())

    def test_missing_baseline_entry_warns_but_passes(self):
        # A baseline entry the current run no longer emits (renamed or
        # retired bench) must be a visible warning, never a hard error.
        doctored = dict(self.baseline)
        del doctored["walk/uniform/direct"]
        ok, out = self.compare(doctored)
        self.assertTrue(ok)
        self.assertIn("WARN", out)
        self.assertIn("walk/uniform/direct", out)
        self.assertIn("missing from the current run", out)

    def test_fully_disjoint_suite_warns_but_passes(self):
        # Nothing comparable at all (every entry renamed): the suite is
        # skipped with a warning instead of raising BenchError, so one
        # stale baseline file cannot take the whole gate down.
        ok, out = self.compare({"walk/renamed_everything": 1.0})
        self.assertTrue(ok)
        self.assertIn("no comparable entries", out)
        self.assertNotIn("FAIL", out)

    def test_missing_entry_warning_keeps_other_suites_gating(self):
        # The warn path must not weaken the gate: a second suite with a
        # real regression still fails the run.
        write_suite(
            self.baseline_dir / "BENCH_w2v.json", {"w2v/train": 1.0}
        )
        write_suite(
            self.current_dir / "BENCH_w2v.json", {"w2v/train": 1.5}
        )
        doctored = dict(self.baseline)
        del doctored["walk/uniform/direct"]
        ok, out = self.compare(doctored)
        self.assertFalse(ok)
        self.assertIn("missing from the current run", out)
        self.assertIn("FAIL", out)

    def test_missing_unit_defaults_to_seconds(self):
        # Pre-unit baselines (no "unit" field) still gate as timings.
        doctored = {name: s * 1.30 for name, s in self.baseline.items()}
        ok, out = self.compare(doctored)
        self.assertFalse(ok)
        self.assertIn("FAIL", out)

    def test_isa_mismatch_warns_and_skips_the_suite(self):
        # An AVX2 baseline vs a scalar-fallback run: a 2x "slowdown"
        # is an ISA change, not a regression — warn, skip, stay green.
        write_suite(
            self.baseline_dir / "BENCH_walk.json", self.baseline,
            meta={"simd_isa": "avx2", "f64_lanes": "4"},
        )
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 2.0 for name, s in self.baseline.items()},
            meta={"simd_isa": "scalar", "f64_lanes": "4"},
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertTrue(ok)
        self.assertIn("simd_isa mismatch", out.getvalue())
        self.assertNotIn("FAIL", out.getvalue())

    def test_one_sided_isa_presence_is_a_mismatch(self):
        # Baseline predates the meta block but the current run records
        # an ISA (or vice versa): provenance unknown, so don't gate.
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 2.0 for name, s in self.baseline.items()},
            meta={"simd_isa": "avx2"},
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertTrue(ok)
        self.assertIn("unrecorded", out.getvalue())

    def test_matching_isa_still_gates(self):
        write_suite(
            self.baseline_dir / "BENCH_walk.json", self.baseline,
            meta={"simd_isa": "avx2"},
        )
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 1.30 for name, s in self.baseline.items()},
            meta={"simd_isa": "avx2"},
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertFalse(ok)
        self.assertIn("FAIL", out.getvalue())

    def test_nproc_mismatch_warns_and_skips_the_suite(self):
        # A 4-core baseline vs a 2-core run: a thread-scaling entry
        # trains with a smaller team, which is a host change, not a
        # regression — warn, skip, stay green.
        write_suite(
            self.baseline_dir / "BENCH_walk.json", self.baseline,
            meta={"simd_isa": "avx2", "nproc": "4"},
        )
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 2.0 for name, s in self.baseline.items()},
            meta={"simd_isa": "avx2", "nproc": "2"},
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertTrue(ok)
        self.assertIn("nproc mismatch", out.getvalue())
        self.assertNotIn("FAIL", out.getvalue())

    def test_matching_nproc_still_gates(self):
        write_suite(
            self.baseline_dir / "BENCH_walk.json", self.baseline,
            meta={"nproc": "4"},
        )
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 1.30 for name, s in self.baseline.items()},
            meta={"nproc": "4"},
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertFalse(ok)
        self.assertIn("FAIL", out.getvalue())

    def test_malformed_meta_is_a_schema_error(self):
        write_suite(
            self.current_dir / "BENCH_walk.json", dict(self.baseline)
        )
        doc = json.loads(
            (self.current_dir / "BENCH_walk.json").read_text()
        )
        doc["meta"] = {"simd_isa": 4}
        (self.current_dir / "BENCH_walk.json").write_text(json.dumps(doc))
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.compare_dirs(
                self.baseline_dir, self.current_dir,
                fail_threshold=0.15, warn_threshold=0.05,
                out=io.StringIO(),
            )

    def test_missing_current_suite_is_a_schema_error(self):
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.compare_dirs(
                self.baseline_dir, self.current_dir,
                fail_threshold=0.15, warn_threshold=0.05,
                out=io.StringIO(),
            )

    def test_malformed_json_is_a_schema_error(self):
        (self.current_dir / "BENCH_walk.json").write_text("not json")
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.compare_dirs(
                self.baseline_dir, self.current_dir,
                fail_threshold=0.15, warn_threshold=0.05,
                out=io.StringIO(),
            )

    def test_wrong_schema_version_is_rejected(self):
        doc = {"benchmark": "walk", "schema_version": 2, "entries": []}
        (self.current_dir / "BENCH_walk.json").write_text(json.dumps(doc))
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.compare_dirs(
                self.baseline_dir, self.current_dir,
                fail_threshold=0.15, warn_threshold=0.05,
                out=io.StringIO(),
            )

    def test_update_promotes_current_to_baseline(self):
        doctored = {name: s * 1.30 for name, s in self.baseline.items()}
        write_suite(self.current_dir / "BENCH_walk.json", doctored)
        bench_compare.update_baselines(
            self.baseline_dir, self.current_dir, out=io.StringIO()
        )
        promoted = bench_compare.load_bench(
            self.baseline_dir / "BENCH_walk.json"
        )
        self.assertEqual(
            promoted, {name: (s, False) for name, s in doctored.items()}
        )

    def test_cli_exit_codes(self):
        write_suite(
            self.current_dir / "BENCH_walk.json",
            {name: s * 1.30 for name, s in self.baseline.items()},
        )
        argv = [
            "--baseline-dir", str(self.baseline_dir),
            "--current-dir", str(self.current_dir),
        ]
        self.assertEqual(bench_compare.main(argv), 1)
        write_suite(
            self.current_dir / "BENCH_walk.json", dict(self.baseline)
        )
        self.assertEqual(bench_compare.main(argv), 0)
        self.assertEqual(
            bench_compare.main(
                ["--baseline-dir", str(self.baseline_dir / "missing"),
                 "--current-dir", str(self.current_dir)]
            ),
            2,
        )


class HigherIsBetterTest(unittest.TestCase):
    """Gate direction for rate entries (the serve layer's QPS rungs)."""

    QPS_UNITS = {
        "serve/qps/c1/fp32": "qps",
        "serve/qps/c4/fp32": "qps",
        "serve/peak_qps/fp32": "qps",
    }
    QPS_FLAGS = {name: True for name in QPS_UNITS}

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline_dir = root / "baselines"
        self.current_dir = root / "current"
        self.baseline_dir.mkdir()
        self.current_dir.mkdir()
        self.baseline = {
            "serve/qps/c1/fp32": 40_000.0,
            "serve/qps/c4/fp32": 45_000.0,
            "serve/peak_qps/fp32": 46_000.0,
        }
        write_suite(
            self.baseline_dir / "BENCH_serve.json", self.baseline,
            units=self.QPS_UNITS, higher_is_better=self.QPS_FLAGS,
        )

    def tearDown(self):
        self._tmp.cleanup()

    def compare(self, current: dict[str, float]) -> tuple[bool, str]:
        write_suite(
            self.current_dir / "BENCH_serve.json", current,
            units=self.QPS_UNITS, higher_is_better=self.QPS_FLAGS,
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        return ok, out.getvalue()

    def test_doctored_30_percent_qps_drop_fails(self):
        # The load-bearing case for the serve gate: throughput fell 30%,
        # so the inverted ratio is ~1.43 and the run must go red.
        doctored = {name: q * 0.70 for name, q in self.baseline.items()}
        ok, out = self.compare(doctored)
        self.assertFalse(ok)
        self.assertIn("FAIL", out)
        self.assertIn("lower throughput", out)

    def test_unchanged_qps_passes(self):
        ok, out = self.compare(dict(self.baseline))
        self.assertTrue(ok)
        self.assertNotIn("FAIL", out)

    def test_qps_gain_passes(self):
        # Faster serving must never fail the gate (ratio < 1 after the
        # inversion).
        doubled = {name: q * 2.0 for name, q in self.baseline.items()}
        ok, out = self.compare(doubled)
        self.assertTrue(ok)
        self.assertIn("higher throughput", out)

    def test_qps_collapse_to_zero_fails(self):
        # A server that stopped serving maps to an infinite ratio — the
        # exact regression this gate exists to catch, not a skip.
        dead = {name: 0.0 for name in self.baseline}
        ok, out = self.compare(dead)
        self.assertFalse(ok)
        self.assertIn("FAIL", out)

    def test_mixed_suite_gates_latency_and_qps_together(self):
        # Latency entries (plain timings) and QPS entries coexist in
        # BENCH_serve.json; a drop in every QPS rung fails even while
        # the latency timings hold steady.
        units = dict(self.QPS_UNITS)
        flags = dict(self.QPS_FLAGS)
        baseline = dict(self.baseline)
        baseline["serve/link_p99/c1/fp32"] = 0.002
        write_suite(
            self.baseline_dir / "BENCH_serve.json", baseline,
            units=units, higher_is_better=flags,
        )
        doctored = {name: q * 0.5 for name, q in self.baseline.items()}
        doctored["serve/link_p99/c1/fp32"] = 0.002
        write_suite(
            self.current_dir / "BENCH_serve.json", doctored,
            units=units, higher_is_better=flags,
        )
        out = io.StringIO()
        ok = bench_compare.compare_dirs(
            self.baseline_dir, self.current_dir,
            fail_threshold=0.15, warn_threshold=0.05, out=out,
        )
        self.assertFalse(ok)
        self.assertIn("FAIL", out.getvalue())

    def test_direction_flag_mismatch_is_a_schema_error(self):
        # A baseline gating QPS as higher-is-better against a current
        # run re-declaring the same names as plain wall times compares
        # incommensurable numbers.
        write_suite(
            self.current_dir / "BENCH_serve.json", dict(self.baseline)
        )
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.compare_dirs(
                self.baseline_dir, self.current_dir,
                fail_threshold=0.15, warn_threshold=0.05,
                out=io.StringIO(),
            )

    def test_seconds_with_higher_is_better_is_contradictory(self):
        write_suite(
            self.current_dir / "BENCH_serve.json",
            {"serve/bogus": 1.0},
            higher_is_better={"serve/bogus": True},
        )
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.load_bench(
                self.current_dir / "BENCH_serve.json"
            )

    def test_non_bool_flag_is_a_schema_error(self):
        write_suite(
            self.current_dir / "BENCH_serve.json",
            {"serve/qps/c1/fp32": 40_000.0},
            units={"serve/qps/c1/fp32": "qps"},
        )
        doc = json.loads(
            (self.current_dir / "BENCH_serve.json").read_text()
        )
        doc["entries"][0]["higher_is_better"] = "yes"
        (self.current_dir / "BENCH_serve.json").write_text(json.dumps(doc))
        with self.assertRaises(bench_compare.BenchError):
            bench_compare.load_bench(
                self.current_dir / "BENCH_serve.json"
            )


if __name__ == "__main__":
    unittest.main()
