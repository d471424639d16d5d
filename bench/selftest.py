"""Quick self-test of the benchmark at toy size (about half a minute).

Usage (from the repository root):  python3 bench/selftest.py

For each workload it checks that the untimed and the traced run emit every
metric named in BENCHMARK.json with its unit, that the traced self times
account for the traced wall time, and that a deliberately corrupted output
is counted as a failed operation and marks the run incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

import run

run.import_program()

import workloads as wl  # noqa: E402  (needs the program on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def toy(workload: str, trace: bool, corrupt=None) -> dict:
    return run.run(workload, SEED, 0.01, trace, size=wl.TOY, setup_repeats=1, corrupt=corrupt)


def inject_nan(cmd, outcome) -> None:
    """Replace the first rate-like number of the output by the CLI's "nan" token."""
    if outcome.code not in (0, 1):
        return
    payload = json.loads(outcome.stdout)
    for row in payload["rows"]:
        key = next((k for k, v in row.items()
                    if isinstance(v, float) and k not in ("ell", "theta")), None)
        if key is not None:
            row[key] = "nan"
            break
    outcome.stdout = json.dumps(payload)


def shift_estimate(cmd, outcome) -> None:
    """Move verify_bs's first per-horizon estimate far outside its error band."""
    payload = json.loads(outcome.stdout)
    row = next(r for r in payload["rows"] if r["name"] == "per_horizon_vs_gaussian_oracle")
    fit = outcome.captured[0]
    first = fit.rows[0]
    moved = dataclasses.replace(first.result, estimate=first.result.estimate * 1.5)
    rows = [dataclasses.replace(first, result=moved)] + list(fit.rows[1:])
    outcome.captured[0] = dataclasses.replace(fit, rows=rows)
    row["estimates"][0] = moved.estimate
    outcome.stdout = json.dumps(payload)


def shift_bs_rate(cmd, outcome) -> None:
    """Perturb one closed-form-checked frontier rate by 1e-6."""
    if cmd.oracle is None or not os.path.basename(cmd.argv[2]).startswith("bs-"):
        return
    payload = json.loads(outcome.stdout)
    row = next(r for r in payload["rows"] if r["regime"] == "interior")
    row["v"] += 1e-6
    outcome.stdout = json.dumps(payload)


class TestMetricsEmitted(unittest.TestCase):
    def _check_names(self, out: dict, section: str) -> None:
        metrics = out["result"]["metrics"]
        for spec in SPEC[section]:
            with self.subTest(metric=spec["name"]):
                self.assertIn(spec["name"], metrics)
                self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
                self.assertIsInstance(metrics[spec["name"]]["value"], float)
        self.assertEqual(set(metrics), {s["name"] for s in SPEC[section]})

    def test_end_to_end(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                out = toy(workload, trace=False)
                result = out["result"]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out["report"]["wrong_outputs"])
                self.assertGreaterEqual(result["attempted"], 1)
                self._check_names(out, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                out = toy(workload, trace=True)
                self.assertTrue(out["result"]["correct"], out["report"]["wrong_outputs"])
                self._check_names(out, "per_layer")
                coverage = out["result"]["metrics"]["trace.coverage"]["value"]
                self.assertLess(abs(coverage - 1.0), 0.1)


class TestCorruptionCounted(unittest.TestCase):
    def _assert_counted(self, workload: str, corrupt) -> dict:
        clean = toy(workload, trace=False)
        bad = toy(workload, trace=False, corrupt=corrupt)
        self.assertFalse(bad["result"]["correct"])
        self.assertGreater(bad["result"]["failed"], clean["result"]["failed"])
        self.assertGreater(bad["report"]["error_rate"], clean["report"]["error_rate"])
        return bad

    def test_nan_in_output(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                self._assert_counted(workload, inject_nan)

    def test_estimate_outside_band(self):
        bad = self._assert_counted("verify_bs", shift_estimate)
        self.assertTrue(any("SE from the exact tail" in w for w in bad["report"]["wrong_outputs"]))

    def test_closed_form_rate(self):
        bad = self._assert_counted("solve_sweep", shift_bs_rate)
        self.assertIn("closed-form mismatch", bad["report"]["failures_by_reason"])


class TestKnownDefect(unittest.TestCase):
    def test_bracket_failure_rows_lower_ok_rate_only(self):
        cmd = wl.Command("frontier", ["frontier", "--model", "m.json", "--side", "up"], 3, 3)
        rows = [{"ell": 0.1, "error": "BracketFailure: no sign change"},
                {"ell": 0.2, "error": "ConfigError: bad target"},
                {"ell": 0.3, "theta": 0.5, "v": -0.1, "policy_gain": 1.0,
                 "policy_intercept": 0.0, "regime": "interior", "error": None}]
        outcome = wl.Outcome(0, 0.0, json.dumps({"rows": rows}), "", None, [])
        verdict = wl.check(cmd, outcome)
        self.assertEqual(verdict.defects, 1)
        self.assertEqual(verdict.failed, ["ConfigError"])
        self.assertEqual(verdict.wrong, [])


if __name__ == "__main__":
    result = unittest.main(verbosity=2, exit=False).result
    sys.exit(0 if result.wasSuccessful() else 1)
