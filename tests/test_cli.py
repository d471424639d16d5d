"""End-to-end command-line tests: tables, serialization, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthtail import cli, mc, models, riccati
from growthtail.cli import main


BS = {"b": 0.1, "sigma": 0.2}
PR = {"K": -0.5, "sigma_norm": 0.2}
LG = {"K": -1.0, "B1": 1.0, "B0": 0.5, "sigma_norm": 1.0, "gamma_norm": 1.0, "rho": 0.0}
LG05 = {"K": -1.2, "B1": 0.8, "B0": 0.4, "sigma_norm": 0.9, "gamma_norm": 1.1, "rho": 0.5}
MD1 = {
    "K": [[-1.0]],
    "B1": [[1.0]],
    "B0": [0.5],
    "sigma": [[1.0, 0.0]],
    "gamma": [[0.0, 1.0]],
}
MD2 = {
    "K": [[-1.0, 0.0], [0.0, -2.0]],
    "B1": [[0.2, -0.1], [0.05, 0.3]],
    "B0": [0.5, 0.3],
    "sigma": [[0.3, 0.0, 0.01, 0.0], [0.0, 0.4, 0.0, 0.01]],
    "gamma": [[0.01, 0.0, 0.6, 0.0], [0.0, 0.01, 0.0, 0.7]],
}


@pytest.fixture
def model_file(tmp_path):
    def write(record, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    return write


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    data_lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    return code, rows, out


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestDual:
    def test_bs_grid_values(self, model_file, capsys):
        code, rows, out = run_csv(
            capsys, ["dual", "--model", model_file(BS), "--grid", "0:0.5:3"]
        )
        assert code == 0
        lams = [float(r["lambda"]) for r in rows]
        assert lams[0] == 0.0
        assert lams[1] == pytest.approx(0.125 / 3.0, abs=1e-12)
        assert lams[2] == pytest.approx(0.125, abs=1e-12)
        assert "# convex_ok=true" in out

    def test_factor_downside_row(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys, ["dual", "--model", model_file(LG), "--grid=-1:-1:1"]
        )
        assert code == 0
        assert float(rows[0]["lambda"]) == pytest.approx(-0.15403910236246117, abs=1e-9)


    def test_downside_factor_curve_evaluations(self, model_file, capsys, monkeypatch):
        # the grid's values and derivatives, each evaluated once and shared
        # with the convexity check, and Lambda(0); no limit of the curve is
        # read, so none is probed
        calls = {"lg1d_gamma": 0, "_lg1d_slope": 0}
        for name in calls:
            original = getattr(models, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(models, name, counting)
        code, _, _ = run_csv(
            capsys, ["dual", "--model", model_file(LG05), "--grid=-2:0:5"]
        )
        assert code == 0
        assert calls == {"lg1d_gamma": 6, "_lg1d_slope": 5}

    @pytest.mark.parametrize("record", [BS, LG05], ids=["bs", "factor"])
    def test_deep_tilt_row_is_finite(self, model_file, capsys, record):
        # the closed forms' products stay finite at theta = -1e300
        code, rows, _ = run_csv(
            capsys,
            ["dual", "--model", model_file(record), "--grid=-1e300:-1e300:1"],
        )
        assert code == 0
        assert all(math.isfinite(float(rows[0][k])) for k in ("theta", "lambda", "lambda_prime"))

    def test_tilts_of_either_sign(self, model_file, capsys):
        # each row holds the curve at its own tilt, on both sides of zero; no side is named
        code, payload = run_json(capsys, ["dual", "--model", model_file(BS), "--grid=-1:0.5:4"])
        assert code == 0 and "side" not in payload
        rows = [(r["theta"], r["lambda"], r["lambda_prime"]) for r in payload["rows"]]
        assert rows[0] == (-1.0, -0.0625, 0.03125) and rows[3] == (0.5, 0.125, 0.5)
        assert [t for t, _, _ in rows] == [-1.0, -0.5, 0.0, 0.5]
        assert payload["diagnostics"]["convex_ok"] is True

    def test_grid_reaching_theta_bar_is_config_error(self, model_file, capsys):
        assert main(["dual", "--model", model_file(BS), "--grid", "0:1:3"]) == 2
        captured = capsys.readouterr()
        assert "theta_bar=1.0" in captured.err and captured.out == ""

    def test_side_rejected(self, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--model", model_file(BS), "--side", "up", "--grid", "0:0.5:3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --side up" in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self):
        # one parser serves every call; a parse leaves nothing behind for the next
        assert cli.build_parser() is cli.build_parser()
        a = cli.build_parser().parse_args(["dual", "--model", "m.json", "--grid", "0:1:2"])
        b = cli.build_parser().parse_args(
            ["frontier", "--model", "m.json", "--side", "down", "--ell", "0.2"]
        )
        assert "side" not in a and (a.grid, a.fn) == ("0:1:2", cli.cmd_dual)
        assert (b.side, b.grid, b.ell, b.fn) == ("down", None, 0.2, cli.cmd_frontier)


class TestFrontier:
    def test_bs_upside_row(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["frontier", "--model", model_file(BS), "--side", "up", "--ell", "0.245"],
        )
        assert code == 0
        row = rows[0]
        assert float(row["theta"]) == pytest.approx(2.0 / 7.0, abs=1e-9)
        assert float(row["v"]) == pytest.approx(-0.02, abs=1e-12)
        assert float(row["policy_gain"]) == 0.0
        assert float(row["policy_intercept"]) == pytest.approx(3.5, abs=1e-12)

    def test_pr_policy_row(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["frontier", "--model", model_file(PR), "--side", "up", "--ell", "0.155"],
        )
        assert code == 0
        assert float(rows[0]["policy_gain"]) == pytest.approx(-15.0, abs=1e-8)
        assert float(rows[0]["policy_intercept"]) == pytest.approx(0.5, abs=1e-10)

    def test_target_next_to_steep_theta_bar(self, model_file, capsys):
        # Lambda' jumps by more than the 1e-10 residual tolerance between the
        # two floats that close the bracket: the tilt is the bisection's midpoint
        record = {
            "K": -0.16779721600829034, "B1": -0.12222947579860177, "B0": 1.6890701194823856,
            "sigma_norm": 0.12795542087295303, "gamma_norm": 0.20197934145116186,
            "rho": 0.9850027948763083,
        }
        code, payload = run_json(
            capsys,
            ["frontier", "--model", model_file(record), "--side", "up",
             "--ell", "227.66890639057004"],
        )
        assert code == 0
        row = payload["rows"][0]
        assert row["regime"] == "interior" and row["error"] is None
        assert row["theta"].hex() == "0x1.fffffc7ba2052p-1"

    def test_unreachable_serializes_minus_inf(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["frontier", "--model", model_file(BS), "--side", "down", "--ell", "-0.01"],
        )
        assert code == 0
        assert rows[0]["v"] == "-inf"
        assert float(rows[0]["policy_gain"]) == 0.0
        assert float(rows[0]["policy_intercept"]) == 0.0

    def test_json_round_trip_bit_exact(self, model_file, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            ["frontier", "--model", model_file(BS), "--side", "up", "--grid", "0.1:0.4:7"],
        )
        assert code == 0
        text = json.dumps(payload)
        again = json.loads(text)
        assert again == payload
        vals = [r["v"] for r in payload["rows"]]
        assert vals[-1] == pytest.approx(-((math.sqrt(0.125) - math.sqrt(0.4)) ** 2), abs=1e-13)

    def test_error_rows_do_not_abort(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["frontier", "--model", model_file(BS), "--side", "down", "--grid=-0.01:0.2:3"],
        )
        assert code == 0
        assert rows[0]["v"] == "-inf"
        assert rows[2]["v"] == "" and "TargetOutOfRange" in rows[2]["error"]

    @pytest.mark.parametrize("record", [BS, LG], ids=["bs", "factor"])
    def test_nan_target_is_error_row(self, model_file, capsys, record):
        code, rows, _ = run_csv(
            capsys, ["frontier", "--model", model_file(record), "--side", "up", "--ell", "nan"]
        )
        assert code == 0
        assert rows[0]["regime"] == "" and "TargetOutOfRange" in rows[0]["error"]

    @pytest.mark.parametrize("record", [BS, LG, PR], ids=["bs", "factor", "ou"])
    def test_infinite_targets(self, model_file, capsys, record):
        path = model_file(record)
        code, rows, _ = run_csv(capsys, ["frontier", "--model", path, "--ell", "inf"])
        assert code == 0
        assert rows[0]["error"] == "TargetOutOfRange: target is not finite"
        # -inf keeps its regimes: free upside, unreachable downside
        code, rows, _ = run_csv(capsys, ["frontier", "--model", path, "--ell=-inf"])
        assert code == 0 and rows[0]["regime"] == "free" and rows[0]["v"] == "0.0"
        code, rows, _ = run_csv(
            capsys, ["frontier", "--model", path, "--side", "down", "--ell=-inf"]
        )
        assert code == 0 and rows[0]["regime"] == "unreachable" and rows[0]["v"] == "-inf"


class TestRiccati:
    def test_scalar_embedding_matches_closed_form(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["riccati", "--model", model_file(MD1), "--grid=-1:0.4:8"],
        )
        assert code == 0
        for row in rows:
            theta = float(row["theta"])
            beta = 2.0
            u = 1.0 - theta
            disc = (1.0 - theta) * (1.0 - theta * beta)
            closed = (u - math.sqrt(disc)) / (1.0 - theta)
            assert float(row["c_0_0"]) == pytest.approx(closed, abs=1e-8)
            assert float(row["residual"]) <= 1e-9
            assert float(row["eig_max_real"]) < 0

    def test_zero_row_and_m2_residuals(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            ["riccati", "--model", model_file(MD2), "--grid=-0.5:0:6"],
        )
        assert code == 0
        assert all(float(r["residual"]) <= 1e-9 for r in rows)
        last = rows[-1]
        assert float(last["theta"]) == 0.0
        assert float(last["c_0_0"]) == 0.0 and float(last["c_1_1"]) == 0.0

    def test_scalar_model_rejected(self, model_file, capsys):
        assert main(["riccati", "--model", model_file(BS), "--grid", "0:0.4:3"]) == 2
        assert "the riccati command needs a matrix model file" in capsys.readouterr().err

    def test_side_rejected(self, model_file, capsys):
        # a sweep covers tilts of both signs; riccati has no side to choose
        with pytest.raises(SystemExit) as exc:
            main(["riccati", "--model", model_file(MD2), "--side", "down", "--grid=-0.5:0:6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --side down" in capsys.readouterr().err

    def test_far_negative_tilt_is_quick(self, model_file, capsys, monkeypatch):
        # each tilt is solved on its own from the Hamiltonian's stable subspace,
        # so a far-negative tilt costs one Newton solve like any other
        calls = []
        original = riccati._newton

        def counting(*args):
            calls.append(args)
            if len(calls) > 1000:
                raise RuntimeError("more than 1000 Newton solves")
            return original(*args)

        monkeypatch.setattr(riccati, "_newton", counting)
        code, rows, _ = run_csv(
            capsys, ["riccati", "--model", model_file(MD2), "--grid=-100000:0:2"]
        )
        assert code == 0
        assert rows[0]["ok"] == "true" and float(rows[0]["theta"]) == -1e5
        assert float(rows[0]["residual"]) <= 1e-9 and float(rows[0]["eig_max_real"]) < 0


class TestSimulate:
    def test_direct_probability_columns(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            [
                "simulate", "--model", model_file(BS), "--side", "up",
                "--ell", "0.245", "--paths", "4000", "--horizon", "10",
                "--dt", "0.05", "--seed", "7", "--tilt", "0",
            ],
        )
        assert code == 0
        row = rows[0]
        assert row["estimator"] == "direct"
        assert 0.2 < float(row["estimate"]) < 0.33
        assert int(row["n_paths"]) == 4000

    def test_auto_tilt_uses_conjugate_tilt(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            [
                "simulate", "--model", model_file(BS), "--side", "up",
                "--ell", "0.245", "--paths", "4000", "--horizon", "10",
                "--dt", "0.05", "--seed", "7",
            ],
        )
        assert code == 0
        assert rows[0]["estimator"] == "tilted"
        assert float(rows[0]["theta"]) == pytest.approx(2.0 / 7.0, abs=1e-9)

    def test_log_laplace_mode(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys,
            [
                "simulate", "--model", model_file(BS), "--theta", "0.5",
                "--paths", "4000", "--horizon", "10", "--dt", "0.05", "--seed", "7",
            ],
        )
        assert code == 0
        assert rows[0]["estimator"] == "log_laplace"
        assert float(rows[0]["estimate"]) == pytest.approx(0.125, abs=0.02)

    def test_output_file(self, model_file, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "simulate", "--model", model_file(BS), "--theta", "0", "--paths", "100",
                "--horizon", "2", "--dt", "0.1", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("estimator,")


class TestVerify:
    def test_bs_end_to_end_passes(self, model_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--side", "up", "--ell", "0.245",
                "--paths", "20000", "--horizon", "40", "--dt", "0.05", "--seed", "11",
            ],
        )
        assert payload["passed"], payload
        assert code == 0
        names = {c["name"] for c in payload["rows"]}
        assert "per_horizon_vs_gaussian_oracle" in names
        assert "empirical_chebyshev" in names

    def test_theta_zero_trivially_passes(self, model_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--theta", "0",
                "--paths", "500", "--horizon", "5", "--dt", "0.1", "--seed", "3",
            ],
        )
        assert code == 0 and payload["passed"]

    def test_theta_mode_with_fixed_fraction_reads_exact_value(self, model_file, capsys):
        # with --pi on Black-Scholes the reference is the closed form at that fraction
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--theta", "0.3", "--pi", "2",
                "--paths", "2000", "--horizon", "4", "--dt", "0.1",
            ],
        )
        assert code == 0
        (row,) = payload["rows"]
        assert row["exact_reference"] is True
        assert row["dual_value"] == models.bs_gamma(models.model_from_dict(BS), 0.3, 2.0)

    @pytest.mark.parametrize("side, theta", [("up", "-0.5"), ("down", "0.5")])
    def test_theta_mode_reference_is_the_curve_at_theta(self, model_file, capsys, side, theta):
        # the reference is Lambda(theta) whichever side is named
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--side", side, f"--theta={theta}",
                "--paths", "4000", "--horizon", "10", "--dt", "0.05", "--seed", "20240",
            ],
        )
        (row,) = payload["rows"]
        t = float(theta)
        assert row["dual_value"] == pytest.approx(0.125 * t / (1.0 - t), rel=1e-15)
        assert code == 0 and payload["passed"], payload

    @pytest.mark.parametrize("record", [PR, LG, LG05], ids=["ou", "factor", "factor05"])
    def test_theta_mode_fixed_fraction_needs_black_scholes(
        self, model_file, capsys, monkeypatch, record
    ):
        # Lambda is the optimal policy's value: a fixed fraction has no reference
        # here, so no path is stepped
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main(
            ["verify", "--model", model_file(record), "--theta", "0.3", "--pi", "0.1",
             "--paths", "500", "--horizon", "4", "--dt", "0.1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: verify --theta takes --pi only on the Black-Scholes model\n"

    def test_wrong_policy_flags_suboptimality(self, model_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--side", "up", "--ell", "0.245",
                "--pi", "10", "--paths", "20000", "--horizon", "20",
                "--dt", "0.05", "--seed", "13", "--grid", "5:20:3",
            ],
        )
        gap = next(c for c in payload["rows"] if c["name"] == "optimality_gap")
        assert gap["suboptimal"] is True
        assert gap["slope"] < -0.02

    def test_downside_wrong_policy_flags_suboptimality(self, model_file, capsys):
        # downside, a suboptimal policy's tail decays more slowly: its slope is above v
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(PR), "--side", "down", "--ell", "0.05",
                "--pi", "0.1", "--tilt", "0", "--paths", "2000", "--horizon", "20",
                "--dt", "0.05", "--seed", "3",
            ],
        )
        gap = next(c for c in payload["rows"] if c["name"] == "optimality_gap")
        assert gap["suboptimal"] is True
        assert gap["slope"] > gap["v"] + 0.02


    def test_upside_tilted_verify_simulates_direct_sample_once(
        self, model_file, capsys, monkeypatch
    ):
        calls = []
        original = mc.simulate_paths

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "simulate_paths", counting)
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--side", "up", "--ell", "0.245",
                "--tilt", "auto", "--paths", "2000", "--horizon", "8", "--dt", "0.1",
                "--seed", "11",
            ],
        )
        assert code in (0, 1)
        names = {c["name"] for c in payload["rows"]}
        assert {"empirical_chebyshev", "tilted_vs_direct_agreement"} <= names
        assert len(calls) == 1 and calls[0].horizon == 8.0

    def test_agreement_check_reads_the_fit_row_at_the_horizon(
        self, model_file, capsys, monkeypatch
    ):
        # one tilted run serves every fit horizon, and a direct sample runs on
        # a substream of its own that no fit row reads
        runs = []
        original = mc._run_paths

        def recording(*args, **kwargs):
            tilted = kwargs.get("theta_tilt") is not None
            runs.append((tilted, kwargs.get("substream", 0), args[2].horizon))
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_run_paths", recording)
        code, payload = run_json(
            capsys,
            [
                "verify", "--model", model_file(BS), "--side", "up", "--ell", "0.245",
                "--tilt", "auto", "--paths", "2000", "--horizon", "8", "--dt", "0.1",
                "--seed", "11",
            ],
        )
        assert code in (0, 1)
        assert sorted(runs) == [(False, 3, 8.0), (True, 0, 8.0)]
        rows = {c["name"]: c for c in payload["rows"]}
        estimates = rows["per_horizon_vs_gaussian_oracle"]["estimates"]
        assert len(estimates) == 3
        assert rows["tilted_vs_direct_agreement"]["tilted"] == estimates[-1]

    def test_unreachable_target_expects_zero_hits(self, model_file, capsys):
        # below Lambda'(-inf) = 0 the all-cash policy keeps L = 0 > ell*T on every path
        code, payload = run_json(
            capsys,
            ["verify", "--model", model_file(BS), "--side", "down", "--ell=-0.01",
             "--paths", "500", "--horizon", "4", "--dt", "0.1"],
        )
        assert code == 0 and payload["passed"]
        assert payload["rows"] == [
            {"name": "unreachable_target_zero_hits", "passed": True, "estimate": 0.0, "v": "-inf"}
        ]
        assert payload["diagnostics"]["sim_runs"] == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_diagnostics_count_the_simulated_work(self, model_file, capsys, fmt):
        # the fit's one run to T and the direct sample at T: n * (T + T) / dt path-steps
        argv = ["verify", "--model", model_file(BS), "--side", "up", "--ell", "0.245",
                "--tilt", "auto", "--paths", "2000", "--horizon", "8", "--dt", "0.1",
                "--seed", "11"]
        if fmt == "json":
            code, payload = run_json(capsys, argv)
            diag = payload["diagnostics"]
        else:
            code, _, out = run_csv(capsys, argv)
            diag = dict(ln[2:].split("=", 1) for ln in out.splitlines() if ln.startswith("# "))
        assert code in (0, 1)
        assert int(diag["path_steps"]) == 2000 * (8 + 8) * 10
        assert int(diag["sim_runs"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--side", "up", "--ell", "0.6"],
            ["verify", "--side", "down", "--ell", "0.1"],
            ["simulate", "--side", "up", "--ell", "0.6"],
            ["simulate", "--side", "up", "--ell", "0.6", "--tilt", "0.1"],
        ],
        ids=["verify-up", "verify-down", "simulate-auto", "simulate-fixed-tilt"],
    )
    @pytest.mark.parametrize("record", [BS, LG], ids=["bs", "factor"])
    def test_rate_computed_at_most_once(self, model_file, capsys, monkeypatch, argv, record):
        calls = []
        original = models.rate_for_target

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(models, "rate_for_target", counting)
        code = main(
            argv[:1] + ["--model", model_file(record)] + argv[1:]
            + ["--paths", "500", "--horizon", "4", "--dt", "0.1", "--seed", "2"]
        )
        assert code in (0, 1)
        assert len(calls) <= 1

    @pytest.mark.parametrize("side, theta", [("up", "0.2"), ("down", "-1")])
    def test_theta_mode_reads_one_curve_value(self, model_file, capsys, monkeypatch, side, theta):
        calls = []
        original = models.lg1d_gamma

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(models, "lg1d_gamma", counting)
        code = main(
            ["verify", "--model", model_file(LG), "--side", side, f"--theta={theta}",
             "--paths", "500", "--horizon", "4", "--dt", "0.1", "--seed", "2"]
        )
        assert code in (0, 1)
        assert len(calls) == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["simulate", "--theta", "0.5", "--pi", "5", "--paths", "100000000000",
              "--horizon", "1", "--dt", "1"], mc, "_run_paths"),
            (["frontier", "--grid", "0.1:0.2:100000000000"], cli, "_parse_grid"),
        ],
        ids=["simulate-paths", "frontier-grid"],
    )
    def test_memory_error_is_config_error(
        self, model_file, capsys, monkeypatch, argv, module, name
    ):
        # the patched allocation fails at once; nothing large is allocated
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(module, name, too_large)
        code = main(argv[:1] + ["--model", model_file(BS)] + argv[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate")
        assert "Traceback" not in err

    def test_verification_failure_is_exit_one(self, model_file, capsys):
        # a constant-fraction override does not reach the factor model's
        # optimal downside decay rate: its tail probability does not decay
        code = main(
            [
                "verify", "--model", model_file(PR), "--side", "down", "--ell", "0.05",
                "--pi", "0.1", "--tilt", "0", "--paths", "2000", "--horizon", "20",
                "--dt", "0.05", "--seed", "3",
            ]
        )
        assert code == 1

    def test_horizon_grid_is_verify_only(self, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", model_file(BS), "--ell", "0.2", "--grid=1:2:3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid=1:2:3" in capsys.readouterr().err

    def test_frontier_needs_a_target(self, model_file, capsys):
        assert main(["frontier", "--model", model_file(BS)]) == 2
        assert capsys.readouterr().err == "config error: frontier needs --grid or --ell\n"

    def test_module_runs_as_a_script(self):
        done = subprocess.run(
            [sys.executable, "-m", "growthtail.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: growthtail")

    def test_missing_model_file(self, capsys):
        assert main(["dual", "--model", "/nonexistent.json", "--grid", "0:0.5:3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--grid", "oops"],
            ["dual", "--grid", "0:nan:3"],
            ["frontier", "--grid", "0.1:inf:3"],
            ["frontier", "--grid", "nan:0.3:3"],
            ["dual", "--grid=-inf:0.5:3"],
            ["verify", "--ell", "0.2", "--grid", "1:inf:3", "--paths", "100"],
        ],
        ids=["oops", "dual-nan-upper", "inf-upper", "nan-lower", "inf-lower", "verify-horizons"],
    )
    def test_malformed_grid(self, model_file, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv[:1] + ["--model", model_file(BS)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert "bad grid spec" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"b": 0.1}, "unrecognized model record"),
            ({"b": None, "sigma": 0.2}, "finite real number"),
            ({"b": math.nan, "sigma": 0.2}, "finite real number"),
            ({"b": True, "sigma": 0.2}, "finite real number"),
            ({"b": "0.1", "sigma": 0.2}, "finite real number"),
            ({"b": 0.1, "sigma": math.inf}, "finite real number"),
            ({"b": 10**400, "sigma": 0.2}, "finite real number"),
            ({**LG, "rho": [0.0]}, "finite real number"),
            ({**MD1, "B0": [math.nan]}, "finite real number"),
            ({**MD1, "K": [[True]]}, "finite real number"),
        ],
        ids=[
            "missing-field", "null", "nan", "bool", "string", "inf", "huge-int", "list",
            "matrix-nan", "matrix-bool",
        ],
    )
    def test_bad_model_record(self, model_file, capsys, record, message):
        command, grid = ("riccati", "0:0.4:3") if "gamma" in record else ("dual", "0:0.5:3")
        assert main([command, "--model", model_file(record), "--grid", grid]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, grid, text",
        [
            ("dual", "0:0.5:3", "[" * 100000),
            ("riccati", "0:0.4:3",
             json.dumps({**MD1, "K": 0}).replace('"K": 0', '"K": ' + "[" * 900 + "-1" + "]" * 900)),
        ],
        ids=["json", "matrix-field"],
    )
    def test_deeply_nested_model_file(self, tmp_path, capsys, command, grid, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main([command, "--model", str(path), "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--grid", "0:0.4:3"],
            ["frontier", "--ell", "0.2"],
            ["simulate", "--ell", "0.2", "--paths", "100", "--horizon", "1", "--dt", "0.1"],
            ["verify", "--ell", "0.2", "--paths", "100", "--horizon", "1", "--dt", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_matrix_model_rejected(self, model_file, capsys, argv):
        assert main(argv[:1] + ["--model", model_file(MD2)] + argv[1:]) == 2
        assert "use the 'riccati' command" in capsys.readouterr().err

    @pytest.mark.parametrize("tilt", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("record", [BS, LG], ids=["bs", "factor"])
    def test_non_finite_tilt(self, model_file, capsys, monkeypatch, record, command, tilt):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before the tilt was checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main(
            [command, "--model", model_file(record), "--ell", "0.6", f"--tilt={tilt}",
             "--paths", "100", "--horizon", "4", "--dt", "0.1"]
        )
        assert code == 2
        assert "theta_tilt must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "record, ell, tilt", [(LG05, "0.5", "0.5"), (BS, "0.6", "1.5")], ids=["factor", "bs"]
    )
    def test_tilt_past_domain_boundary(self, model_file, capsys, monkeypatch, command, record, ell,
                                       tilt):
        # theta_bar is about 0.403 for the factor model and 1 for BS
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before the tilt was checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main([command, "--model", model_file(record), "--ell", ell, "--tilt", tilt,
                     "--paths", "100", "--horizon", "4", "--dt", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: theta_tilt={tilt} lies outside the model's domain")

    def test_overflowing_policy_is_a_numerical_failure(self, model_file, capsys):
        # lg_rho05's C and D overflow at theta = -1e308: the policy is never built
        record = {"K": -1.2, "B1": 0.8, "B0": 0.4, "sigma_norm": 0.9, "gamma_norm": 1.1, "rho": 0.5}
        code = main(["simulate", "--model", model_file(record), "--theta=-1e308",
                     "--paths", "100", "--horizon", "1", "--dt", "0.1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: OverflowError")

    def test_blowup_without_numpy_warnings(self, model_file, capsys):
        # sigma'pi overflows at the first step; only the finiteness check reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--model", model_file({"b": 1e-300, "sigma": 1e300}),
                         "--side", "down", "--ell", "0.125", "--tilt=-0.5", "--pi", "1e10",
                         "--paths", "100", "--horizon", "1", "--dt", "0.1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: NumericalBlowup")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--horizon", "inf"], "horizon must be positive and finite"),
            (["--horizon=1e300"], "2**32 or more steps"),
            (["--horizon", "1e12", "--dt", "1e-3"], "2**32 or more steps"),
            (["--dt", "nan"], "dt must be finite"),
        ],
        ids=["inf", "1e300", "1e15-steps", "nan-dt"],
    )
    def test_bad_horizon(self, model_file, capsys, monkeypatch, extra, message):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before the horizon was checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        argv = ["simulate", "--model", model_file(BS), "--theta", "0.5", "--pi", "5"]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "record, theta, bar",
        [(BS, "1.5", "1.0"), (BS, "1.0", "1.0"), (LG05, "0.99", "0.4034311012728278")],
        ids=["bs-past", "bs-at", "factor05-past"],
    )
    def test_theta_at_or_past_theta_bar(self, model_file, capsys, monkeypatch, command, record,
                                        theta, bar):
        # the tilt is the user's, as for --tilt and a dual grid: bad input, not a DomainError
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before theta was checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main([command, "--model", model_file(record), "--theta", theta,
                     "--paths", "100", "--horizon", "4", "--dt", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --theta {float(theta)} reaches theta_bar={bar}")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_theta_past_theta_bar_with_fixed_fraction(self, model_file, capsys, command):
        # a fixed fraction's log-Laplace value is finite past theta_bar (bs_gamma)
        code = main([command, "--model", model_file(BS), "--theta", "1.5", "--pi", "0.1",
                     "--paths", "200", "--horizon", "1", "--dt", "0.1"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("pi", [["--pi", "5"], []], ids=["pi", "policy"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_non_finite_theta(self, model_file, capsys, monkeypatch, command, pi, theta):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before theta was checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main(
            [command, "--model", model_file(BS), f"--theta={theta}", *pi,
             "--paths", "100", "--horizon", "4", "--dt", "0.1"]
        )
        assert code == 2
        assert "--theta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:1:3", "2:2:5"])
    def test_repeated_horizons_rejected(self, model_file, capsys, monkeypatch, grid):
        # equal horizons leave the decay-rate fit no slope to take
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped before the horizons were checked")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main(["verify", "--model", model_file(BS), "--ell", "0.2", "--grid", grid,
                     "--paths", "100", "--dt", "0.1"])
        assert code == 2
        assert "at least 3 distinct horizons" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("record", [BS, LG, PR], ids=["bs", "factor", "ou"])
    def test_infinite_target(self, model_file, capsys, monkeypatch, record, command):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths stepped for an infinite target")

        monkeypatch.setattr(mc, "_run_paths", no_paths)
        code = main([command, "--model", model_file(record), "--ell", "inf",
                     "--paths", "100", "--horizon", "4", "--dt", "0.1"])
        assert code == 2
        assert capsys.readouterr().err == "config error: target is not finite\n"

    def test_numerical_failure(self, model_file, capsys):
        # hopeless exponential-moment request collapses the weights
        code = main(
            [
                "simulate", "--model", model_file(BS), "--theta", "25",
                "--pi", "5", "--paths", "1000", "--horizon", "10",
                "--dt", "0.1", "--seed", "5",
            ]
        )
        assert code == 3


# each flag is drawn from ordinary values seven times in eight and otherwise
# from malformed ones (nan, +-inf, zero, negatives, text); the ordinary
# horizons and steps keep every accepted run at 1000 steps or fewer
TARGETS = (["0.05", "0.2", "0.245", "0.5", "1", "-0.3"],
           ["nan", "inf", "-inf", "0", "1e300", "-1e300", "x"])
TILTS = (["-1", "-0.3", "0.2", "0.5", "0.99"], ["nan", "inf", "-inf", "0", "1", "3", "-1e300", "x"])
FRACTIONS = (["0.5", "2.5", "-1"], ["nan", "inf", "-inf", "0", "x"])
GRID_BOUNDS = (["-2", "-0.5", "0", "0.1", "0.3", "0.7", "1"],
               ["nan", "inf", "-inf", "1e300", "-1e300", "x"])
GRID_SIZES = (["1", "3", "7", "50"], ["0", "-1", "x"])
HORIZONS = (["0.5", "1", "2.5"], ["nan", "inf", "-1", "0"])
STEPS = (["0.01", "0.1", "0.5"], ["nan", "inf", "-0.1", "0", "3"])
PATHS = (["2", "50", "500"], ["x", "nan", "-5", "0", "1"])
SEEDS = (["0", "7", str(2**70)], ["-1", "x"])
MODES = (["auto", "0", "-0.5", "0.3"], ["nan", "inf", "-inf", "x"])
HORIZON_GRIDS = (["0.5:2:3", "1:2.5:4"], ["1:1:3", "0:2:3", "-1:2:3", "1:nan:3", "2:0.5:3"])
SCALAR_RECORDS = {"bs": BS, "ou": PR, "factor": LG, "factor-rho05": LG05}
MATRIX_RECORDS = {"matrix-m1": MD1, "matrix-m2": MD2}
BAD_RECORDS = {
    "nan-field": {"b": math.nan, "sigma": 0.2},
    "inf-field": {**LG, "B1": math.inf},
    "string-field": {"K": -0.5, "sigma_norm": "0.2"},
    "missing-field": {k: v for k, v in LG.items() if k != "rho"},
    "out-of-range": {**LG, "rho": 2.0},
    "bad-shape": {**MD1, "B1": [[1.0, 2.0]]},
    "matrix-nan": {**MD2, "gamma": [[math.nan] * 4, [0.0, 0.01, 0.0, 0.7]]},
    "not-an-object": [0.1, 0.2],
}


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_models")
    paths = {"missing-file": str(root / "missing.json")}
    for name, record in {**SCALAR_RECORDS, **MATRIX_RECORDS, **BAD_RECORDS}.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(record))
    (root / "not-json.json").write_text("{b: 0.1")
    paths["not-json"] = str(root / "not-json.json")
    return paths


def _pick(draw, values: tuple) -> str:
    good, bad = values
    return draw(st.sampled_from(good if draw(st.integers(0, 7)) else bad))


@st.composite
def cli_argvs(draw):
    """argv of one command, with the model given by its name in ``fuzz_models``."""
    command = draw(st.sampled_from(["dual", "frontier", "riccati", "simulate", "verify"]))
    fit = MATRIX_RECORDS if command == "riccati" else SCALAR_RECORDS
    misfit = [*BAD_RECORDS, "missing-file", "not-json",
              *(SCALAR_RECORDS if command == "riccati" else MATRIX_RECORDS)]
    argv = [command, "--model", _pick(draw, (sorted(fit), misfit))]
    if command not in ("dual", "riccati"):
        argv += ["--side", draw(st.sampled_from(["up", "down"]))]
    grid = ":".join([_pick(draw, GRID_BOUNDS), _pick(draw, GRID_BOUNDS), _pick(draw, GRID_SIZES)])
    if command in ("dual", "riccati"):
        return argv + [f"--grid={grid}"]
    if command == "frontier":
        return argv + [f"--ell={_pick(draw, TARGETS)}" if draw(st.booleans()) else f"--grid={grid}"]
    argv += [f"--paths={_pick(draw, PATHS)}", f"--horizon={_pick(draw, HORIZONS)}",
             f"--dt={_pick(draw, STEPS)}", f"--seed={_pick(draw, SEEDS)}",
             f"--tilt={_pick(draw, MODES)}"]
    target = draw(st.sampled_from(["--ell", "--ell", "--theta", "--theta", None]))
    if target is not None:
        argv.append(f"{target}={_pick(draw, TARGETS if target == '--ell' else TILTS)}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--pi={_pick(draw, FRACTIONS)}")
    if command == "verify" and draw(st.booleans()):
        argv.append(f"--grid={_pick(draw, HORIZON_GRIDS)}")
    return argv


def _has_nan(value) -> bool:
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_nan(v) for v in value)
    return value == "nan" or (isinstance(value, float) and math.isnan(value))


class TestFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_input_ends_in_a_known_exit_code(self, fuzz_models, data):
        argv = data.draw(cli_argvs(), label="argv")
        argv[2] = fuzz_models[argv[2]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--format", "json"])
            except SystemExit as exc:  # argparse rejects a malformed flag
                code = exc.code
        assert code in (0, 1, 2, 3), err.getvalue()
        if code in (0, 1):
            for row in json.loads(out.getvalue())["rows"]:
                assert row.get("error") or not _has_nan(row), row

    def test_nan_target_with_fixed_policy(self, model_file, capsys):
        # no rate is computed for --tilt 0 with --pi, so the target is checked on its own
        code = main(["simulate", "--model", model_file(BS), "--ell", "nan", "--tilt", "0",
                     "--pi", "1", "--paths", "50", "--horizon", "1", "--dt", "0.1"])
        assert code == 2
        assert capsys.readouterr().err == "config error: target is NaN\n"

    @pytest.mark.parametrize("record", [BS, PR, LG], ids=["bs", "ou", "factor"])
    def test_extreme_downside_tilt(self, model_file, capsys, record):
        # a finite tilt at which the closed forms overflow: a numerical failure, not a NaN row
        code = main(["dual", "--model", model_file(record), "--grid=-1e300:-1e300:1",
                     "--format", "json"])
        assert code in (0, 3)
        if code == 0:
            assert not _has_nan(json.loads(capsys.readouterr().out)["rows"])


def sanitize(value):
    """Reference: a JSON-ready copy, non-finite floats as their token strings."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return sanitize(float(value))
    return value


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -1.5e-310, math.nan, math.inf, -math.inf, 1e308]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(),
    st.text(st.characters(max_codepoint=0x9F)),  # control characters and DEL
    st.text(st.characters(min_codepoint=0x80)),  # non-ASCII, astral planes included
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonOutput:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(payload=st.dictionaries(st.text(max_size=6), _VALUES, max_size=5))
    def test_bytes_of_json_dumps(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_output(payload, [], "json", None)
        assert out.getvalue() == json.dumps(sanitize(payload), indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [np.bool_(True), object(), np.zeros(2), {1, 2}, b"bytes", 1 + 2j, {1: 2.0}],
        ids=["numpy-bool", "object", "array", "set", "bytes", "complex", "int-key"],
    )
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            cli._write_output({"rows": [{"x": [value]}]}, [], "json", None)
