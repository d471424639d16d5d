"""End-to-end command-line tests: tables, serialization, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

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
            capsys, ["dual", "--model", model_file(BS), "--side", "up", "--grid", "0:0.5:3"]
        )
        assert code == 0
        lams = [float(r["lambda"]) for r in rows]
        assert lams[0] == 0.0
        assert lams[1] == pytest.approx(0.125 / 3.0, abs=1e-12)
        assert lams[2] == pytest.approx(0.125, abs=1e-12)
        assert "# convex_ok=true" in out

    def test_factor_downside_row(self, model_file, capsys):
        code, rows, _ = run_csv(
            capsys, ["dual", "--model", model_file(LG), "--side", "down", "--grid=-1:-1:1"]
        )
        assert code == 0
        assert float(rows[0]["lambda"]) == pytest.approx(-0.15403910236246117, abs=1e-9)


    def test_downside_factor_curve_evaluations(self, model_file, capsys, monkeypatch):
        # the grid's values and derivatives, each evaluated once and shared
        # with the convexity check, and Lambda(0); no limit of the curve is
        # read, so none is probed
        calls = []
        original = models.lg1d_gamma

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(models, "lg1d_gamma", counting)
        code, _, _ = run_csv(
            capsys, ["dual", "--model", model_file(LG05), "--side", "down", "--grid=-2:0:5"]
        )
        assert code == 0
        assert len(calls) == 17


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
        # a constant-fraction override cannot reproduce the optimal dual
        # value of the factor model
        code = main(
            [
                "verify", "--model", model_file(PR), "--side", "down", "--theta=-1",
                "--pi", "0.1", "--paths", "2000", "--horizon", "20",
                "--dt", "0.05", "--seed", "3",
            ]
        )
        assert code == 1

    def test_missing_model_file(self, capsys):
        assert main(["dual", "--model", "/nonexistent.json", "--grid", "0:0.5:3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--grid", "oops"],
            ["dual", "--side", "up", "--grid", "0:nan:3"],
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
