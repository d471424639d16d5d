"""Command-line front end: dual curves, rate frontiers, Riccati sweeps,
simulation estimates, and Monte-Carlo verification reports.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import duality, mc, models, riccati
from .duality import Regime, Side
from .errors import BeyondSteepLimit, GrowthTailError, TargetOutOfRange

_CONFIG_ERRORS = (ValueError, TargetOutOfRange, BeyondSteepLimit, OSError)


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except (ValueError, TypeError):
        raise ValueError(f"bad grid spec {spec!r}, expected a:b:n") from None
    if n < 1:
        raise ValueError("grid must have at least one point")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bad grid spec {spec!r}: bounds must be finite")
    return [float(x) for x in np.linspace(a, b, n)]


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except RecursionError:
            raise ValueError(f"model file {path!r} nests too deeply") from None
    return models.model_from_dict(record)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal, "-inf" for -infinity
    return str(value)


def _sanitize(value):
    """JSON-ready copy: non-finite floats become their token strings."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _sanitize(float(value))
    return value


def _write_output(payload: dict, columns: list[str], fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(_sanitize(payload), indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in payload["rows"]:
            writer.writerow([_cell(row.get(c)) for c in columns])
        for key, value in payload.get("diagnostics", {}).items():
            buf.write(f"# {key}={_cell(value)}\n")
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _policy_scalars(policy) -> tuple[float, float]:
    gain = np.asarray(policy.gain, dtype=float).reshape(-1)
    intercept = np.asarray(policy.intercept, dtype=float).reshape(-1)
    return float(gain[0]) if gain.size else 0.0, float(intercept[0])


# ---------------------------------------------------------------------------
# subcommands: each maps (model, side, args) to (payload, columns) for main
# ---------------------------------------------------------------------------


def cmd_dual(model, side: None, args):
    grid = _parse_grid(args.grid)
    curve = models.dual_curve(model, Side.UPSIDE)  # one curve for tilts of either sign
    if max(grid) >= curve.theta_bar:
        raise ValueError(f"tilt grid reaches theta_bar={curve.theta_bar}; tilts must lie below it")
    samples = [(curve.value(t), curve.deriv(t)) for t in grid]
    rows = [{"theta": t, "lambda": v, "lambda_prime": d} for t, (v, d) in zip(grid, samples)]
    diag = duality.check_curve(curve, grid, samples=samples)
    payload = {
        "command": "dual",
        "rows": rows,
        "diagnostics": {
            "value_at_zero": diag.value_at_zero,
            "convexity_violation": diag.convexity_violation,
            "monotonicity_violation": diag.monotonicity_violation,
            "convex_ok": diag.ok,
        },
    }
    return payload, ["theta", "lambda", "lambda_prime"]


def cmd_frontier(model, side: Side, args):
    grid = _parse_grid(args.grid) if args.grid else [args.ell]
    if grid == [None]:
        raise ValueError("frontier needs --grid or --ell")
    rows = []
    for point in duality.frontier(models.dual_curve(model, side), grid):
        if point.error is not None:
            rows.append(
                {"ell": point.target, "theta": None, "v": None, "policy_gain": None,
                 "policy_intercept": None, "regime": None, "error": point.error}
            )
            continue
        policy = models.policy_for_target(model, point.target, side, rate=point.rate)
        gain, intercept = _policy_scalars(policy)
        rows.append(
            {
                "ell": point.target,
                "theta": point.rate.tilt,
                "v": point.rate.as_float(),
                "policy_gain": gain,
                "policy_intercept": intercept,
                "regime": point.rate.regime.value,
                "error": None,
            }
        )
    payload = {"command": "frontier", "side": args.side, "rows": rows}
    return payload, ["ell", "theta", "v", "policy_gain", "policy_intercept", "regime", "error"]


def cmd_riccati(model, side: None, args):
    grid = _parse_grid(args.grid)
    sweep = riccati.theta_sweep(model, grid)
    m = model.m
    c_cols = [f"c_{i}_{j}" for i in range(m) for j in range(m)]
    d_cols = [f"d_{i}" for i in range(m)]
    rows = []
    for pt in sweep.points:
        row = {
            "theta": pt.theta,
            "gamma": pt.gamma,
            "residual": pt.residual,
            "eig_max_real": pt.eig_max_real,
            "ok": pt.ok,
            "error": pt.error,
        }
        flatC = pt.quad.C.reshape(-1) if pt.quad is not None else [None] * (m * m)
        flatD = pt.quad.D if pt.quad is not None else [None] * m
        row.update({c: (float(v) if v is not None else None) for c, v in zip(c_cols, flatC)})
        row.update({c: (float(v) if v is not None else None) for c, v in zip(d_cols, flatD)})
        rows.append(row)
    payload = {
        "command": "riccati",
        "rows": rows,
        "diagnostics": {"empirical_theta_bar": sweep.breakdown_theta},
    }
    return payload, ["theta", "gamma", "residual", "eig_max_real", "ok", "error"] + c_cols + d_cols


def _resolve_tilt(rate, tilt_arg: str) -> Optional[float]:
    """The tilt for --tilt: the target's conjugate tilt for 'auto', None for direct."""
    if tilt_arg == "auto":
        return rate.tilt if rate.regime is Regime.INTERIOR else None
    value = float(tilt_arg)
    return value if value != 0.0 else None


def _build_policy(model, side: Side, args, rate=None):
    if args.pi is not None:
        return models.FeedbackPolicy(gain=0.0, intercept=args.pi)
    if args.ell is not None:
        return models.policy_for_target(model, args.ell, side, rate=rate)
    return models.policy_at_tilt(model, args.theta)


def _require_target(args, usage: str) -> None:
    """--ell other than NaN or a finite --theta, checked before any path is stepped."""
    if args.ell is None and args.theta is None:
        raise ValueError(usage)
    if args.ell is None and not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    if args.ell is not None and math.isnan(args.ell):
        raise ValueError("target is NaN")


def cmd_simulate(model, side: Side, args):
    _require_target(args, "simulate needs --ell (tail probability) or --theta (log-Laplace)")
    cfg = mc.SimConfig(horizon=args.horizon, dt=args.dt, n_paths=args.paths, seed=args.seed)
    auto = args.ell is not None and args.tilt == "auto"  # one rate for the tilt and the policy
    rate = models.rate_for_target(model, args.ell, side) if auto else None
    policy = _build_policy(model, side, args, rate)
    if args.ell is not None:
        tilt = _resolve_tilt(rate, args.tilt)
        if tilt is not None:
            res = mc.tilted_estimate_prob(model, policy, tilt, args.ell, side, cfg)
            estimator = "tilted"
        else:
            sample = mc.simulate_paths(model, policy, cfg)
            res = mc.estimate_prob(sample, args.ell, side)
            estimator = "direct"
        theta_out = tilt
    else:
        sample = mc.simulate_paths(model, policy, cfg)
        res = mc.estimate_log_laplace(sample, args.theta)
        estimator = "log_laplace"
        theta_out = args.theta
    row = {
        "estimator": estimator,
        "T": cfg.horizon,
        "theta": theta_out,
        "ell": args.ell,
        "estimate": res.estimate,
        "se": res.std_error,
        "ess": res.extras.get("ess"),
        "n_paths": res.n_paths,
        "seed": cfg.seed,
    }
    payload = {"command": "simulate", "rows": [row]}
    return payload, ["estimator", "T", "theta", "ell", "estimate", "se", "ess", "n_paths", "seed"]


def _verify_ell(model, side: Side, args, checks: list) -> None:
    ell = args.ell
    rate = models.rate_for_target(model, ell, side)
    v = rate.as_float()
    horizons = _parse_grid(args.grid) if args.grid else [args.horizon / 4, args.horizon / 2, args.horizon]
    policy = _build_policy(model, side, args, rate)
    tilt = _resolve_tilt(rate, args.tilt)
    cfg = mc.SimConfig(horizon=max(horizons), dt=args.dt, n_paths=args.paths, seed=args.seed)

    if rate.regime is Regime.UNREACHABLE:
        sample = mc.simulate_paths(model, policy, cfg)
        res = mc.estimate_prob(sample, ell, side)
        checks.append(
            {
                "name": "unreachable_target_zero_hits",
                "passed": res.estimate <= 2.0 / cfg.n_paths,
                "estimate": res.estimate,
                "v": "-inf",
            }
        )
        return

    fit = mc.rate_fit(model, policy, ell, side, horizons, cfg, theta_tilt=tilt)
    is_bs = isinstance(model, models.BlackScholesModel)
    pi_const = _policy_scalars(policy)[1]

    if is_bs:
        oracle = [models.bs_prob_exact(model, pi_const, ell, T, side) for T in horizons]
        per_T_ok = all(
            abs(row.result.estimate - p) <= 3.0 * max(row.result.std_error, 1e-12)
            for row, p in zip(fit.rows, oracle)
        )
        checks.append(
            {
                "name": "per_horizon_vs_gaussian_oracle",
                "passed": per_T_ok,
                "estimates": [row.result.estimate for row in fit.rows],
                "oracle": oracle,
            }
        )
        oracle_slope = mc._ls_line(horizons, np.log(oracle))[0]
        slope_ok = abs(fit.slope - oracle_slope) <= 0.25 * abs(oracle_slope)
        checks.append(
            {
                "name": "decay_slope_vs_exact_oracle",
                "passed": slope_ok,
                "slope": fit.slope,
                "oracle_slope": oracle_slope,
                "band": 0.25,
            }
        )
    else:
        band = max(0.35 * abs(v), 0.02)
        checks.append(
            {
                "name": "decay_slope_vs_rate",
                "passed": abs(fit.slope - v) <= band,
                "slope": fit.slope,
                "v": v,
                "band": band,
            }
        )

    # one direct sample, on its own substream, serves the Chebyshev and agreement checks
    if side is Side.UPSIDE or tilt is not None:
        sample = mc.simulate_paths(model, policy, cfg, substream=len(horizons))
    if side is Side.UPSIDE:
        theta_cheb = tilt if tilt is not None else 0.0
        checks.append(
            {
                "name": "empirical_chebyshev",
                "passed": mc.empirical_chebyshev_check(sample, max(theta_cheb, 0.0), ell),
            }
        )

    if tilt is not None:
        direct = mc.estimate_prob(sample, ell, side)
        if direct.estimate >= 0.05:
            tilted = next(r.result for r in fit.rows if r.horizon == cfg.horizon)
            combined = math.hypot(direct.std_error, tilted.std_error)
            checks.append(
                {
                    "name": "tilted_vs_direct_agreement",
                    "passed": abs(direct.estimate - tilted.estimate) <= 3.0 * combined,
                    "direct": direct.estimate,
                    "tilted": tilted.estimate,
                }
            )

    # informational: a fitted decay visibly below the dual rate flags a
    # suboptimal policy (e.g. a --pi override)
    suboptimal = fit.slope < v - max(0.35 * abs(v), 0.02)
    checks.append(
        {
            "name": "optimality_gap",
            "passed": True,
            "suboptimal": bool(suboptimal),
            "slope": fit.slope,
            "v": v,
        }
    )


def _verify_theta(model, side: Side, args, checks: list) -> None:
    theta = args.theta
    exact = isinstance(model, models.BlackScholesModel)
    if args.pi is not None and not exact:  # Lambda is the optimal policy's value
        raise ValueError("verify --theta takes --pi only on the Black-Scholes model")
    policy = _build_policy(model, side, args)
    cfg = mc.SimConfig(horizon=args.horizon, dt=args.dt, n_paths=args.paths, seed=args.seed)
    sample = mc.simulate_paths(model, policy, cfg)
    res = mc.estimate_log_laplace(sample, theta)
    if args.pi is None:
        lam = models.dual_curve(model, side).value(theta)
    else:
        lam = models.bs_gamma(model, theta, args.pi)
    band = 3.0 * res.std_error + (0.0 if exact else 2.0 / cfg.horizon)
    checks.append(
        {
            "name": "log_laplace_vs_dual_value",
            "passed": abs(res.estimate - lam) <= band,
            "estimate": res.estimate,
            "dual_value": lam,
            "band": band,
            "exact_reference": exact,
        }
    )


def cmd_verify(model, side: Side, args):
    _require_target(args, "verify needs --ell or --theta")
    checks: list[dict] = []
    with mc.counting() as stats:
        if args.ell is not None:
            _verify_ell(model, side, args, checks)
        else:
            _verify_theta(model, side, args, checks)
    payload = {
        "command": "verify",
        "passed": all(c["passed"] for c in checks),
        "rows": checks,
        "diagnostics": {"path_steps": stats.path_steps, "sim_runs": stats.sim_runs},
    }
    return payload, ["name", "passed"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, side: bool = True) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    if side:
        p.add_argument("--side", choices=("up", "down"), default="up")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(matrix=False)  # the model kind the command takes


def _add_sim_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=float, default=None, help="growth-rate target")
    p.add_argument("--theta", type=float, default=None, help="risk-sensitivity tilt")
    p.add_argument("--pi", type=float, default=None, help="constant fraction override")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--horizon", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--tilt", default="auto", help="'auto' or an explicit tilt value")


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthtail",
        description="Long-horizon growth-target duality, Riccati, and Monte-Carlo tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="tabulate the dual curve on a tilt grid")
    _add_common(p, side=False)
    p.add_argument("--grid", required=True, help="theta grid a:b:n")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("frontier", help="rate frontier over a target grid")
    _add_common(p)
    p.add_argument("--grid", default=None, help="target grid a:b:n")
    p.add_argument("--ell", type=float, default=None, help="single target")
    p.set_defaults(fn=cmd_frontier)

    p = sub.add_parser("riccati", help="matrix Riccati sweep with certificates")
    _add_common(p, side=False)
    p.add_argument("--grid", required=True, help="theta grid a:b:n")
    p.set_defaults(fn=cmd_riccati, matrix=True)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate for one target or tilt")
    _add_common(p)
    _add_sim_options(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="Monte-Carlo verification report")
    _add_common(p)
    _add_sim_options(p)
    p.add_argument("--grid", default=None, help="horizon grid a:b:n (verify only)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Load and kind-check --model, run the command, write its payload; the exit code."""
    args = build_parser().parse_args(argv)
    try:
        model = _load_model(args.model)
        if isinstance(model, riccati.LinearFactorMD) != args.matrix:
            raise ValueError(
                "the riccati command needs a matrix model file" if args.matrix else
                "this command needs a scalar model file; use the 'riccati' command for matrix models"
            )
        payload, columns = args.fn(model, Side(args.side) if "side" in args else None, args)
        _write_output(payload, columns, args.format, args.out)
        return 0 if payload.get("passed", True) else 1
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or path count too large to allocate
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, GrowthTailError) as exc:  # ArithmeticError: closed-form overflow
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
