"""Workload inputs, CLI invocation and output checks for the benchmark.

Every input (models, target and tilt grids, Monte-Carlo seeds) comes from
the workload seed; pass ``i`` of a run always gets the same commands, so
runs of different length share their first passes.  The program only sees
the generated model files and command lines, run in-process through
``growthtail.cli.main``.  The oracles used by the checks (closed-form
rates, Gaussian tails, the Hamiltonian boundary used to place tilt grids)
are computed here from the defining formulas, not by library calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("verify_bs", "verify_factor", "solve_sweep")

# The suite's lg_rho05 factor model.
LG_RHO05 = {"K": -1.2, "B1": 0.8, "B0": 0.4, "sigma_norm": 0.9, "gamma_norm": 1.1, "rho": 0.5}
BS_EXAMPLE = {"b": 0.1, "sigma": 0.2}

# Closed-form frontier rates; relative above |v| = 1, where the closed form's
# own rounding (e.g. ell - ell_lower near the OU lower limit) exceeds 1e-9.
RATE_TOL = 1e-9
RESIDUAL_CERT = 1e-9     # certified riccati rows
SE_BAND = 5.0            # verify_bs per-horizon estimates against the exact tail

# The engine's known defect: the bisection residual check fails on
# finite-difference derivatives and returns BracketFailure for some in-range
# targets.  These rows are kept apart from failed operations: they lower
# ok_rate, whose bound gates them, but not the run's failed count.
KNOWN_DEFECT = "BracketFailure"


@dataclass(frozen=True)
class Size:
    """Work per pass: ``FULL`` is the benchmark, ``TOY`` the self-test, ``WARMUP``
    the warm-up invocation of the set-up."""

    bs_paths: int
    factor_paths: int
    horizon: float
    factor_models: int
    pr_models: int
    bs_models: int
    targets: int
    riccati_m: tuple
    tilts: int


# The solve_sweep mix gives frontier and riccati invocations about equal
# time, and has as many invocations faster than the factor-model frontiers
# (BS) as slower ones (OU log-price and riccati), so the median invocation
# sits in the middle of the factor-model frontiers.
FULL = Size(bs_paths=100_000, factor_paths=20_000, horizon=20.0, factor_models=24,
            pr_models=6, bs_models=10, targets=16, riccati_m=(2, 3, 4, 5, 6, 7, 8), tilts=24)
TOY = Size(bs_paths=2_000, factor_paths=2_000, horizon=20.0, factor_models=1, pr_models=1,
           bs_models=1, targets=4, riccati_m=(2, 3), tilts=10)
WARMUP = replace(TOY, horizon=2.0)

PAST_BOUNDARY_POINTS = 1  # tilt points per riccati grid past the domain boundary
WARMUP_PASS = 2**31       # pass index of the warm-up inputs, never a timed pass


@dataclass
class Command:
    """One CLI invocation with what it requests and how to check it."""

    kind: str                 # "verify", "frontier" or "riccati"
    argv: list
    work: float               # requested path-steps, targets or tilt points
    ops: int                  # operations: 1 per verify/riccati, 1 per frontier target
    oracle: Optional[Callable] = None  # target -> (regime, rate) for frontier rows
    verify_bs: Optional[dict] = None   # model/policy data for the exact-tail check


@dataclass
class Outcome:
    code: int
    latency: float
    stdout: str
    stderr: str
    crash: Optional[str]
    captured: list


@dataclass
class Verdict:
    """Check result of one invocation."""

    failed: list = field(default_factory=list)   # one reason per failed operation
    defects: int = 0                             # KNOWN_DEFECT rows
    wrong: list = field(default_factory=list)    # outputs that are incorrect
    numbers: list = field(default_factory=list)  # numeric outputs for the digest
    verify_failed_checks: int = 0
    riccati_failed_points: int = 0
    residual_max: float = 0.0


# ---------------------------------------------------------------------------
# invocation
# ---------------------------------------------------------------------------


class Runner:
    """Runs CLI commands in-process and captures stdout, stderr and fit results.

    A thin wrapper on ``growthtail.mc.rate_fit`` keeps the per-horizon
    results of ``verify`` (their standard errors are not printed); it costs
    one extra call per verify invocation.
    """

    def __init__(self):
        from growthtail import cli, mc

        self._cli = cli
        self._mc = mc
        self._captured: list = []
        self._original = mc.rate_fit

        def capture(*args, **kwargs):
            result = self._original(*args, **kwargs)
            self._captured.append(result)
            return result

        mc.rate_fit = capture

    def close(self) -> None:
        self._mc.rate_fit = self._original

    def invoke(self, argv: list) -> Outcome:
        self._captured = []
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self._cli.main(list(argv))
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a traceback is a checked outcome
                code = -1
                crash = traceback.format_exc()
        latency = time.perf_counter() - t0
        return Outcome(code, latency, out.getvalue(), err.getvalue(), crash, self._captured)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])


def _write_model(workdir: str, name: str, record: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def _grid_arg(a: float, b: float, n: int) -> str:
    return f"--grid={a!r}:{b!r}:{n}"


def _verify_command(workload: str, size: Size, model_path: str, mc_seed: int) -> Command:
    horizon = size.horizon
    if workload == "verify_bs":
        paths, ell, dt = size.bs_paths, 0.245, 0.05
    else:
        paths, ell, dt = size.factor_paths, 1.0, 0.02
    argv = ["verify", "--model", model_path, "--ell", repr(ell), "--tilt", "auto",
            "--paths", str(paths), "--horizon", repr(horizon), "--dt", repr(dt),
            "--seed", str(mc_seed), "--format", "json"]
    horizons = [horizon / 4, horizon / 2, horizon]
    work = paths * sum(horizons) / dt
    bs = None
    if workload == "verify_bs":
        b, sigma = BS_EXAMPLE["b"], BS_EXAMPLE["sigma"]
        bs = {"b": b, "sigma": sigma, "ell": ell, "horizons": horizons,
              "pi": math.sqrt(2.0 * ell / sigma**2)}
    return Command("verify", argv, work, 1, verify_bs=bs)


def _draw_factor(rng) -> dict:
    # the parameter ranges of acceptance test_08
    return {
        "K": -float(rng.uniform(0.1, 3.0)),
        "B1": float(rng.uniform(-2.0, 2.0)),
        "B0": float(rng.uniform(0.1, 2.0)),
        "sigma_norm": float(rng.uniform(0.1, 2.0)),
        "gamma_norm": float(rng.uniform(0.1, 2.0)),
        "rho": float(rng.uniform(-1.0, 1.0)),
    }


def factor_slope_at_zero(m: dict) -> float:
    """Gamma'(0) = B0^2/(2 s^2) - g^2 B1^2/(4 s^2 K), first order of the Riccati root."""
    s2 = m["sigma_norm"] ** 2
    return m["B0"] ** 2 / (2.0 * s2) - m["gamma_norm"] ** 2 * m["B1"] ** 2 / (4.0 * s2 * m["K"])


def bs_rate(b: float, sigma: float, side: str, ell: float):
    """Closed-form conjugate of q*theta/(1-theta), q = b^2/(2 sigma^2)."""
    q = b * b / (2.0 * sigma * sigma)
    if side == "up" and ell <= q:
        return "free", 0.0
    if side == "down" and ell < 0.0:
        return "unreachable", -math.inf
    return "interior", -((math.sqrt(ell) - math.sqrt(q)) ** 2)


def pr_rate(K: float, sigma_norm: float, side: str, ell: float):
    """Rational closed forms of the OU log-price model."""
    lower = sigma_norm**2 / 8.0
    upper = abs(K) / 4.0 + lower
    if side == "up":
        if ell <= upper:
            return "free", 0.0
        return "interior", -((ell - upper) ** 2) / (ell - upper + abs(K) / 4.0)
    if ell <= lower:
        return "unreachable", -math.inf
    return "interior", -((ell - upper) ** 2) / (ell - lower)


def _frontier(path: str, side: str, a: float, b: float, n: int, oracle=None) -> Command:
    argv = ["frontier", "--model", path, "--side", side, _grid_arg(a, b, n), "--format", "json"]
    return Command("frontier", argv, n, n, oracle=oracle)


def _draw_md(rng, m: int, d: int) -> dict:
    q = d + m
    A = rng.normal(size=(m, m))
    S = rng.normal(size=(m, m))
    # -(SPD) + skew is Hurwitz: Re(v*Kv) = -v*Pv < 0 for every eigenvector
    K = -(A @ A.T / m + rng.uniform(0.2, 1.0) * np.eye(m)) + 0.5 * (S - S.T)
    return {
        "K": K.tolist(),
        "B1": rng.uniform(-1.0, 1.0, size=(d, m)).tolist(),
        "B0": (rng.uniform(0.1, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)).tolist(),
        "sigma": rng.normal(scale=0.5, size=(d, q)).tolist(),
        "gamma": rng.normal(scale=0.5, size=(m, q)).tolist(),
    }


def _stabilizing_solution_exists(rec: dict, theta: float) -> bool:
    """Hamiltonian test for the stabilizing root of C M C + Kt'C + C Kt + 2N = 0."""
    K, B1 = np.asarray(rec["K"]), np.asarray(rec["B1"])
    s, g = np.asarray(rec["sigma"]), np.asarray(rec["gamma"])
    m = K.shape[0]
    t1 = theta / (1.0 - theta)
    Sinv = np.linalg.inv(s @ s.T)
    M = g @ (np.eye(s.shape[1]) + t1 * s.T @ Sinv @ s) @ g.T
    Kt = K + t1 * g @ s.T @ Sinv @ B1
    N = 0.5 * t1 * B1.T @ Sinv @ B1
    w, V = np.linalg.eig(np.block([[Kt, M], [-2.0 * N, -Kt.T]]))
    if np.min(np.abs(w.real)) < 1e-9:
        return False
    stable = V[:, w.real < 0]
    return stable.shape[1] == m and np.linalg.cond(stable[:m]) < 1e12


def md_boundary(rec: dict) -> float:
    """Smallest positive tilt where the stabilizing Riccati solution stops existing."""
    lo = 0.0
    for theta in np.arange(0.01, 1.0, 0.01):
        if not _stabilizing_solution_exists(rec, float(theta)):
            hi = float(theta)
            break
        lo = float(theta)
    else:
        return 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _stabilizing_solution_exists(rec, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def riccati_grid(boundary: float, n: int):
    """(-2, b) grid of n tilts whose last PAST_BOUNDARY_POINTS lie beyond the boundary.

    The first point past the boundary sits half a spacing beyond it, so the
    cost of the solver's failing continuation is the same on every model.
    """
    c = (PAST_BOUNDARY_POINTS - 0.5) / (n - 1)
    return -2.0, (boundary + 2.0 * c) / (1.0 - c)


def build_pass(workload: str, seed: int, pass_index: int, workdir: str, size: Size) -> list:
    """The commands of one pass; the same (seed, pass_index) gives the same pass."""
    rng = _rng(seed, workload, pass_index)
    if workload in ("verify_bs", "verify_factor"):
        record = BS_EXAMPLE if workload == "verify_bs" else LG_RHO05
        path = _write_model(workdir, f"{workload}-{pass_index}", record)
        return [_verify_command(workload, size, path, int(rng.integers(1, 2**31)))]
    if workload != "solve_sweep":
        raise ValueError(f"unknown workload {workload!r}")

    n = size.targets
    cmds = []
    for j in range(size.factor_models):
        rec = _draw_factor(rng)
        path = _write_model(workdir, f"lg-{pass_index}-{j}", rec)
        d0 = factor_slope_at_zero(rec)
        lo, hi = rng.uniform(0.02, 0.2), rng.uniform(1.5, 3.0)
        cmds.append(_frontier(path, "up", d0 * (1 + lo), d0 * (1 + hi), n))
        cmds.append(_frontier(path, "down", d0 * (1 - hi), d0 * (1 - lo), n))
    for j in range(size.pr_models):
        rec = {"K": -float(rng.uniform(0.1, 3.0)), "sigma_norm": float(rng.uniform(0.1, 2.0))}
        path = _write_model(workdir, f"pr-{pass_index}-{j}", rec)
        lower = rec["sigma_norm"] ** 2 / 8.0
        width = abs(rec["K"]) / 4.0
        upper = lower + width

        def oracle(side, ell, K=rec["K"], s=rec["sigma_norm"]):
            return pr_rate(K, s, side, ell)

        lo, hi = rng.uniform(0.02, 0.2), rng.uniform(1.5, 3.0)
        cmds.append(_frontier(path, "up", upper + lo * width, upper + hi * width, n, oracle))
        cmds.append(_frontier(path, "down", lower - rng.uniform(0.05, 0.5) * width,
                              upper - lo * width, n, oracle))
    for j in range(size.bs_models):
        rec = {"b": float(rng.uniform(0.02, 0.3)), "sigma": float(rng.uniform(0.1, 0.6))}
        path = _write_model(workdir, f"bs-{pass_index}-{j}", rec)
        q = rec["b"] ** 2 / (2.0 * rec["sigma"] ** 2)

        def oracle(side, ell, b=rec["b"], s=rec["sigma"]):
            return bs_rate(b, s, side, ell)

        cmds.append(_frontier(path, "up", q * rng.uniform(0.3, 0.8), q * rng.uniform(2.0, 6.0),
                              n, oracle))
        cmds.append(_frontier(path, "down", -q * rng.uniform(0.2, 0.5),
                              q * (1.0 - rng.uniform(0.02, 0.2)), n, oracle))
    for m in size.riccati_m:
        rec = _draw_md(rng, m, int(rng.integers(1, 4)))
        path = _write_model(workdir, f"md-{pass_index}-{m}", rec)
        a, b = riccati_grid(md_boundary(rec), size.tilts)
        argv = ["riccati", "--model", path, _grid_arg(a, b, size.tilts), "--format", "json"]
        cmds.append(Command("riccati", argv, size.tilts, 1))
    return cmds


def warmup_command(workload: str, seed: int, workdir: str) -> Command:
    """The untimed warm-up invocation: the first command of a small pass."""
    return build_pass(workload, seed, WARMUP_PASS, workdir, WARMUP)[0]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _finite(value) -> bool:
    if isinstance(value, bool) or value is None:
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return value not in ("nan", "inf", "-inf")  # the CLI's non-finite tokens


def _numbers(value, out: list) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        out.append(float(value))
    elif isinstance(value, list):
        for v in value:
            _numbers(v, out)
    elif isinstance(value, dict):
        for k in sorted(value):
            _numbers(value[k], out)


def _tail(mean: float, sd: float, ell: float) -> float:
    return 0.5 * math.erfc((ell - mean) / sd / math.sqrt(2.0))


def check(cmd: Command, res: Outcome) -> Verdict:
    """Count failed operations and incorrect outputs of one invocation."""
    v = Verdict()
    if res.crash is not None:
        v.failed += ["traceback"] * cmd.ops
        v.wrong.append(f"{cmd.kind}: traceback {res.crash.strip().splitlines()[-1]}")
        return v
    ok_codes = (0, 1) if cmd.kind == "verify" else (0,)
    if res.code not in ok_codes:
        reason = res.stderr.strip().splitlines()[-1] if res.stderr.strip() else ""
        v.failed += [f"exit {res.code}: {reason[:80]}"] * cmd.ops
        return v
    try:
        payload = json.loads(res.stdout)
        rows = payload["rows"]
    except (ValueError, KeyError, TypeError):
        v.failed += ["unparsable output"] * cmd.ops
        v.wrong.append(f"{cmd.kind}: unparsable output")
        return v
    if cmd.kind == "verify":
        _check_verify(cmd, res, rows, v)
    elif cmd.kind == "frontier":
        _check_frontier(cmd, rows, v)
    else:
        _check_riccati(cmd, rows, v)
    return v


def _check_verify(cmd: Command, res: Outcome, rows: list, v: Verdict) -> None:
    v.verify_failed_checks = sum(1 for r in rows if not r.get("passed", False))
    _numbers(rows, v.numbers)
    problems = []
    if not _finite(rows):
        problems.append("non-finite value")
    if cmd.verify_bs is not None:
        bs = cmd.verify_bs
        est = next((r.get("estimates") for r in rows
                    if r.get("name") == "per_horizon_vs_gaussian_oracle"), None)
        fits = res.captured
        if est is None or len(fits) != 1 or len(fits[0].rows) != len(bs["horizons"]):
            problems.append("per-horizon estimates missing")
        else:
            mean = bs["b"] * bs["pi"] - bs["sigma"] ** 2 * bs["pi"] ** 2 / 2.0
            for T, e, row in zip(bs["horizons"], est, fits[0].rows):
                exact = _tail(mean, bs["sigma"] * bs["pi"] / math.sqrt(T), bs["ell"])
                se = row.result.std_error
                if row.result.estimate != e:
                    problems.append(f"T={T}: printed estimate differs from the fit")
                elif not abs(e - exact) <= SE_BAND * se:
                    problems.append(f"T={T}: estimate {e} is {abs(e - exact) / se:.1f} SE "
                                    f"from the exact tail {exact}")
    if problems:
        v.failed.append(problems[0])
        v.wrong += [f"verify: {p}" for p in problems]


def _check_frontier(cmd: Command, rows: list, v: Verdict) -> None:
    side = cmd.argv[cmd.argv.index("--side") + 1]
    if len(rows) != cmd.ops:
        v.failed += ["row count"] * cmd.ops
        v.wrong.append(f"frontier: {len(rows)} rows for {cmd.ops} targets")
        return
    for row in rows:
        ell = row.get("ell")
        v.numbers.append(ell)
        if row.get("error"):
            reason = row["error"].split(":")[0]
            if reason == KNOWN_DEFECT:
                v.defects += 1
            else:
                v.failed.append(reason)
            continue
        regime, rate = row.get("regime"), row.get("v")
        fields = [ell, row.get("theta"), row.get("policy_gain"), row.get("policy_intercept")]
        if not (regime == "unreachable" and rate == "-inf"):
            fields.append(rate)
        if not _finite(fields):
            v.failed.append("non-finite value")
            v.wrong.append(f"frontier: non-finite value in row {row}")
            continue
        _numbers(fields, v.numbers)
        if cmd.oracle is not None:
            exp_regime, exp_rate = cmd.oracle(side, ell)
            got = -math.inf if rate == "-inf" else rate
            same = (got == exp_rate if math.isinf(exp_rate)
                    else abs(got - exp_rate) <= RATE_TOL * max(1.0, abs(exp_rate)))
            if regime != exp_regime or not same:
                v.failed.append("closed-form mismatch")
                v.wrong.append(f"frontier: ell={ell} gave {regime} {rate}, "
                               f"closed form {exp_regime} {exp_rate}")


def _check_riccati(cmd: Command, rows: list, v: Verdict) -> None:
    if len(rows) != cmd.work:
        v.failed.append("row count")
        v.wrong.append(f"riccati: {len(rows)} rows for {cmd.work} tilts")
        return
    failures, wrong = [], []
    for row in rows:
        theta = row.get("theta")
        if not row.get("ok"):
            if theta is None or theta <= 0:
                failures.append(f"tilt {theta} <= 0 failed: {row.get('error')}")
            else:
                v.riccati_failed_points += 1
            continue
        values = {k: x for k, x in row.items() if k not in ("ok", "error")}
        if not _finite(values):
            wrong.append(f"non-finite value at tilt {theta}")
            continue
        if not row["residual"] <= RESIDUAL_CERT:
            wrong.append(f"residual {row['residual']} at tilt {theta}")
        if not row["eig_max_real"] < 0.0:
            wrong.append(f"closed loop not Hurwitz at tilt {theta}")
        v.residual_max = max(v.residual_max, row["residual"])
        _numbers([theta, row["gamma"]] + [row[k] for k in sorted(row)
                                          if k.startswith(("c_", "d_"))], v.numbers)
    if wrong or failures:
        v.failed.append((wrong + failures)[0])
        v.wrong += [f"riccati: {p}" for p in wrong]
