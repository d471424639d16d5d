"""Numerical solver for the factor-model algebraic Riccati system.

For the multi-dimensional linear Gaussian factor market (d assets, m
factors, d+m Brownian drivers) the quadratic-value reduction of the
ergodic dynamic-programming equation requires, at each risk-sensitivity
theta < 1, a symmetric m x m matrix C solving

    (1/2) C M C + (1/2)(Kt' C + C Kt) + N = 0,

with M = gamma (I + t1 s'(ss')^-1 s) gamma',  Kt = K + t1 gamma s'(ss')^-1 B1,
N = (t1/2) B1'(ss')^-1 B1 and t1 = theta/(1-theta).  The quadratic value
has a symmetric Hessian, so the one-sided linear term of the raw equation
is solved in symmetrized form; the two coincide in the scalar reduction.

Among the roots, only the one making the closed-loop factor drift
A_cl = Kt + M C Hurwitz is meaningful (the controlled factor stays
ergodic).  It is found by Newton iteration on the symmetrized equation:
each step solves the Lyapunov-type linear system

    A_cl' X + X A_cl = -2 R(C)

densely over the m^2 unknowns (desk scale, m <= 8), starting from C = 0
(exact at theta = 0, stabilizing because K is Hurwitz) and continuing in
theta with warm starts.  M can be sign-indefinite in no regime here (its
inner matrix has eigenvalues 1 and 1/(1-theta), both positive below 1),
but N flips sign with theta and no definiteness is assumed anywhere.

The linear coefficient D then solves A_cl' D = -t1 (s gamma' C + B1)'(ss')^-1 B0
directly, and the curve value Gamma(theta) and the affine feedback policy
follow in closed form from (C, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NoStabilizingSolution, SingularClosedLoop
from .models import FactorMarket, FeedbackPolicy, model_from_dict

__all__ = [
    "LinearFactorMD",
    "QuadraticValue",
    "SweepPoint",
    "SweepResult",
    "riccati_residual",
    "solve_care",
    "gamma_md",
    "policy_md",
    "theta_sweep",
    "model_from_dict",
    "solution_record",
]

_NEWTON_TOL = 1e-11      # failure threshold after the iteration budget
_NEWTON_POLISH = 1e-13   # keep iterating toward this while progress holds
_NEWTON_MAXIT = 60
_RESIDUAL_CERT = 1e-9
_HURWITZ_MARGIN = -1e-10


class LinearFactorMD(FactorMarket):
    """Multi-dimensional linear Gaussian factor market: the validated record.

    K is the m x m factor reversion (Hurwitz), B1 the d x m loading, B0
    the nonzero baseline drift, sigma the d x (d+m) asset noise of full
    row rank, gamma the nonzero m x (d+m) factor noise.
    """

    def __post_init__(self):
        super().__post_init__()
        m, d = self.m, self.d
        q = d + m
        if self.K.shape != (m, m):
            raise ValueError("K must be square")
        if self.B1.shape != (d, m):
            raise ValueError(f"B1 must be {d}x{m}")
        if self.sigma.shape != (d, q) or self.gamma.shape != (m, q):
            raise ValueError(f"sigma must be {d}x{q} and gamma {m}x{q}")
        if np.max(np.linalg.eigvals(self.K).real) >= 0:
            raise ValueError("K must be Hurwitz (eigenvalues in the open left half-plane)")
        if np.linalg.matrix_rank(self.sigma) < d:
            raise ValueError("sigma must have full row rank")
        if not np.any(self.B0):
            raise ValueError("B0 must be nonzero")
        if not np.any(self.gamma):
            raise ValueError("gamma must be nonzero")

    def quadratic_pair(self, theta: float):
        """(C, D) of the quadratic value at theta from :func:`solve_care`."""
        qv = solve_care(self, theta)
        return qv.C, qv.D


@dataclass(frozen=True, eq=False)
class QuadraticValue:
    """Quadratic-value pair: phi(y) = (1/2) y'Cy + D'y at a given tilt."""

    C: np.ndarray
    D: np.ndarray
    theta: float

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.C @ y + self.D @ y)


def _coefficients(model: LinearFactorMD, theta: float):
    if theta >= 1.0:
        raise DomainError(f"theta={theta} must be below 1")
    t1 = theta / (1.0 - theta)
    S = model.sigma @ model.sigma.T
    Sinv = np.linalg.inv(S)
    proj = model.sigma.T @ Sinv @ model.sigma
    q = model.sigma.shape[1]
    M = model.gamma @ (np.eye(q) + t1 * proj) @ model.gamma.T
    Kt = model.K + t1 * model.gamma @ model.sigma.T @ Sinv @ model.B1
    N = 0.5 * t1 * model.B1.T @ Sinv @ model.B1
    return M, Kt, N, Sinv, t1


def _residual_matrix(C: np.ndarray, M: np.ndarray, Kt: np.ndarray, N: np.ndarray) -> np.ndarray:
    return 0.5 * C @ M @ C + 0.5 * (Kt.T @ C + C @ Kt) + N


def riccati_residual(model: LinearFactorMD, theta: float, C) -> float:
    """Frobenius norm of the symmetrized Riccati left-hand side at C."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    M, Kt, N, _, _ = _coefficients(model, theta)
    R = _residual_matrix(C, M, Kt, N)
    return float(np.linalg.norm(0.5 * (R + R.T), "fro"))


def _eig_max_real(A: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(A).real))


def _newton(model: LinearFactorMD, theta: float, C0: np.ndarray) -> np.ndarray:
    """Newton iteration from C0; raises NoStabilizingSolution on failure.

    Iterates while the residual improves, polishing well below the failure
    threshold because the curve value near the domain boundary amplifies
    residual error through the nearly singular closed-loop drift.
    """
    M, Kt, N, _, _ = _coefficients(model, theta)
    m = model.m
    eye = np.eye(m)
    scale = max(1.0, float(np.linalg.norm(N, "fro")))
    C = 0.5 * (C0 + C0.T)
    best_C, best_res = C, math.inf
    prev_res = math.inf
    for _ in range(_NEWTON_MAXIT):
        R = _residual_matrix(C, M, Kt, N)
        R = 0.5 * (R + R.T)
        res = float(np.linalg.norm(R, "fro"))
        if res < best_res:
            best_C, best_res = C, res
        if res <= _NEWTON_POLISH * scale:
            break
        if res > 0.9 * prev_res and best_res <= _NEWTON_TOL * scale:
            break  # stalled inside the acceptable band
        prev_res = res
        A_cl = Kt + M @ C
        lin = np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye)
        try:
            X = np.linalg.solve(lin, (-2.0 * R).reshape(-1)).reshape(m, m)
        except np.linalg.LinAlgError as exc:
            raise NoStabilizingSolution(
                f"Newton linearization singular at theta={theta}"
            ) from exc
        X = 0.5 * (X + X.T)
        if not np.all(np.isfinite(X)):
            raise NoStabilizingSolution(f"Newton step diverged at theta={theta}")
        C = C + X
    if best_res > _NEWTON_TOL * scale:
        raise NoStabilizingSolution(
            f"Newton did not reach residual {_NEWTON_TOL} in {_NEWTON_MAXIT} "
            f"iterations at theta={theta} (best {best_res:.3e})"
        )
    if _eig_max_real(Kt + M @ best_C) > _HURWITZ_MARGIN:
        raise NoStabilizingSolution(f"converged root is not stabilizing at theta={theta}")
    return best_C


def _solve_C(model: LinearFactorMD, theta: float, warm: Optional[np.ndarray] = None) -> np.ndarray:
    """Stabilizing C(theta) by Newton with continuation in theta from 0."""
    if theta >= 1.0:
        raise DomainError(f"theta={theta} must be below 1")
    if warm is not None:
        try:
            return _newton(model, theta, warm)
        except NoStabilizingSolution:
            pass
    m = model.m
    C = np.zeros((m, m))
    if theta == 0.0:
        return C
    cur = 0.0
    sign = 1.0 if theta > 0 else -1.0
    step = min(0.1, abs(theta))
    while abs(theta - cur) > 1e-14:
        nxt = cur + sign * min(step, abs(theta - cur))
        try:
            C_next = _newton(model, nxt, C)
        except NoStabilizingSolution:
            step *= 0.5
            if step < 1e-7 * max(1.0, abs(theta)):
                raise NoStabilizingSolution(
                    f"continuation stalled at theta={cur} on the way to {theta}"
                ) from None
            continue
        C, cur = C_next, nxt
        step = min(step * 1.6, 0.2)
    return C


def solve_care(
    model: LinearFactorMD, theta: float, warm: Optional[QuadraticValue] = None
) -> QuadraticValue:
    """Stabilizing solution (C, D) of the Riccati system at the given tilt.

    Certifies the symmetrized residual (<= 1e-9) and the Hurwitz property
    of the closed-loop drift before returning; a theta at or past the dual
    domain boundary surfaces as NoStabilizingSolution.
    """
    warm_C = warm.C if warm is not None else None
    C = _solve_C(model, theta, warm=warm_C)
    M, Kt, N, Sinv, t1 = _coefficients(model, theta)
    res = riccati_residual(model, theta, C)
    if res > _RESIDUAL_CERT:
        raise NoStabilizingSolution(
            f"residual certificate failed at theta={theta}: {res:.3e}"
        )
    A_cl = Kt + M @ C
    if _eig_max_real(A_cl) > _HURWITZ_MARGIN:
        raise NoStabilizingSolution(
            f"closed-loop drift not Hurwitz at theta={theta}"
        )
    rhs = -t1 * (model.sigma @ model.gamma.T @ C + model.B1).T @ Sinv @ model.B0
    try:
        D = np.linalg.solve(A_cl.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularClosedLoop(
            f"closed-loop drift singular at theta={theta}"
        ) from exc
    return QuadraticValue(C=0.5 * (C + C.T), D=D, theta=float(theta))


def gamma_md(model: LinearFactorMD, theta: float, qv: QuadraticValue) -> float:
    """Dual curve value Gamma(theta) assembled from a quadratic-value pair."""
    M, _, _, Sinv, t1 = _coefficients(model, theta)
    C, D = qv.C, qv.D
    return float(
        0.5 * np.trace(model.gamma @ model.gamma.T @ C)
        + 0.5 * D @ M @ D
        + t1 * model.B0 @ Sinv @ model.sigma @ model.gamma.T @ D
        + 0.5 * t1 * model.B0 @ Sinv @ model.B0
    )


def policy_md(model: LinearFactorMD, theta: float, qv: QuadraticValue) -> FeedbackPolicy:
    """Affine feedback fractions pi(y) = gain y + intercept at the given tilt."""
    _, _, _, Sinv, _ = _coefficients(model, theta)
    scale = 1.0 / (1.0 - theta)
    sg = model.sigma @ model.gamma.T
    gain = scale * Sinv @ (model.B1 + sg @ qv.C)
    intercept = scale * Sinv @ (model.B0 + sg @ qv.D)
    return FeedbackPolicy(gain=gain, intercept=intercept)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One tilt of a sweep: curve value plus solution certificates."""

    theta: float
    gamma: Optional[float]
    residual: Optional[float]
    eig_max_real: Optional[float]
    quad: Optional[QuadraticValue]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepResult:
    points: list
    breakdown_theta: Optional[float]


def theta_sweep(model: LinearFactorMD, thetas: Sequence[float]) -> SweepResult:
    """Sweep the solver over a sorted tilt grid with warm-started continuation.

    Points are solved outward from zero (warm start from the neighbor
    closer to zero).  Per-point failures are recorded in the row; the
    first failing positive tilt is reported as the empirical domain
    boundary (no claim that it equals the true dual boundary).
    """
    grid = [float(t) for t in thetas]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta grid must be sorted ascending")
    neg = sorted([t for t in grid if t < 0], reverse=True)
    pos = sorted([t for t in grid if t >= 0])
    results: dict[float, SweepPoint] = {}
    breakdown: Optional[float] = None

    def run(theta: float, warm: Optional[QuadraticValue]) -> SweepPoint:
        try:
            qv = solve_care(model, theta, warm=warm)
        except (NoStabilizingSolution, SingularClosedLoop, DomainError) as exc:
            return SweepPoint(theta, None, None, None, None, f"{type(exc).__name__}: {exc}")
        M, Kt, _, _, _ = _coefficients(model, theta)
        return SweepPoint(
            theta,
            gamma_md(model, theta, qv),
            riccati_residual(model, theta, qv.C),
            _eig_max_real(Kt + M @ qv.C),
            qv,
        )

    for branch in (neg, pos):
        warm: Optional[QuadraticValue] = None
        for theta in branch:
            point = run(theta, warm)
            results[theta] = point
            if point.ok:
                warm = point.quad
            elif theta > 0 and breakdown is None:
                breakdown = theta
    points = [results[t] for t in grid]
    return SweepResult(points=points, breakdown_theta=breakdown)


def solution_record(model: LinearFactorMD, qv: QuadraticValue) -> dict:
    """JSON-ready record of a solution with residual and eigenvalue certificates."""
    M, Kt, _, _, _ = _coefficients(model, qv.theta)
    return {
        "theta": qv.theta,
        "C": qv.C.tolist(),
        "D": qv.D.tolist(),
        "gamma": gamma_md(model, qv.theta, qv),
        "residual": riccati_residual(model, qv.theta, qv.C),
        "eig_max_real": _eig_max_real(Kt + M @ qv.C),
    }
