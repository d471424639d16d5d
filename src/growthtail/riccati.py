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
ergodic).  Each tilt is solved on its own: the stable invariant subspace of
the Hamiltonian [[Kt, M], [-2N, -Kt']] gives that root (Laub, IEEE TAC 1979)
and Newton steps on the symmetrized equation polish it, each solving

    A_cl' X + X A_cl = -2 R(C)

densely over the m^2 unknowns (desk scale, m <= 8).  M can be sign-indefinite
in no regime here (its inner matrix has eigenvalues 1 and 1/(1-theta), both
positive below 1), but N flips sign with theta and no definiteness is
assumed anywhere.

The linear coefficient D then solves A_cl' D = -t1 (s gamma' C + B1)'(ss')^-1 B0
directly, and the curve value Gamma(theta) and the affine feedback policy
follow in closed form from (C, D).  The coefficients are built once per tilt
and shared by every step at that tilt; :func:`solve_care` returns Gamma(theta)
and the residual and eigenvalue certificates it checked with the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NoStabilizingSolution, SingularClosedLoop
from .models import FactorMarket, FeedbackPolicy, _check_tilt, model_from_dict

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
]

_NEWTON_TOL = 1e-11      # failure threshold for the best residual
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
        for name in ("K", "B1", "B0", "sigma", "gamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
    """Quadratic-value pair phi(y) = (1/2) y'Cy + D'y at a given tilt, with the curve
    value Gamma(theta) and the residual and closed-loop eigenvalue certificates of its solve."""

    C: np.ndarray
    D: np.ndarray
    theta: float
    gamma: float
    residual: float
    eig_max_real: float


def _sinv(model: LinearFactorMD, theta: float) -> np.ndarray:
    """(ss')^-1 for use at the tilt, after the tilt guard."""
    _check_tilt(theta)
    return np.linalg.inv(model.sigma @ model.sigma.T)


def _coefficients(model: LinearFactorMD, theta: float):
    """(M, Kt, N, Sinv, t1) at the tilt, built once and passed to every use there."""
    Sinv = _sinv(model, theta)
    t1 = theta / (1.0 - theta)
    proj = model.sigma.T @ Sinv @ model.sigma
    q = model.sigma.shape[1]
    M = model.gamma @ (np.eye(q) + t1 * proj) @ model.gamma.T
    Kt = model.K + t1 * model.gamma @ model.sigma.T @ Sinv @ model.B1
    N = 0.5 * t1 * model.B1.T @ Sinv @ model.B1
    return M, Kt, N, Sinv, t1


def _residual(C: np.ndarray, coef) -> tuple[np.ndarray, float]:
    """Symmetrized Riccati left-hand side at C and its Frobenius norm."""
    M, Kt, N, _, _ = coef
    R = 0.5 * C @ M @ C + 0.5 * (Kt.T @ C + C @ Kt) + N
    R = 0.5 * (R + R.T)
    return R, float(np.linalg.norm(R, "fro"))


def riccati_residual(model: LinearFactorMD, theta: float, C) -> float:
    """Frobenius norm of the symmetrized Riccati left-hand side at C."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return _residual(C, _coefficients(model, theta))[1]


def _eig_max_real(A: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(A).real))


def _newton(coef, C0: np.ndarray, theta: float) -> tuple[np.ndarray, float, float]:
    """Newton iteration from C0 at one tilt; raises NoStabilizingSolution on failure.

    Returns (C, residual norm, largest real part of the closed-loop eigenvalues).
    Takes one step at least and iterates while each step cuts the residual by
    10% or more, polishing well below the failure threshold because the curve
    value near the domain boundary amplifies residual error through the nearly
    singular closed-loop drift.  The first step that does not improve ends the
    iteration, so a tilt past the boundary fails after one step.
    """
    M, Kt, N, _, _ = coef
    m = Kt.shape[0]
    eye = np.eye(m)
    scale = max(1.0, float(np.linalg.norm(N, "fro")))
    C = 0.5 * (C0 + C0.T)
    best_C, best_res = C, math.inf
    prev_res = math.inf
    for it in range(_NEWTON_MAXIT):
        R, res = _residual(C, coef)
        if res < best_res:
            best_C, best_res = C, res
        if it and res <= _NEWTON_POLISH * scale:
            break
        if res > 0.9 * prev_res:
            break  # stalled
        prev_res = res
        # kron(I, A') + kron(A', I), entry [(i, k), (j, l)] = I_ij A'_kl + A'_ij I_kl
        At = (Kt + M @ C).T
        lin = eye[:, None, :, None] * At[None, :, None, :]
        lin += lin.transpose(1, 0, 3, 2)
        try:
            X = np.linalg.solve(lin.reshape(m * m, m * m), (-2.0 * R).reshape(-1)).reshape(m, m)
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
            f"Newton did not reach residual {_NEWTON_TOL} "
            f"at theta={theta} (best {best_res:.3e})"
        )
    eig = _eig_max_real(Kt + M @ best_C)
    if not eig <= _HURWITZ_MARGIN:
        raise NoStabilizingSolution(f"converged root is not stabilizing at theta={theta}")
    return best_C, best_res, eig


def _solve_C(coef, theta: float) -> tuple[np.ndarray, float, float]:
    """Stabilizing C(theta) from the Hamiltonian's stable invariant subspace (Laub 1979).

    The eigenvectors [X1; X2] of H = [[Kt, M], [-2N, -Kt']] for its m eigenvalues
    of smallest real part give C = X2 X1^-1, which one Newton solve polishes and certifies.
    """
    M, Kt, N, _, _ = coef
    m = Kt.shape[0]
    if theta == 0.0:
        return np.zeros((m, m)), 0.0, _eig_max_real(Kt)
    H = np.empty((2 * m, 2 * m))
    H[:m, :m], H[:m, m:], H[m:, :m], H[m:, m:] = Kt, M, -2.0 * N, -Kt.T
    w, V = np.linalg.eig(H)
    X = V[:, np.argsort(w.real)[:m]]
    try:
        C = np.linalg.solve(X[:m].T, X[m:].T).T.real
    except np.linalg.LinAlgError as exc:
        raise NoStabilizingSolution(
            f"stable subspace of the Hamiltonian is not a graph at theta={theta}"
        ) from exc
    return _newton(coef, C, theta)


def _gamma(model: LinearFactorMD, coef, C: np.ndarray, D: np.ndarray) -> float:
    M, _, _, Sinv, t1 = coef
    return float(
        0.5 * np.trace(model.gamma @ model.gamma.T @ C)
        + 0.5 * D @ M @ D
        + t1 * model.B0 @ Sinv @ model.sigma @ model.gamma.T @ D
        + 0.5 * t1 * model.B0 @ Sinv @ model.B0
    )


def solve_care(model: LinearFactorMD, theta: float) -> QuadraticValue:
    """Stabilizing solution (C, D) of the Riccati system at the given tilt.

    Each tilt is solved on its own: the Hamiltonian's stable subspace gives
    C and one Newton solve polishes it.  Certifies the symmetrized residual
    (<= 1e-9) and the Hurwitz property of the closed-loop drift, and returns
    both certificates and Gamma(theta) with the solution.  A theta that is
    not finite or not below 1 raises DomainError; one at or past the dual
    domain boundary surfaces as NoStabilizingSolution.
    """
    M, Kt, _, Sinv, t1 = coef = _coefficients(model, theta)
    C, res, eig = _solve_C(coef, theta)
    if not res <= _RESIDUAL_CERT:
        raise NoStabilizingSolution(f"residual certificate failed at theta={theta}: {res:.3e}")
    if not eig <= _HURWITZ_MARGIN:
        raise NoStabilizingSolution(f"closed-loop drift not Hurwitz at theta={theta}")
    A_cl = Kt + M @ C
    rhs = -t1 * (model.sigma @ model.gamma.T @ C + model.B1).T @ Sinv @ model.B0
    try:
        D = np.linalg.solve(A_cl.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularClosedLoop(
            f"closed-loop drift singular at theta={theta}"
        ) from exc
    C = 0.5 * (C + C.T)
    return QuadraticValue(C, D, float(theta), _gamma(model, coef, C, D), res, eig)


def gamma_md(model: LinearFactorMD, theta: float, qv: QuadraticValue) -> float:
    """Dual curve value Gamma(theta) assembled from a quadratic-value pair."""
    return _gamma(model, _coefficients(model, theta), qv.C, qv.D)


def policy_md(model: LinearFactorMD, theta: float, qv: QuadraticValue) -> FeedbackPolicy:
    """Affine feedback fractions pi(y) = gain y + intercept at the given tilt."""
    Sinv = _sinv(model, theta)
    scale = 1.0 / (1.0 - theta)
    sg = model.sigma @ model.gamma.T
    gain = scale * Sinv @ (model.B1 + sg @ qv.C)
    intercept = scale * Sinv @ (model.B0 + sg @ qv.D)
    return FeedbackPolicy(gain=gain, intercept=intercept)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One tilt of a sweep: curve value plus solution certificates."""

    theta: float
    gamma: Optional[float] = None
    residual: Optional[float] = None
    eig_max_real: Optional[float] = None
    quad: Optional[QuadraticValue] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepResult:
    points: list
    breakdown_theta: Optional[float]


def theta_sweep(model: LinearFactorMD, thetas: Sequence[float]) -> SweepResult:
    """Solve every tilt of a sorted, finite grid with one :func:`solve_care` call each.

    Per-point failures are recorded in the row; the first failing positive
    tilt is reported as the empirical domain boundary (no claim that it
    equals the true dual boundary).
    """
    grid = [float(t) for t in thetas]
    if not all(map(math.isfinite, grid)):
        raise ValueError("theta grid must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta grid must be sorted ascending")
    points: list[SweepPoint] = []
    breakdown: Optional[float] = None
    for theta in grid:
        try:
            qv = solve_care(model, theta)
        except (NoStabilizingSolution, SingularClosedLoop, DomainError) as exc:
            points.append(SweepPoint(theta, error=f"{type(exc).__name__}: {exc}"))
            if theta > 0 and breakdown is None:
                breakdown = theta
            continue
        points.append(SweepPoint(theta, qv.gamma, qv.residual, qv.eig_max_real, qv))
    return SweepResult(points=points, breakdown_theta=breakdown)
