"""Market models: one canonical record and the closed-form fast paths.

Every market is a linear factor model ``(K, B1, B0, sigma, gamma)``: asset
drift ``B1 Y + B0`` and noise ``sigma dW``, factor ``dY = K Y dt + gamma dW``.
:class:`FactorMarket` is that record.  Each model maps onto it with
``market()`` and gives the ``(C, D)`` pair of its quadratic value at a tilt
with ``quadratic_pair(theta)``; the Monte-Carlo engine needs nothing else.

* :class:`BlackScholesModel` -- one stock with constant drift ``b`` and
  volatility ``sigma``: the record with no factor (m = 0).  The dual curve
  is ``(b^2/2 sigma^2) * theta/(1-theta)``.
* :class:`LinearFactor1D` -- one stock and one OU factor with reversion
  ``K < 0``, given by the noise norms ``|sigma|``, ``|gamma|`` and the
  stock/factor correlation ``rho``.  The dual curve comes from a scalar
  algebraic Riccati equation whose two roots are explicit; only the minus
  root stabilizes the closed-loop factor drift and is ever used.  One
  per-tilt solve computes that root, its stability check and the linear
  coefficient ``D`` once; the curve value, the policy and
  ``quadratic_pair`` each call it once.  The curve's derivative is a
  closed form of its own, a sum of two squares, and so is each of its limits.
  The per-model constants (abar, beta, theta_bar, -K/|gamma|^2, both limits)
  live in one immutable record on the model, ``_lg1d``, derived on first read.
* :class:`PlatenRebolledo` -- log-price follows the OU factor itself: the
  scalar factor model with ``B1 = K``, ``B0 = |gamma|^2/2``,
  ``gamma = sigma``, ``rho = 1``, so ``beta = 0``.  It runs on the scalar
  factor curve like every other member; the ``pr_*`` rational formulas
  are its oracles.
* ``riccati.LinearFactorMD`` -- the validated matrix record, solved by
  ``riccati.solve_care``.

All functions are pure; models are immutable dataclasses safe to share
across threads.  :func:`model_from_dict` is the one loader for all of them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .duality import (
    DualCurve,
    RateValue,
    Regime,
    Side,
    conjugate_downside,
    conjugate_upside,
)
from .errors import DomainError, ErgodicityViolated, TargetOutOfRange

__all__ = [
    "FactorMarket",
    "BlackScholesModel",
    "LinearFactor1D",
    "PlatenRebolledo",
    "FeedbackPolicy",
    "bs_gamma",
    "bs_dual",
    "bs_policy",
    "bs_prob_exact",
    "lg1d_beta_thetabar",
    "lg1d_riccati_roots",
    "lg1d_D",
    "lg1d_gamma",
    "lg1d_gamma_curve",
    "lg1d_policy",
    "pr_bounds",
    "pr_tilt",
    "pr_rates",
    "dual_curve",
    "rate_for_target",
    "policy_at_tilt",
    "policy_for_target",
    "model_from_dict",
]


def _norm_sf(z: float) -> float:
    """Standard Gaussian upper tail probability."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class FactorMarket:
    """Canonical market record, stored as float arrays.

    K is m x m, B1 d x m, B0 of length d, sigma d x q and gamma m x q, for
    d assets, m factors and q Brownian drivers.
    """

    K: np.ndarray
    B1: np.ndarray
    B0: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("K", "B1", "sigma", "gamma"):
            value = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, value)
        object.__setattr__(self, "B0", np.atleast_1d(np.asarray(self.B0, dtype=float)))

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def d(self) -> int:
        return self.B0.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(d, m, q)."""
        return self.d, self.m, self.sigma.shape[1]

    def market(self) -> "FactorMarket":
        return self


@dataclass(frozen=True)
class BlackScholesModel:
    """One stock, constant drift per unit time and volatility per sqrt(time)."""

    b: float
    sigma: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite_real(name, value)
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def market(self) -> FactorMarket:
        """The record with no factors (m = 0)."""
        return FactorMarket(
            np.zeros((0, 0)), np.zeros((1, 0)), [self.b], [[self.sigma]], np.zeros((0, 1))
        )

    def quadratic_pair(self, theta: float):
        """(C, D) of the quadratic value: empty, there is no factor; theta must lie below 1."""
        _check_tilt(theta)
        return np.zeros((0, 0)), np.zeros(0)


class _Lg1dConstants(NamedTuple):
    """The constants of a scalar factor model's closed forms (``LinearFactor1D._lg1d``)."""

    abar: float  # |gamma| B1/(K |sigma|), the loading-to-reversion ratio
    beta: float  # 1 - rho^2 + (rho - abar)^2
    theta_bar: float  # min(1/beta, 1)
    one_rho2: float  # 1 - rho^2
    scale: float  # -K/|gamma|^2
    cross: float  # abar (2 rho - abar)
    half_b2: float  # 0.5 b b, b = B0/|sigma|
    deriv_at_zero: float  # Gamma'(0) = B0^2/(2|sigma|^2) - |gamma|^2 B1^2/(4|sigma|^2 K)
    deriv_at_lower_limit: float  # Gamma'(-inf)


@dataclass(frozen=True)
class LinearFactor1D:
    """One stock driven by a scalar OU factor (norms-and-correlation form)."""

    K: float
    B1: float
    B0: float
    sigma_norm: float
    gamma_norm: float
    rho: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite_real(name, value)
        if not self.K < 0:
            raise ValueError("K must be negative (stable factor reversion)")
        if not self.sigma_norm > 0:
            raise ValueError("sigma_norm must be positive")
        if not self.gamma_norm > 0:
            raise ValueError("gamma_norm must be positive")
        if abs(self.rho) > 1:
            raise ValueError("rho must lie in [-1, 1]")
        if self.B0 == 0:
            raise ValueError("B0 must be nonzero")

    @cached_property
    def _lg1d(self) -> _Lg1dConstants:
        """The closed forms' constants, derived once per model, on first read.

        Gamma'(-inf) is B0^2/(2|sigma|^2) when beta = 0 (|rho| = 1 and
        abar = rho: log-price an OU process), where the first square of
        ``_lg1d_slope`` keeps its B0 term; otherwise it is 0 for |rho| < 1
        and |K| max(0, rho*abar - 1) for |rho| = 1.  Read lazily, so that a
        model whose constants overflow a float still simulates a given policy.
        """
        K, rho = self.K, self.rho
        a = self.gamma_norm * self.B1 / (K * self.sigma_norm)
        beta = 1.0 - rho**2 + (rho - a) ** 2
        s2 = self.sigma_norm**2
        b2 = self.B0**2 / (2.0 * s2)  # the first square of Gamma' at theta = 0
        lower = b2 if beta == 0.0 else -K * max(0.0, rho * a - 1.0) if rho**2 == 1.0 else 0.0
        b = self.B0 / self.sigma_norm
        return _Lg1dConstants(
            abar=a,
            beta=beta,
            theta_bar=1.0 if beta <= 1.0 else 1.0 / beta,
            one_rho2=1.0 - rho**2,
            scale=-(K / self.gamma_norm**2),
            cross=a * (2.0 * rho - a),
            half_b2=0.5 * b * b,
            deriv_at_zero=b2 - self.gamma_norm**2 * self.B1**2 / (4.0 * s2 * K),
            deriv_at_lower_limit=lower,
        )

    def market(self) -> FactorMarket:
        """The record with sigma = |sigma| (1, 0), gamma = |gamma| (rho, sqrt(1-rho^2))."""
        g, rho = self.gamma_norm, self.rho
        gamma = [[rho * g, math.sqrt(max(0.0, 1.0 - rho**2)) * g]]
        return FactorMarket([[self.K]], [[self.B1]], [self.B0], [[self.sigma_norm, 0.0]], gamma)

    def quadratic_pair(self, theta: float):
        """(C, D) of the quadratic value at theta from the closed-form roots."""
        if theta == 0.0:
            return np.zeros((1, 1)), np.zeros(1)
        c, d = _lg1d_solve(self, theta)
        return np.array([[c]]), np.array([d])


class PlatenRebolledo(LinearFactor1D):
    """Log-price follows an OU process with reversion K < 0 and noise norm |sigma|.

    The scalar factor model with B1 = K, B0 = |sigma|^2/2, |gamma| = |sigma|
    and rho = 1: the beta = 0 member of the scalar factor family, whose
    closed-form derivative reduces here to
    ell_lower + (ell_upper - ell_lower)/sqrt(1-theta).  The ``pr_*`` rational
    formulas check the engine's rates, tilts and limits.
    """

    def __init__(self, K: float, sigma_norm: float):
        super().__init__(
            K=K, B1=K, B0=0.5 * sigma_norm**2, sigma_norm=sigma_norm, gamma_norm=sigma_norm, rho=1.0
        )

    def as_linear_factor(self) -> LinearFactor1D:
        """The same market as a plain LinearFactor1D, on the same dual curve."""
        return LinearFactor1D(*astuple(self))


ModelSpec = Union[BlackScholesModel, LinearFactor1D]


@dataclass(frozen=True, eq=False)
class FeedbackPolicy:
    """Affine feedback map y -> gain*y + intercept giving wealth fractions.

    ``gain`` and ``intercept`` are scalars for the one-dimensional models
    and arrays (d x m, d) for the multi-dimensional factor model.
    """

    gain: object
    intercept: object

    def as_arrays(self, d: int, m: int):
        gain = np.asarray(self.gain, dtype=float)
        intercept = np.asarray(self.intercept, dtype=float)
        # reshape(-1)[0]: float() refuses a size-1 array with ndim >= 1 under numpy 2
        gain = np.full((d, m), gain.reshape(-1)[0]) if gain.size == 1 else gain.reshape(d, m)
        intercept = (
            np.full(d, intercept.reshape(-1)[0]) if intercept.size == 1 else intercept.reshape(d)
        )
        if not (np.all(np.isfinite(gain)) and np.all(np.isfinite(intercept))):
            raise ValueError("policy coefficients must be finite")
        return gain, intercept


def _check_tilt(theta: float) -> None:
    """The one tilt guard: DomainError unless -inf < theta < 1 (NaN fails it too)."""
    if not -math.inf < theta < 1.0:
        raise DomainError(f"theta={theta} {'must be below 1' if theta >= 1.0 else 'is not finite'}")


# ---------------------------------------------------------------------------
# Black-Scholes closed forms
# ---------------------------------------------------------------------------


def _bs_half_snr(model: BlackScholesModel) -> float:
    # b^2 / (2 sigma^2): the log-optimal long-run growth rate.
    return model.b**2 / (2.0 * model.sigma**2)


def bs_gamma(model: BlackScholesModel, theta: float, pi: float) -> float:
    """Long-run scaled log-Laplace value of a constant-fraction strategy.

    Gamma(theta, pi) = theta * [b*pi - (1-theta) * sigma^2 * pi^2 / 2].
    """
    return theta * (model.b * pi - (1.0 - theta) * model.sigma**2 * pi**2 / 2.0)


def bs_dual(model: BlackScholesModel, side: Side) -> DualCurve:
    """Analytic dual curve q*theta/(1-theta), q = b^2/(2 sigma^2).

    The upside curve lives on [0, 1) and is steep (derivative diverges at
    1); the downside curve lives on (-infinity, 0] with derivative limit 0.
    """
    q = _bs_half_snr(model)

    def evaluate(theta: float) -> float:
        return q * theta / (1.0 - theta)

    def deriv(theta: float) -> float:
        # a product, not ** 2: it overflows to inf (slope 0) below theta = -1e154
        return q / ((1.0 - theta) * (1.0 - theta))

    return DualCurve(
        side,
        evaluate,
        deriv=deriv,
        theta_bar=1.0,
        deriv_at_zero=q,
        deriv_at_lower_limit=0.0,
        deriv_at_upper_limit=math.inf,
    )


def bs_policy(model: BlackScholesModel, target: float, side: Side) -> FeedbackPolicy:
    """Optimal constant fraction for the given growth-rate target.

    Upside: the log-optimal (Merton) fraction b/sigma^2 below the free
    threshold, sqrt(2*target/sigma^2) with the sign of b above it.
    Downside: 0 for negative targets (doing nothing keeps the growth rate
    at 0 exactly), otherwise sqrt(2*target/sigma^2) with the sign of b up
    to the threshold.  Either way it is the policy at the conjugate tilt.
    """
    q = _bs_half_snr(model)
    ell = float(target)
    if side is Side.UPSIDE and ell <= q:
        pi = model.b / model.sigma**2
    elif side is Side.DOWNSIDE and ell > q:
        raise TargetOutOfRange(f"downside target {ell} above the derivative at zero {q}")
    elif side is Side.DOWNSIDE and ell < 0:
        pi = 0.0
    else:
        pi = math.copysign(math.sqrt(2.0 * ell / model.sigma**2), model.b)
    return FeedbackPolicy(gain=0.0, intercept=pi)


def bs_prob_exact(
    model: BlackScholesModel, pi: float, target: float, horizon: float, side: Side
) -> float:
    """Exact finite-horizon tail probability of the average growth rate.

    Under a constant fraction pi the average growth rate is Gaussian with
    mean b*pi - sigma^2 pi^2/2 and variance sigma^2 pi^2 / T.  When pi = 0
    the law is degenerate at 0 and the result is the 0/1 indicator of the
    target against 0.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    ell = float(target)
    if pi == 0.0:
        if side is Side.UPSIDE:
            return 1.0 if ell <= 0.0 else 0.0
        return 1.0 if ell >= 0.0 else 0.0
    mean = model.b * pi - model.sigma**2 * pi**2 / 2.0
    sd = model.sigma * abs(pi) / math.sqrt(horizon)
    if side is Side.UPSIDE:
        return _norm_sf((ell - mean) / sd)
    return _norm_sf((mean - ell) / sd)


# ---------------------------------------------------------------------------
# Linear Gaussian factor model, scalar closed forms
# ---------------------------------------------------------------------------


def lg1d_beta_thetabar(model: LinearFactor1D) -> tuple[float, float]:
    """Curvature constant beta and right domain endpoint theta_bar = min(1/beta, 1).

    beta = 1 - rho^2 + (rho - |gamma| B1 / (K |sigma|))^2 >= 0; beta = 0
    (perfect-correlation degenerate case) means 1/beta = +inf, so
    theta_bar = 1.
    """
    return model._lg1d.beta, model._lg1d.theta_bar


def _lg1d_quadratic(model: LinearFactor1D, theta: float) -> tuple[float, float, float]:
    """(u, w, sqrt(disc)): the roots are -(K/|gamma|^2)(u -+ sqrt(disc))/w.

    disc = (1-theta)(1-theta*beta) is clamped to zero just below zero and
    raises DomainError when more negative (theta past theta_bar).
    """
    _check_tilt(theta)
    k = model._lg1d
    disc = (1.0 - theta) * (1.0 - theta * k.beta)
    if disc < 0.0:
        if not disc > -1e-12 * max(1.0, abs(theta)):
            raise DomainError(
                f"theta={theta} beyond theta_bar={k.theta_bar}: negative discriminant"
            )
        disc = 0.0
    u = 1.0 - theta * (1.0 - model.rho * k.abar)
    w = 1.0 - theta * k.one_rho2
    if disc == math.inf:  # the product overflows below theta = -1e154; its square root does not
        return u, w, math.sqrt(1.0 - theta) * math.sqrt(1.0 - theta * k.beta)
    return u, w, math.sqrt(disc)


def lg1d_riccati_roots(model: LinearFactor1D, theta: float) -> tuple[float, float]:
    """Both roots (C_minus, C_plus) of the scalar Riccati equation at theta.

    C_minus is the stabilizing (ergodic) root and the only one consumed by
    the other operations.
    """
    u, w, root = _lg1d_quadratic(model, theta)
    scale = model._lg1d.scale
    return scale * (u - root) / w, scale * (u + root) / w


def _lg1d_solve(model: LinearFactor1D, theta: float) -> tuple[float, float]:
    """(C, D) at theta, the one per-tilt solve behind Gamma, the policy and quadratic_pair.

    C is the minus root; ErgodicityViolated if it fails the stability check.
    """
    u, w, root = _lg1d_quadratic(model, theta)
    theta_bar = model._lg1d.theta_bar
    g2 = model.gamma_norm**2
    c = model._lg1d.scale * (u - root) / w
    # K u + g2 w c is the closed-loop factor drift times (1 - theta) > 0, in
    # 1 - theta*(...) products so deep negative tilts keep its sign
    if theta < theta_bar - 1e-12 and theta != 0.0 and not model.K * u + g2 * w * c < 0.0:
        raise ErgodicityViolated(
            f"minus root fails the closed-loop stability check at theta={theta}"
        )
    if theta >= theta_bar:
        raise DomainError(f"theta={theta} must be below theta_bar={theta_bar}")
    d = (
        -(model.B0 / (model.K * model.sigma_norm))
        * theta
        * (model.rho * model.gamma_norm * c + model.B1 / model.sigma_norm)
        / root
    )
    return c, d


def lg1d_D(model: LinearFactor1D, theta: float) -> float:
    """Linear coefficient D(theta) of the quadratic value; needs theta < theta_bar."""
    return _lg1d_solve(model, theta)[1]


def lg1d_gamma(model: LinearFactor1D, theta: float) -> float:
    """Dual curve value Gamma(theta) assembled from the scalar Riccati solution."""
    if theta == 0.0:
        return 0.0
    c, d = _lg1d_solve(model, theta)
    t1 = theta / (1.0 - theta)
    g = model.gamma_norm
    s = model.sigma_norm
    # 1 + t1*rho^2 written as (1 - theta(1-rho^2))/(1-theta): the naive form
    # cancels catastrophically for deep negative tilts
    w = 1.0 - theta * model._lg1d.one_rho2
    value = (
        0.5 * g**2 * c
        + 0.5 * g**2 * d**2 * w / (1.0 - theta)
        + t1 * (model.B0 / s) * model.rho * g * d
        + 0.5 * t1 * model.B0**2 / s**2
    )
    if not math.isfinite(value):  # C and D overflow at tilts far below -1e150
        raise OverflowError(f"Gamma({theta}) overflows the closed form")
    return value


def _lg1d_slope(model: LinearFactor1D, theta: float) -> float:
    """Gamma'(theta) in closed form, for -inf < theta < theta_bar.

    Differentiating Gamma through the Riccati equation for C and the linear
    equation for D, whose common coefficient is the closed-loop drift
    K sqrt(disc)/(1-theta) < 0, leaves two nonnegative squares:

        Gamma' = (B0/|sigma|)^2 / (2 (1-theta*beta)^2) + |K| n^2 / (4 q w^2)

    with q = sqrt((1-theta)/(1-theta*beta)), w = 1 - theta(1-rho^2),
    n = rho + (abar-rho) q and abar = |gamma| B1/(K |sigma|).  Where rho and
    (abar-rho) q have opposite signs, n is taken from
    n (rho - (abar-rho) q) = abar (2 rho - abar) w/(1-theta*beta); where they
    have the same sign, n^2/q is split as 4 rho (abar-rho) + (rho - (abar-rho) q)^2/q,
    whose second term comes from the same identity.  No difference of
    nearly equal terms is left, and every product stays finite down to
    theta = -1e300.
    """
    _check_tilt(theta)
    k = model._lg1d
    if not theta < k.theta_bar:
        raise DomainError(f"theta={theta} must be below theta_bar={k.theta_bar}")
    rho, am = model.rho, k.abar - model.rho
    ra = rho * am
    ob = 1.0 - theta * k.beta
    w = 1.0 - theta * k.one_rho2
    q = math.sqrt(1.0 - theta) / math.sqrt(ob)
    if ra < 0.0:
        n = k.cross * (w / ob) / (rho - am * q)
        n2q = n * n / q
    elif ra > 0.0:
        v = k.cross * (w / ob) / (rho + am * q)
        n2q = 4.0 * ra + v * v / q
    else:
        n2q = (rho + am * q) ** 2 / q
    return k.half_b2 / ob / ob - 0.25 * model.K * (n2q / w) / w


def lg1d_gamma_curve(model: LinearFactor1D, side: Side) -> DualCurve:
    """Dual curve for the factor model, with the closed-form derivative of ``_lg1d_slope``.

    The curve is steep at theta_bar; theta_bar and both finite limits,
    Gamma'(0) and Gamma'(-inf), are the model's closed-form constants.
    """
    k = model._lg1d
    return DualCurve(
        side,
        lambda theta: lg1d_gamma(model, theta),
        deriv=lambda theta: _lg1d_slope(model, theta),
        theta_bar=k.theta_bar,
        deriv_at_zero=k.deriv_at_zero,
        deriv_at_lower_limit=k.deriv_at_lower_limit,
        deriv_at_upper_limit=math.inf,
    )


def lg1d_policy(model: LinearFactor1D, theta: float) -> FeedbackPolicy:
    """Optimal affine feedback fraction pi(y) at risk-sensitivity theta < theta_bar."""
    c, d = _lg1d_solve(model, theta)
    s = model.sigma_norm
    g = model.gamma_norm
    scale = 1.0 / ((1.0 - theta) * s)
    gain = scale * (model.B1 / s + model.rho * g * c)
    intercept = scale * (model.B0 / s + model.rho * g * d)
    return FeedbackPolicy(gain=gain, intercept=intercept)


# ---------------------------------------------------------------------------
# Platen-Rebolledo rational closed forms
# ---------------------------------------------------------------------------


def pr_bounds(model: PlatenRebolledo) -> tuple[float, float]:
    """(ell_lower, ell_upper): derivative limits at -inf and 0 of the dual curve.

    ell_lower = |sigma|^2/8 and ell_upper = |K|/4 + |sigma|^2/8.
    """
    ell_lower = model.sigma_norm**2 / 8.0
    return ell_lower, abs(model.K) / 4.0 + ell_lower


def pr_tilt(model: PlatenRebolledo, target: float) -> float:
    """Tilt theta(target) = 1 - ((ell_upper-ell_lower)/(target-ell_lower))^2."""
    ell_lower, ell_upper = pr_bounds(model)
    if not target > ell_lower:
        raise TargetOutOfRange(f"target {target} must exceed ell_lower={ell_lower}")
    return 1.0 - ((ell_upper - ell_lower) / (target - ell_lower)) ** 2


def pr_rates(model: PlatenRebolledo, target: float, side: Side) -> RateValue:
    """Closed-form decay rates for the Platen-Rebolledo model.

    Upside: 0 for targets at or below ell_upper, else
    -(l-ell_upper)^2 / (l-ell_upper+|K|/4).  Downside: minus infinity at or
    below ell_lower, else -(l-ell_upper)^2 / (l-ell_lower) up to ell_upper
    (the value vanishes at the ell_upper boundary, tilt 0).
    """
    ell = float(target)
    ell_lower, ell_upper = pr_bounds(model)
    if side is Side.UPSIDE:
        if ell <= ell_upper:
            return RateValue.free()
        value = -((ell - ell_upper) ** 2) / (ell - ell_upper + abs(model.K) / 4.0)
        return RateValue.interior(value, pr_tilt(model, ell))
    if ell > ell_upper:
        raise TargetOutOfRange(
            f"downside target {ell} above the derivative at zero {ell_upper}"
        )
    if ell <= ell_lower:
        return RateValue.unreachable()
    value = -((ell - ell_upper) ** 2) / (ell - ell_lower)
    return RateValue.interior(value, pr_tilt(model, ell))


# ---------------------------------------------------------------------------
# Uniform dispatch helpers
# ---------------------------------------------------------------------------


def dual_curve(model: ModelSpec, side: Side) -> DualCurve:
    """The model's dual curve on the requested side."""
    if isinstance(model, BlackScholesModel):
        return bs_dual(model, side)
    if isinstance(model, LinearFactor1D):
        return lg1d_gamma_curve(model, side)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def rate_for_target(model: ModelSpec, target: float, side: Side) -> RateValue:
    """Decay rate of the model's dual curve, conjugated by the duality engine."""
    conjugate = conjugate_upside if side is Side.UPSIDE else conjugate_downside
    return conjugate(dual_curve(model, side), target)


def policy_at_tilt(model: ModelSpec, theta: float) -> FeedbackPolicy:
    """Optimal policy of the risk-sensitive dual problem at tilt theta."""
    if isinstance(model, BlackScholesModel):
        _check_tilt(theta)
        return FeedbackPolicy(gain=0.0, intercept=model.b / (model.sigma**2 * (1.0 - theta)))
    return lg1d_policy(model, theta)


def policy_for_target(
    model: ModelSpec,
    target: float,
    side: Side,
    rate: Optional[RateValue] = None,
) -> FeedbackPolicy:
    """Feedback policy matched to a target's rate regime.

    Interior targets use the policy at the optimal tilt; free-regime
    targets use the tilt-zero (log-optimal) policy, the limit of the
    nearly optimal sequence; unreachable downside targets map to the
    all-cash policy.
    """
    if isinstance(model, BlackScholesModel):
        return bs_policy(model, target, side)
    if rate is None:
        rate = rate_for_target(model, target, side)
    if rate.regime is Regime.UNREACHABLE:
        return FeedbackPolicy(gain=0.0, intercept=0.0)
    theta = rate.tilt if rate.regime is Regime.INTERIOR else 0.0
    return lg1d_policy(model, theta)


_SCALAR_FORMS = (
    (BlackScholesModel, {"b", "sigma"}),
    (PlatenRebolledo, {"K", "sigma_norm"}),
    (LinearFactor1D, {"K", "B1", "B0", "sigma_norm", "gamma_norm", "rho"}),
)
_MATRIX_FIELDS = {"K", "B1", "B0", "sigma", "gamma"}


def _finite_real(name: str, value) -> float:
    # abs(value) <= max is False for NaN, infinities and ints too large for a float
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ValueError(f"model field {name!r} must be a finite real number, got {value!r}")


def _finite_array(name: str, value, depth: int = 2):
    # every matrix field is 1-D or 2-D; the depth bound keeps the recursion shallow
    if isinstance(value, (list, tuple, np.ndarray)):
        if depth == 0:
            raise ValueError(f"model field {name!r} nests deeper than a matrix")
        return [_finite_array(name, v, depth - 1) for v in value]
    return _finite_real(name, value)


def model_from_dict(record: dict):
    """Build a model from a JSON configuration record.

    The field set determines the model type: {"b","sigma"} is
    Black-Scholes, {"K","sigma_norm"} is Platen-Rebolledo, the six fields
    {"K","B1","B0","sigma_norm","gamma_norm","rho"} are the scalar factor
    model, and {"K","B1","B0","sigma","gamma"} holding row-major nested
    arrays is the matrix model ``riccati.LinearFactorMD``.  Every value
    must be a finite real number (nested lists of them for the matrix
    model); anything else raises ValueError.
    """
    if not isinstance(record, dict):
        raise ValueError("model record must be a JSON object")
    keys = set(record)
    if keys == _MATRIX_FIELDS:
        from .riccati import LinearFactorMD

        return LinearFactorMD(**{k: _finite_array(k, v) for k, v in record.items()})
    for cls, fields in _SCALAR_FORMS:
        if keys == fields:
            return cls(**{k: _finite_real(k, v) for k, v in record.items()})
    raise ValueError(
        "unrecognized model record: expected fields "
        '{"b","sigma"} | {"K","sigma_norm"} | '
        '{"K","B1","B0","sigma_norm","gamma_norm","rho"} | '
        '{"K","B1","B0","sigma","gamma"}, got '
        f"{sorted(keys)}"
    )
