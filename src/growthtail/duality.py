"""Convex-duality engine for long-horizon growth-target problems.

A model backend supplies a convex dual value curve Lambda(theta) (the
long-run scaled log-Laplace value of the average growth rate, optimized
over strategies).  This module converts such a curve into decay rates of
tail probabilities by Fenchel-Legendre conjugation:

    upside   v+(l) = inf_{theta in [0, theta_bar)} [Lambda(theta) - theta*l]
    downside v-(l) = inf_{theta <= 0}              [Lambda(theta) - theta*l]

Because Lambda is convex, the infimum is located by solving the monotone
first-order condition Lambda'(theta) = l with bisection.  The engine only
needs point evaluations of the curve (a finite-difference derivative is
used when the model supplies none), so it works for black-box curves.
The two sides are one search: with mu(s) = Lambda(-s), the downside rate
of Lambda at l is the upside rate of mu at -l, so a downside curve is
searched as its mirror (see :class:`DualCurve`).

Regimes of the conjugate:

* ``FREE`` (upside, l <= Lambda'(0)): the rate is 0; no optimal tilt
  exists, only a nearly optimal sequence (see :func:`near_optimal_tilt`).
* ``INTERIOR``: the rate is Lambda(theta*) - theta* l at the unique tilt
  theta* with Lambda'(theta*) = l.
* ``UNREACHABLE`` (downside, l < Lambda'(-inf)): the rate is minus
  infinity, represented by the explicit :data:`MINUS_INFINITY` sentinel,
  never by a float.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import BeyondSteepLimit, BracketFailure, TargetOutOfRange

__all__ = [
    "Side",
    "Regime",
    "MINUS_INFINITY",
    "RateValue",
    "DualCurve",
    "FrontierPoint",
    "CurveDiagnostics",
    "solve_tilt",
    "conjugate_upside",
    "conjugate_downside",
    "near_optimal_tilt",
    "frontier",
    "check_curve",
]

# Relative clamp distance from the right domain endpoint, and the derivative
# magnitude beyond which a probed far limit is treated as infinite.
_BOUNDARY_CLAMP = 1e-9
_STEEP_THRESHOLD = 1e12
_TILT_FTOL = 1e-10
_MAX_BRACKET_DOUBLINGS = 60


class Side(enum.Enum):
    """Which tail of the average growth rate is being controlled."""

    UPSIDE = "up"
    DOWNSIDE = "down"


class Regime(enum.Enum):
    FREE = "free"
    INTERIOR = "interior"
    UNREACHABLE = "unreachable"


class _MinusInfinityType:
    """Explicit sentinel for a rate of minus infinity (never a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MINUS_INFINITY"

    def __float__(self):
        return float("-inf")


MINUS_INFINITY = _MinusInfinityType()


@dataclass(frozen=True)
class RateValue:
    """Decay rate of a tail probability, with the tilt that attains it.

    ``value`` is a nonpositive float for the FREE and INTERIOR regimes and
    the :data:`MINUS_INFINITY` sentinel for UNREACHABLE.  ``tilt`` is
    present only in the INTERIOR regime.
    """

    value: object
    tilt: Optional[float]
    regime: Regime

    @classmethod
    def free(cls) -> "RateValue":
        return cls(0.0, None, Regime.FREE)

    @classmethod
    def interior(cls, value: float, tilt: float) -> "RateValue":
        return cls(float(value), float(tilt), Regime.INTERIOR)

    @classmethod
    def unreachable(cls) -> "RateValue":
        return cls(MINUS_INFINITY, None, Regime.UNREACHABLE)

    def as_float(self) -> float:
        """The rate as a float, with UNREACHABLE mapped to -inf."""
        if self.regime is Regime.UNREACHABLE:
            return float("-inf")
        return float(self.value)


@dataclass(frozen=True)
class FrontierPoint:
    """One row of a rate-frontier sweep."""

    target: float
    rate: Optional[RateValue]
    policy_handle: object = None
    error: Optional[str] = None


class DualCurve:
    """Evaluable convex dual value curve with derivative access.

    Upside curves live on [0, theta_bar) with theta_bar in (0, +inf];
    downside curves live on (-inf, 0].  Lambda(0) = 0 always.  Evaluation
    beyond the right endpoint is clamped just inside it, so that steep
    curves (derivative diverging at theta_bar) never overflow.  Arguments
    for the other side's endpoint (``theta_bar`` and the upper limit of a
    downside curve, the lower limit of an upside one) are ignored.

    The search works on the mirror mu(s) = Lambda(sign*s), s = sign*theta,
    with sign +1 upside and -1 downside, so both sides run on [0, reach)
    (reach theta_bar upside, +inf downside) and mu'(s) = sign*Lambda'(sign*s)
    is nondecreasing there.  The derivative is the model-supplied callable
    when available and otherwise a central finite difference in s (step
    ``max(1e-6, 1e-6*|s|)``, shrunk near the reach and one-sided near 0).

    The derivative limits ``deriv_at_zero``, ``deriv_at_lower_limit`` and
    ``deriv_at_upper_limit`` are computed on first read: a limit passed in
    is used as given, a missing one is probed once from the derivative, so
    building a curve evaluates nothing.  The far limit of either side is
    one cached mu' limit at the reach, where a slope past 1e12 counts as
    infinite: Lambda'(theta_bar) = +inf upside, Lambda'(-inf) = -inf downside.
    """

    def __init__(
        self,
        side: Side,
        evaluate: Callable[[float], float],
        deriv: Optional[Callable[[float], float]] = None,
        theta_bar: float = math.inf,
        deriv_at_zero: Optional[float] = None,
        deriv_at_lower_limit: Optional[float] = None,
        deriv_at_upper_limit: Optional[float] = None,
        name: str = "",
    ):
        up = side is Side.UPSIDE
        if not up:
            theta_bar = 0.0
        elif not theta_bar > 0.0:
            raise ValueError("theta_bar must be positive for an upside curve")
        self.side = side
        self.theta_bar = float(theta_bar)
        self._sign = 1.0 if up else -1.0
        self._reach = self.theta_bar if up else math.inf
        self._evaluate = evaluate
        self._deriv = deriv
        self.name = name
        # given limits shadow the cached properties below
        if deriv_at_zero is not None:
            self.deriv_at_zero = float(deriv_at_zero)
        far = deriv_at_upper_limit if up else deriv_at_lower_limit
        if far is not None:
            self._far_slope = self._sign * float(far)

    # -- derivative limits, computed on first read ----------------------

    @cached_property
    def deriv_at_zero(self) -> float:
        """Lambda'(0)."""
        return self.deriv(0.0)

    @cached_property
    def _far_slope(self) -> float:
        """mu' at the reach, probed along s = 2^k when the reach is infinite."""
        if math.isfinite(self._reach):
            d = self._slope(self._reach * (1.0 - _BOUNDARY_CLAMP))
            return math.inf if d > _STEEP_THRESHOLD else d
        prev = self._slope(1.0)
        for k in range(1, 60):
            cur = self._slope(float(2**k))
            if cur > _STEEP_THRESHOLD:
                return math.inf
            if abs(cur - prev) <= max(1e-10, 1e-8 * abs(cur)):
                return cur
            prev = cur
        return prev

    @property
    def deriv_at_lower_limit(self) -> Optional[float]:
        """Lambda'(-inf) of a downside curve; None for an upside one."""
        return -self._far_slope if self.side is Side.DOWNSIDE else None

    @property
    def deriv_at_upper_limit(self) -> float:
        """Lambda' at theta_bar (+inf for a steep upside curve); Lambda'(0) downside."""
        return self._far_slope if self.side is Side.UPSIDE else self.deriv_at_zero

    @property
    def steep(self) -> bool:
        """The derivative diverges at the right endpoint."""
        return math.isinf(self.deriv_at_upper_limit)

    # -- evaluation ---------------------------------------------------

    def clamp(self, theta: float) -> float:
        """Pull theta just inside the domain when it sits on/past an endpoint."""
        if self.side is Side.UPSIDE:
            if math.isfinite(self.theta_bar) and theta >= self.theta_bar:
                return self.theta_bar * (1.0 - _BOUNDARY_CLAMP)
            return max(theta, 0.0)
        return min(theta, 0.0)

    def value(self, theta: float) -> float:
        """Lambda(theta), evaluated at the clamped tilt."""
        return float(self._evaluate(self.clamp(theta)))

    def deriv(self, theta: float) -> float:
        """Lambda'(theta): analytic when supplied, finite difference otherwise."""
        theta = self.clamp(theta)
        if self._deriv is not None:
            return float(self._deriv(theta))
        return self._fd_deriv(theta)

    # -- internals ----------------------------------------------------

    def _slope(self, s: float) -> float:
        """mu'(s) = sign*Lambda'(sign*s), the nondecreasing slope of the mirror."""
        return self._sign * self.deriv(self._sign * s)

    def _fd_deriv(self, theta: float) -> float:
        sign, s = self._sign, self._sign * theta
        h = max(1e-6, 1e-6 * abs(s))
        gap = self._reach - s
        h = min(h, gap / 8.0) if gap > 0 else h

        def mu(u: float) -> float:
            return self._evaluate(sign * u)

        if s - h < 0.0:
            return sign * (-3.0 * mu(s) + 4.0 * mu(s + h) - mu(s + 2.0 * h)) / (2.0 * h)
        return sign * (mu(s + h) - mu(s - h)) / (2.0 * h)


def solve_tilt(curve: DualCurve, target: float) -> float:
    """Solve Lambda'(theta) = target by bisection on the monotone derivative.

    The target must lie strictly between the derivative limits at the
    domain endpoints; otherwise, and for a target that is not finite,
    TargetOutOfRange is raised.  BracketFailure signals that the expanding
    search interval never bracketed the target (a non-steep curve, or
    inconsistent curve data).  Both sides share one bracket search, on the
    curve's mirror mu'(s) = sign*target.
    """
    ell = float(target)
    if not math.isfinite(ell):
        raise TargetOutOfRange("target is NaN" if math.isnan(ell) else "target is not finite")
    up = curve.side is Side.UPSIDE
    sign, reach = curve._sign, curve._reach
    aim = sign * ell
    d0 = curve.deriv_at_zero
    if aim <= sign * d0:
        raise TargetOutOfRange(
            f"target {ell} at or {'below' if up else 'above'} the derivative at zero ({d0})"
        )
    if aim >= curve._far_slope:
        far = "above the boundary derivative limit" if up else "below the derivative limit at -inf"
        raise TargetOutOfRange(f"target {ell} at or {far} ({sign * curve._far_slope})")
    lo = 1e-12 * min(reach, 1.0)
    if math.isfinite(reach):
        hi = reach * (1.0 - _BOUNDARY_CLAMP)
        if curve._slope(hi) <= aim:
            raise BracketFailure(f"derivative never exceeds target {ell} inside the domain")
    else:
        hi = 1.0
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            if curve._slope(hi) > aim:
                break
            hi *= 2.0
        else:
            raise BracketFailure(
                f"derivative never {'exceeds' if up else 'falls below'} target {ell} "
                f"{'up' if up else 'down'} to theta={sign * hi}"
            )
    lo, hi = sorted((sign * lo, sign * hi))

    # Bisection in theta on the nondecreasing derivative; runs to floating-point
    # interval collapse so the tilt itself is resolved, not just the target.
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if curve.deriv(mid) < ell:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    residual = curve.deriv(mid) - ell
    # written so that a NaN residual fails too
    if not abs(residual) <= _TILT_FTOL * max(1.0, abs(ell)):
        raise BracketFailure(
            f"bisection stalled at theta={mid} with derivative residual {residual:.3e}"
        )
    return mid


def conjugate_upside(curve: DualCurve, target: float) -> RateValue:
    """Upside-chance decay rate v+(target) of the given dual curve.

    Raises BeyondSteepLimit when the curve has a finite boundary derivative
    limit and the target sits at or beyond it (the conjugation does not
    cover such targets).
    """
    if curve.side is not Side.UPSIDE:
        raise ValueError("conjugate_upside requires an upside curve")
    ell = float(target)
    if math.isfinite(curve.deriv_at_upper_limit) and ell >= curve.deriv_at_upper_limit:
        raise BeyondSteepLimit(
            f"target {ell} is not below the boundary derivative limit "
            f"{curve.deriv_at_upper_limit}; the curve is not steep enough"
        )
    if ell <= curve.deriv_at_zero:
        return RateValue.free()
    theta = solve_tilt(curve, ell)
    return RateValue.interior(curve.value(theta) - theta * ell, theta)


def conjugate_downside(curve: DualCurve, target: float) -> RateValue:
    """Downside-risk decay rate v-(target) of the given dual curve.

    Targets below the derivative limit at -inf are unreachable: the decay
    rate is minus infinity (some strategy keeps the growth rate above the
    target with superexponentially small failure probability).
    """
    if curve.side is not Side.DOWNSIDE:
        raise ValueError("conjugate_downside requires a downside curve")
    ell = float(target)
    if ell < curve.deriv_at_lower_limit:
        return RateValue.unreachable()
    theta = solve_tilt(curve, ell)
    return RateValue.interior(curve.value(theta) - theta * ell, theta)


def near_optimal_tilt(curve: DualCurve, n: int) -> float:
    """The n-th nearly optimal tilt theta_n for free-regime upside targets.

    theta_n solves Lambda'(theta_n) = Lambda'(0) + 1/n; the sequence
    decreases to 0 as n grows.
    """
    if curve.side is not Side.UPSIDE:
        raise ValueError("near_optimal_tilt requires an upside curve")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return solve_tilt(curve, curve.deriv_at_zero + 1.0 / n)


def frontier(
    curve: DualCurve,
    targets: Sequence[float],
    policy_fn: Optional[Callable[[float, RateValue], object]] = None,
) -> list[FrontierPoint]:
    """Tabulate the rate function over a sorted target grid.

    Per-point failures are recorded in the row (``error`` field) and do
    not abort the sweep.  ``policy_fn(target, rate)``, when given, builds
    an opaque policy handle for each successful row.
    """
    targets = [float(t) for t in targets]
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise ValueError("target grid must be sorted ascending")
    out: list[FrontierPoint] = []
    for ell in targets:
        try:
            if curve.side is Side.UPSIDE:
                rate = conjugate_upside(curve, ell)
            else:
                rate = conjugate_downside(curve, ell)
            handle = policy_fn(ell, rate) if policy_fn is not None else None
            out.append(FrontierPoint(ell, rate, handle))
        except (TargetOutOfRange, BracketFailure, BeyondSteepLimit) as exc:
            out.append(FrontierPoint(ell, None, None, f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class CurveDiagnostics:
    """Sampled-grid health report for a dual curve."""

    value_at_zero: float
    convexity_violation: float
    monotonicity_violation: float
    tol: float = 1e-9

    @property
    def ok(self) -> bool:
        return (
            abs(self.value_at_zero) <= self.tol
            and self.convexity_violation <= self.tol
            and self.monotonicity_violation <= self.tol
        )


def check_curve(
    curve: DualCurve, thetas: Iterable[float], tol: float = 1e-9, samples: Optional[list] = None
) -> CurveDiagnostics:
    """Check Lambda(0)=0, convexity, and derivative monotonicity on a grid.

    ``samples``, the (value, derivative) pairs already computed at ``thetas``
    in order, spare evaluating the curve there again.  A non-finite value or
    derivative anywhere on the grid reports NaN violations, so the
    diagnostics are not ``ok``.
    """
    thetas = [float(t) for t in thetas]
    if samples is None:
        samples = [(curve.value(t), curve.deriv(t)) for t in thetas]
    points = sorted((curve.clamp(t), v, d) for t, (v, d) in zip(thetas, samples))
    grid, vals, ders = ([p[i] for p in points] for i in range(3))
    conv = 0.0
    for (t1, v1), (t2, v2), (t3, v3) in zip(
        zip(grid, vals), zip(grid[1:], vals[1:]), zip(grid[2:], vals[2:])
    ):
        if t3 - t1 <= 0:
            continue
        lam = (t2 - t1) / (t3 - t1)
        chord = (1.0 - lam) * v1 + lam * v3
        conv = max(conv, v2 - chord)
    mono = 0.0
    for d1, d2 in zip(ders, ders[1:]):
        mono = max(mono, d1 - d2)
    if not all(math.isfinite(x) for x in vals + ders):
        conv = mono = math.nan  # max() would drop a NaN; a non-finite sample fails both
    return CurveDiagnostics(curve.value(0.0), conv, mono, tol)
