"""Convex-duality engine for long-horizon growth-target problems.

A model backend supplies a convex dual value curve Lambda(theta) (the
long-run scaled log-Laplace value of the average growth rate, optimized
over strategies).  This module converts such a curve into decay rates of
tail probabilities by Fenchel-Legendre conjugation:

    upside   v+(l) = inf_{theta in [0, theta_bar)} [Lambda(theta) - theta*l]
    downside v-(l) = inf_{theta <= 0}              [Lambda(theta) - theta*l]

Because Lambda is convex, the infimum is located by solving the monotone
first-order condition Lambda'(theta) = l by bisection, which reads only
Lambda'; where the model supplies Lambda', Brent-Dekker probes decide most
bisection midpoints without evaluating them.  The engine needs only point
evaluations of the curve (a finite-difference derivative is used when the
model supplies none), so it works for black-box curves.
The two sides are one search: with mu(s) = Lambda(-s), the downside rate
of Lambda at l is the upside rate of mu at -l, so a downside curve is
searched as its mirror (see :class:`DualCurve`).

Regimes of the conjugate:

* ``FREE`` (upside, l <= Lambda'(0)): the rate is 0; no optimal tilt
  exists, only a nearly optimal sequence, the tilts where Lambda' is
  Lambda'(0) + 1/n.
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
    "frontier",
    "check_curve",
]

# Relative inset of the search's far end from a finite right endpoint, and the
# derivative magnitude beyond which a probed far limit is treated as infinite.
_BOUNDARY_CLAMP = 1e-9
_STEEP_THRESHOLD = 1e12
_TILT_FTOL = 1e-10
_MAX_BRACKET_DOUBLINGS = 60
# Bound on how far a model-supplied Lambda' strays, by rounding, from a
# nondecreasing function, relative to the target; the closed forms here
# were measured within 2^-50.
_SLOPE_NOISE = 2.0**-48
_CURVE_TOL = 1e-9  # largest |Lambda(0)| and grid violation of an ok curve


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
    error: Optional[str] = None


class DualCurve:
    """Evaluable convex dual value curve with derivative access.

    A curve is its side, ``evaluate`` (Lambda), an optional ``deriv``
    (Lambda'), the upside endpoint ``theta_bar`` and optional derivative
    limits; it carries nothing else.

    Upside curves live on [0, theta_bar) with theta_bar in (0, +inf];
    downside curves live on (-inf, 0].  Lambda(0) = 0 always.  ``value``
    and ``deriv`` evaluate at the tilt they are given, of either sign; the
    model's callables guard their own domain.  Arguments
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
    building a curve evaluates nothing.  A given Lambda'(0) must be finite
    and a given far limit not NaN (ValueError).  The far limit of either side is
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
        # given limits shadow the cached properties below
        if deriv_at_zero is not None:
            self.deriv_at_zero = float(deriv_at_zero)
            if not math.isfinite(self.deriv_at_zero):
                raise ValueError(f"deriv_at_zero must be finite, got {deriv_at_zero}")
        far = deriv_at_upper_limit if up else deriv_at_lower_limit
        if far is not None:
            self._far_slope = self._sign * float(far)
            if math.isnan(self._far_slope):
                raise ValueError("the far derivative limit is NaN")

    # -- derivative limits, computed on first read ----------------------

    @cached_property
    def deriv_at_zero(self) -> float:
        """Lambda'(0)."""
        return self.deriv(0.0)

    @cached_property
    def _far_slope(self) -> float:
        """mu' at the reach, probed along s = 2^k when the reach is infinite."""
        if math.isfinite(self._reach):
            d = self._far_probe(self._reach * (1.0 - _BOUNDARY_CLAMP))
            return math.inf if d > _STEEP_THRESHOLD else d
        prev = self._far_probe(1.0)
        for k in range(1, 60):
            cur = self._far_probe(float(2**k))
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

    def value(self, theta: float) -> float:
        """Lambda(theta)."""
        return float(self._evaluate(theta))

    def deriv(self, theta: float) -> float:
        """Lambda'(theta): analytic when supplied, finite difference otherwise."""
        if self._deriv is not None:
            return float(self._deriv(theta))
        return self._fd_deriv(theta)

    # -- internals ----------------------------------------------------

    def _slope(self, s: float) -> float:
        """mu'(s) = sign*Lambda'(sign*s), the nondecreasing slope of the mirror."""
        return self._sign * self.deriv(self._sign * s)

    def _far_probe(self, s: float) -> float:
        """mu'(s) for the far limit: +inf where a NaN comes from the curve overflowing at s.

        Any other NaN is a BracketFailure, so that no range guard compares
        against it.
        """
        d = self._slope(s)
        if math.isnan(d):
            if math.isinf(self._evaluate(self._sign * s)):
                return math.inf
            raise BracketFailure(f"derivative is NaN at theta={self._sign * s}")
        return d

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
    """Solve Lambda'(theta) = target by bisection, deciding most midpoints from Brent-Dekker probes.

    The target must lie strictly between the derivative limits at the
    domain endpoints; otherwise, and for a target that is not finite,
    TargetOutOfRange is raised.  BracketFailure signals that the expanding
    search interval never bracketed the target (a non-steep curve, or
    inconsistent curve data).  Both sides share one bracket search, on the
    curve's mirror mu'(s) = sign*target.

    The bisection stops when its interval can shrink no further in floating
    point, or at 1e-16 relative width.  The midpoint is returned when its
    derivative is within 1e-10 (relative past 1) of the target, or when a
    model-supplied derivative crosses the target between the interval's two
    adjacent floats (a slope too steep for the tolerance, near a steep
    theta_bar); otherwise BracketFailure is raised.

    Most midpoints are not evaluated.  A bracketed Brent-Dekker search
    (Brent 1973) on Lambda' first probes its way to the target.  Lambda' is
    nondecreasing, so a midpoint beyond a probe whose derivative misses the
    target by more than the derivative's rounding (2^-48 of the target) lies
    on that probe's side; only midpoints closer to the target than that are
    evaluated.  The tilt is therefore the one plain bisection returns, bit
    for bit, at about a third of its evaluations.  A finite-difference
    derivative's rounding is not known, so on a curve without a
    model-supplied derivative every midpoint is evaluated.
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

    # g(s) = mu'(s) - aim is nondecreasing up to rounding; `known` holds every
    # evaluated g, `clear` the largest s with g < -noise and the smallest with g > noise
    noise = _SLOPE_NOISE * abs(aim) if curve._deriv is not None else math.inf
    known: dict[float, float] = {}
    clear = [-math.inf, math.inf]
    deriv = curve.deriv

    def g(s: float) -> float:
        value = known[s] = (deriv(s) if up else -deriv(-s)) - aim
        if value < -noise:
            clear[0] = max(clear[0], s)
        elif value > noise:
            clear[1] = min(clear[1], s)
        return value

    lo = 1e-12 * min(reach, 1.0)
    short, g_short = 0.0, sign * d0 - aim  # the last point known short of the target
    if math.isfinite(reach):
        hi = reach * (1.0 - _BOUNDARY_CLAMP)
        g_hi = g(hi)
        if g_hi <= 0.0:
            raise BracketFailure(f"derivative never exceeds target {ell} inside the domain")
    else:
        hi = 1.0
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            g_hi = g(hi)
            if g_hi > 0.0:
                break
            short, g_short = hi, g_hi
            hi *= 2.0
        else:
            raise BracketFailure(
                f"derivative never {'exceeds' if up else 'falls below'} target {ell} "
                f"{'up' if up else 'down'} to theta={sign * hi}"
            )
    if noise < math.inf:
        _probe(g, clear, noise, short, g_short, hi, g_hi)

    # The bisection runs in s; in theta a derivative below the target moves
    # the left end, which is the right end in s on the downside.  A NaN
    # derivative is not below the target.  A known g outside the noise is at or
    # past a clear point, which decides alike, so only in-noise g are looked up.
    # A midpoint evaluated here becomes an end and every later one lies inside
    # the ends, so it is never looked up and moves no clear point that matters.
    band = {s: v for s, v in known.items() if not (v < -noise or v > noise)}
    clear_lo, clear_hi = clear
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # every later step would evaluate this endpoint again
        if mid in band:
            value = band[mid]
        elif mid <= clear_lo:
            value = -math.inf
        elif mid >= clear_hi:
            value = math.inf
        else:
            value = known[mid] = (deriv(mid) if up else -deriv(-mid)) - aim
        if value < 0.0 if up else not value > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * (hi if hi > 1.0 else 1.0):  # 0 < lo < hi
            break
    mid = 0.5 * (lo + hi)
    theta, residual = sign * mid, sign * (known[mid] if mid in known else g(mid))
    # written so that a NaN residual fails too
    if not abs(residual) <= _TILT_FTOL * max(1.0, abs(ell)) and not (
        noise < math.inf and math.nextafter(lo, hi) == hi and g(lo) < 0.0 < g(hi)
    ):
        raise BracketFailure(
            f"bisection stalled at theta={theta} with derivative residual {residual:.3e}"
        )
    return theta


def _probe(
    g: Callable[[float], float],
    clear: list,
    noise: float,
    a: float,
    g_a: float,
    b: float,
    g_b: float,
) -> None:
    """Evaluate g on its way to the root in [a, b], for the clear points it leaves.

    Brent-Dekker steps run until a probe lands within the noise of the root
    (or the bracket holds no float inside), then one probe on either side
    steps out along the chord to just past the noise, so that the bisection
    midpoints outside the noise are all read without an evaluation.
    """
    # b is the best point, c the last point where g has the other sign, a the
    # previous b.  A step interpolates g^-1 through (a, b, c), or along the
    # chord when a == c, if that lands inside and shrinks faster than bisection
    # would; otherwise it goes to the midpoint of [b, c].  A step shorter than
    # the float spacing at b moves b one float toward c.  An infinite slope
    # fails every interpolation test, so the next step bisects.
    c, g_c = a, g_a
    d = e = b - a
    while True:
        if (g_b < 0.0) == (g_c < 0.0):
            c, g_c = a, g_a
            d = e = b - a
        if abs(g_c) < abs(g_b):
            a, g_a, b, g_b, c, g_c = b, g_b, c, g_c, b, g_b
        # written so that a NaN slope ends the search too
        if not abs(g_b) > noise or not min(b, c) < 0.5 * (b + c) < max(b, c):
            break
        m = 0.5 * (c - b)
        tol = abs(math.nextafter(b, c) - b)
        if abs(e) >= tol and abs(g_a) > abs(g_b):
            r3 = g_b / g_a
            if a == c:  # secant
                p, q = 2.0 * m * r3, 1.0 - r3
            else:  # inverse quadratic
                r1, r2 = g_a / g_c, g_b / g_c
                p = r3 * (2.0 * m * r1 * (r1 - r2) - (b - a) * (r2 - 1.0))
                q = (r1 - 1.0) * (r2 - 1.0) * (r3 - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, g_a = b, g_b
        b = b + d if abs(d) > tol else math.nextafter(b, c)
        g_b = g(b)
    if b == c or noise == 0.0 or abs(g_b) > noise:
        return
    slope = (g_c - g_b) / (c - b)
    if not slope > 0.0:
        return
    for want in (-2.0 * noise, 2.0 * noise):
        # a convex curve's chord overstates the slope here: step out twice as far
        # while the probe stays inside the noise
        for _ in range(8):
            y = b + (want - g_b) / slope
            if not clear[0] < y < clear[1] or abs(g(y)) > noise:
                break
            want *= 2.0


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


def frontier(curve: DualCurve, targets: Sequence[float]) -> list[FrontierPoint]:
    """Tabulate the rate function over a sorted target grid.

    A target the conjugation cannot solve (TargetOutOfRange, BracketFailure
    or BeyondSteepLimit) gets a row with no rate and the failure in its
    ``error`` field; the sweep goes on.
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
            out.append(FrontierPoint(ell, rate))
        except (TargetOutOfRange, BracketFailure, BeyondSteepLimit) as exc:
            out.append(FrontierPoint(ell, None, f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class CurveDiagnostics:
    """Sampled-grid health report for a dual curve (see :func:`check_curve`)."""

    value_at_zero: float
    convexity_violation: float
    monotonicity_violation: float

    @property
    def ok(self) -> bool:
        return (
            abs(self.value_at_zero) <= _CURVE_TOL
            and self.convexity_violation <= _CURVE_TOL
            and self.monotonicity_violation <= _CURVE_TOL
        )


def check_curve(
    curve: DualCurve, thetas: Iterable[float], samples: Optional[list] = None
) -> CurveDiagnostics:
    """Check Lambda(0)=0, convexity, and derivative monotonicity on a grid.

    The convexity violation is the largest excess of a sampled value over
    the chord of its neighbours, the monotonicity violation the largest
    drop of the derivative; the diagnostics are ``ok`` when |Lambda(0)|
    and both are at most 1e-9.  ``samples``, the (value, derivative) pairs
    already computed at ``thetas`` in order, spare evaluating the curve
    there again.  A non-finite value or derivative anywhere on the grid
    reports NaN violations, so the diagnostics are not ``ok``.
    """
    thetas = [float(t) for t in thetas]
    if samples is None:
        samples = [(curve.value(t), curve.deriv(t)) for t in thetas]
    points = sorted((t, v, d) for t, (v, d) in zip(thetas, samples))
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
    return CurveDiagnostics(curve.value(0.0), conv, mono)
