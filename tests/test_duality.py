"""Conjugation engine tests against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthtail import (
    MINUS_INFINITY,
    BlackScholesModel,
    DualCurve,
    LinearFactor1D,
    PlatenRebolledo,
    RateValue,
    Regime,
    Side,
    bs_dual,
    check_curve,
    conjugate_downside,
    conjugate_upside,
    frontier,
    lg1d_gamma_curve,
    models,
    pr_bounds,
    solve_tilt,
)
from growthtail import duality
from growthtail.duality import (
    _BOUNDARY_CLAMP,
    _MAX_BRACKET_DOUBLINGS,
    _SLOPE_NOISE,
    _TILT_FTOL,
)
from growthtail.errors import (
    BeyondSteepLimit,
    BracketFailure,
    DomainError,
    GrowthTailError,
    TargetOutOfRange,
)

from conftest import conjugate_oracle

Q = 0.125  # b^2/(2 sigma^2) for b=0.1, sigma=0.2


def bs_v_closed(ell: float, q: float = Q) -> float:
    # hand-derived upside conjugate of q*theta/(1-theta)
    return 0.0 if ell <= q else -((math.sqrt(q) - math.sqrt(ell)) ** 2)


def bs_v_down_closed(ell: float, q: float = Q) -> float:
    # downside conjugate: the same square on all of [0, q]
    return -((math.sqrt(q) - math.sqrt(ell)) ** 2)


def bs_tilt_closed(ell: float, q: float = Q) -> float:
    return 1.0 - math.sqrt(q / ell)


def black_box_bs(side: Side, q: float = Q) -> DualCurve:
    # evaluation-only curve: derivative and limits left to the engine
    return DualCurve(side, lambda t: q * t / (1.0 - t), theta_bar=1.0)


class TestSolveTilt:
    def test_bs_upside_closed_form(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        theta = solve_tilt(curve, 0.245)
        assert theta == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_bs_downside_closed_form(self, bs):
        curve = bs_dual(bs, Side.DOWNSIDE)
        theta = solve_tilt(curve, 0.045)
        assert theta == pytest.approx(-2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("theta0", [0.15, 0.3, 0.45])
    def test_round_trip_of_root_condition(self, bs, theta0):
        curve = bs_dual(bs, Side.UPSIDE)
        ell = curve.deriv(theta0)
        theta = solve_tilt(curve, ell)
        assert theta == pytest.approx(theta0, abs=1e-10)
        assert abs(curve.deriv(theta) - ell) <= 1e-10 * max(1.0, abs(ell))

    def test_round_trip_finite_difference_curve(self, lg_rho0):
        curve = lg1d_gamma_curve(lg_rho0, Side.UPSIDE)
        ell = curve.deriv(0.25)
        theta = solve_tilt(curve, ell)
        assert theta == pytest.approx(0.25, abs=1e-7)
        assert abs(curve.deriv(theta) - ell) <= 1e-10 * max(1.0, abs(ell))

    def test_target_out_of_range(self, bs):
        up = bs_dual(bs, Side.UPSIDE)
        with pytest.raises(TargetOutOfRange):
            solve_tilt(up, 0.1)  # below the derivative at zero
        down = bs_dual(bs, Side.DOWNSIDE)
        with pytest.raises(TargetOutOfRange):
            solve_tilt(down, 0.2)  # above the derivative at zero
        with pytest.raises(TargetOutOfRange):
            solve_tilt(down, -0.01)  # below the derivative limit at -inf

    def test_bracket_failure_on_non_steep_curve(self):
        # Lambda' increases to 1 but never reaches 2
        curve = DualCurve(
            Side.UPSIDE,
            lambda t: t + math.exp(-t) - 1.0,
            deriv=lambda t: 1.0 - math.exp(-t),
            deriv_at_upper_limit=math.inf,  # claim steepness to reach the bracket loop
        )
        with pytest.raises(BracketFailure):
            solve_tilt(curve, 2.0)


class TestConjugateUpside:
    def test_bs_interior_value(self, bs):
        rate = conjugate_upside(bs_dual(bs, Side.UPSIDE), 0.245)
        assert rate.regime is Regime.INTERIOR
        assert rate.value == pytest.approx(-0.02, abs=1e-12)
        assert rate.tilt == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_bs_free_regime(self, bs):
        rate = conjugate_upside(bs_dual(bs, Side.UPSIDE), 0.1)
        assert rate.regime is Regime.FREE
        assert rate.value == 0.0
        assert rate.tilt is None

    def test_pr_value_via_generic_engine(self, pr):
        curve = lg1d_gamma_curve(pr.as_linear_factor(), Side.UPSIDE)
        rate = conjugate_upside(curve, 0.155)
        assert rate.value == pytest.approx(-0.000625 / 0.15, abs=1e-9)
        oracle = conjugate_oracle(curve.value, 0.0, 0.999, 0.155)
        assert rate.value == pytest.approx(oracle, abs=1e-8)

    def test_beyond_steep_limit(self):
        curve = DualCurve(
            Side.UPSIDE,
            lambda t: t + math.exp(-t) - 1.0,
            deriv=lambda t: 1.0 - math.exp(-t),
        )
        assert not curve.steep
        with pytest.raises(BeyondSteepLimit):
            conjugate_upside(curve, 2.0)


class TestConjugateDownside:
    def test_bs_interior_value(self, bs):
        rate = conjugate_downside(bs_dual(bs, Side.DOWNSIDE), 0.045)
        assert rate.regime is Regime.INTERIOR
        assert rate.value == pytest.approx(-0.02, abs=1e-12)
        assert rate.tilt == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_bs_negative_target_unreachable(self, bs):
        rate = conjugate_downside(bs_dual(bs, Side.DOWNSIDE), -0.01)
        assert rate.regime is Regime.UNREACHABLE
        assert rate.value is MINUS_INFINITY
        assert not isinstance(rate.value, float)
        assert rate.as_float() == float("-inf")

    def test_pr_below_lower_limit_unreachable(self, pr):
        curve = lg1d_gamma_curve(pr.as_linear_factor(), Side.DOWNSIDE)
        rate = conjugate_downside(curve, 0.004)
        assert rate.regime is Regime.UNREACHABLE

    def test_target_at_or_above_deriv_zero_rejected(self, bs):
        with pytest.raises(TargetOutOfRange):
            conjugate_downside(bs_dual(bs, Side.DOWNSIDE), 0.125)

    def test_lower_limit_sentinels(self, bs):
        curve = bs_dual(bs, Side.DOWNSIDE)
        assert curve.deriv_at_lower_limit == 0.0
        # black-box estimation of the same limit
        bb = black_box_bs(Side.DOWNSIDE)
        assert abs(bb.deriv_at_lower_limit) <= 1e-6
        assert conjugate_downside(bb, -0.02).regime is Regime.UNREACHABLE


class TestLimitsOnFirstRead:
    MODELS = [
        BlackScholesModel(b=0.1, sigma=0.2),
        LinearFactor1D(K=-1.2, B1=0.8, B0=0.4, sigma_norm=0.9, gamma_norm=1.1, rho=0.5),
        PlatenRebolledo(K=-0.5, sigma_norm=0.2),
        PlatenRebolledo(K=-0.5, sigma_norm=0.2).as_linear_factor(),
    ]

    @pytest.fixture
    def gamma_calls(self, monkeypatch):
        calls = []
        original = models.lg1d_gamma

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(models, "lg1d_gamma", counting)
        return calls

    @pytest.fixture
    def slope_calls(self, monkeypatch):
        calls = []
        original = models._lg1d_slope

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(models, "_lg1d_slope", counting)
        return calls

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("model", MODELS, ids=["bs", "factor", "ou", "ou-as-factor"])
    def test_building_a_model_curve_evaluates_nothing(self, gamma_calls, slope_calls, model, side):
        # every model curve carries all its limits, so reading them evaluates nothing either
        curve = models.dual_curve(model, side)
        lower = curve.deriv_at_lower_limit
        assert lower is None if side is Side.UPSIDE else lower < curve.deriv_at_zero
        assert curve.deriv_at_zero <= curve.deriv_at_upper_limit
        assert gamma_calls == [] and slope_calls == []

    def test_building_a_black_box_curve_evaluates_nothing(self):
        calls = []
        curve = DualCurve(
            Side.UPSIDE, lambda t: calls.append(t) or Q * t / (1.0 - t), theta_bar=1.0
        )
        assert calls == []
        assert curve.steep  # the upper limit is probed on this first read
        assert calls

    def test_lower_limit_probed_once(self):
        # an evaluation-only curve of the OU log-price value: only black-box
        # curves probe their far limit
        calls = []
        lf = PlatenRebolledo(K=-0.5, sigma_norm=0.2).as_linear_factor()
        curve = DualCurve(Side.DOWNSIDE, lambda t: calls.append(t) or models.lg1d_gamma(lf, t))
        first = curve.deriv_at_lower_limit
        n = len(calls)
        assert n > 0
        assert first == pytest.approx(0.2**2 / 8.0, rel=1e-6)  # pr_bounds' ell_lower
        assert curve.deriv_at_lower_limit == first
        assert len(calls) == n

    @pytest.mark.parametrize(
        "model, limit, far",
        [
            (MODELS[1], 0.0, -(2.0**40)),
            # |rho| = 1 and rho*abar = 2 > 1: the limit is |K| (rho*abar - 1)
            (LinearFactor1D(K=-1.0, B1=-2.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=1.0),
             1.0, -(2.0**40)),
            (LinearFactor1D(K=-1.0, B1=0.5, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=1.0),
             0.0, -(2.0**40)),
            # beta = 0 (rho = abar = 1): the limit is B0^2/(2|sigma|^2)
            (LinearFactor1D(K=-1.0, B1=-1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=1.0),
             0.125, -(2.0**80)),
        ],
        ids=["rho-below-one", "rho-one-steep-loading", "rho-one", "beta-zero"],
    )
    def test_lower_limit_in_closed_form(self, slope_calls, gamma_calls, model, limit, far):
        curve = models.dual_curve(model, Side.DOWNSIDE)
        assert curve.deriv_at_lower_limit == limit
        assert slope_calls == [] and gamma_calls == []
        # the slope approaches it as 1/theta^2, or as 1/sqrt(-theta) when beta = 0
        assert curve.deriv(far) == pytest.approx(limit, abs=1e-11)


class TestNaNTarget:
    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_nan_target_out_of_range(self, bs, lg_rho0, side):
        conjugate = conjugate_upside if side is Side.UPSIDE else conjugate_downside
        for curve in (bs_dual(bs, side), lg1d_gamma_curve(lg_rho0, side)):
            with pytest.raises(TargetOutOfRange):
                conjugate(curve, math.nan)

    def test_nan_target_is_an_error_row(self, bs):
        rows = frontier(bs_dual(bs, Side.UPSIDE), [math.nan])
        assert rows[0].rate is None and "TargetOutOfRange" in rows[0].error


class TestNaNCurve:
    def test_nan_derivative_is_bracket_failure(self):
        # every comparison with a NaN derivative is False: the bisection
        # slides to the left end, and the final residual check must catch it
        curve = DualCurve(
            Side.UPSIDE,
            lambda t: math.nan,
            deriv=lambda t: math.nan,
            theta_bar=1.0,
            deriv_at_zero=0.1,
            deriv_at_upper_limit=math.inf,
        )
        with pytest.raises(BracketFailure):
            solve_tilt(curve, 0.2)
        with pytest.raises(BracketFailure):
            conjugate_upside(curve, 0.2)

    def test_overflowing_far_slope_reads_steep(self):
        # the finite difference at the reach overflows to inf - inf: a steep
        # curve, not a NaN limit that every range guard lets through
        curve = DualCurve(Side.UPSIDE, lambda t: t * t, theta_bar=1e300)
        assert curve.deriv_at_upper_limit == math.inf
        assert curve.steep
        assert solve_tilt(curve, 1.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "side, evaluate, theta_bar",
        [
            (Side.UPSIDE, lambda t: t * t if t < 0.5 else math.nan, 1.0),
            (Side.DOWNSIDE, lambda t: t * t if t > -4.0 else math.nan, math.inf),
        ],
        ids=["upside-at-the-boundary", "downside-along-the-probe"],
    )
    def test_nan_far_slope_is_bracket_failure(self, side, evaluate, theta_bar):
        # a NaN that is not an overflow of the curve is bad curve data
        curve = DualCurve(side, evaluate, theta_bar=theta_bar)
        conjugate = conjugate_upside if side is Side.UPSIDE else conjugate_downside
        with pytest.raises(BracketFailure, match="NaN"):
            curve._far_slope
        with pytest.raises(BracketFailure, match="NaN"):
            solve_tilt(curve, 0.5 if side is Side.UPSIDE else -0.5)
        with pytest.raises(BracketFailure, match="NaN"):
            conjugate(curve, 0.5 if side is Side.UPSIDE else -0.5)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_given_deriv_at_zero_must_be_finite(self, side, value):
        # a NaN Lambda'(0) used to pass every range guard: conjugate_upside at a
        # free-regime target stalled in the bisection, solve_tilt returned a tilt
        with pytest.raises(ValueError, match="deriv_at_zero"):
            DualCurve(side, lambda t: t * t, deriv=lambda t: 2.0 * t, theta_bar=1.0,
                      deriv_at_zero=value)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_given_far_limit_must_not_be_nan(self, side):
        with pytest.raises(ValueError, match="NaN"):
            DualCurve(side, lambda t: t * t, theta_bar=1.0, deriv_at_zero=0.0,
                      deriv_at_lower_limit=math.nan, deriv_at_upper_limit=math.nan)

    def test_infinite_far_limits_stay_legal(self):
        up = DualCurve(Side.UPSIDE, lambda t: t * t, theta_bar=1.0, deriv_at_upper_limit=math.inf)
        down = DualCurve(Side.DOWNSIDE, lambda t: t * t, deriv_at_lower_limit=-math.inf)
        assert up.steep and down.deriv_at_lower_limit == -math.inf


def near_optimal_tilt(curve: DualCurve, n: int) -> float:
    """theta_n of the free regime's nearly optimal sequence: Lambda'(theta_n) = Lambda'(0) + 1/n."""
    return solve_tilt(curve, curve.deriv_at_zero + 1.0 / n)


class TestNearOptimalTilt:
    def test_bs_explicit_value(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        # ell_8 = 0.125 + 1/8 = 0.25 -> theta = 1 - sqrt(1/2)
        assert near_optimal_tilt(curve, 8) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)

    def test_sequence_decreases_to_zero(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        tilts = [near_optimal_tilt(curve, n) for n in (2, 8, 32, 128, 512)]
        assert all(b < a for a, b in zip(tilts, tilts[1:]))
        assert tilts[-1] < 0.05
        assert all(t > 0 for t in tilts)

    def test_pr_explicit_value(self, pr):
        curve = lg1d_gamma_curve(pr.as_linear_factor(), Side.UPSIDE)
        # ell_40 = 0.13 + 0.025 = 0.155 -> theta = 11/36
        assert near_optimal_tilt(curve, 40) == pytest.approx(11.0 / 36.0, abs=1e-6)


class TestFrontier:
    def test_bs_grid(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        points = frontier(curve, [0.1, 0.125, 0.245])
        rates = [p.rate.as_float() for p in points]
        assert rates[0] == 0.0 and rates[1] == 0.0
        assert rates[2] == pytest.approx(-0.02, abs=1e-12)

    def test_empty_grid(self, bs):
        assert frontier(bs_dual(bs, Side.UPSIDE), []) == []

    def test_pr_grid(self, pr):
        curve = lg1d_gamma_curve(pr.as_linear_factor(), Side.UPSIDE)
        points = frontier(curve, [0.13, 0.155])
        assert points[0].rate.as_float() == 0.0
        assert points[1].rate.as_float() == pytest.approx(-0.000625 / 0.15, abs=1e-9)

    def test_rates_nonincreasing_upside(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        grid = np.linspace(0.05, 0.6, 40)
        rates = [p.rate.as_float() for p in frontier(curve, grid)]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_errors_recorded_in_row(self, bs):
        curve = bs_dual(bs, Side.DOWNSIDE)
        points = frontier(curve, [-0.01, 0.045, 0.2])
        assert points[0].rate.regime is Regime.UNREACHABLE
        assert points[1].rate.regime is Regime.INTERIOR
        assert points[2].rate is None
        assert "TargetOutOfRange" in points[2].error

    def test_unsorted_grid_rejected(self, bs):
        with pytest.raises(ValueError):
            frontier(bs_dual(bs, Side.UPSIDE), [0.3, 0.2])


class TestInvariants:
    def test_conjugate_consistency(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        for ell in np.linspace(0.13, 0.5, 15):
            rate = conjugate_upside(curve, ell)
            assert abs(rate.value - (curve.value(rate.tilt) - rate.tilt * ell)) <= 1e-10
            assert abs(curve.deriv(rate.tilt) - ell) <= 1e-10 * max(1.0, abs(ell))

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_envelope_property(self, bs, side):
        # dv/dl = -theta(l), checked by finite differences over the target
        curve = bs_dual(bs, side)
        targets = np.linspace(0.14, 0.4, 8) if side is Side.UPSIDE else np.linspace(0.02, 0.1, 8)
        conj = conjugate_upside if side is Side.UPSIDE else conjugate_downside
        d_ell = 1e-4
        for ell in targets:
            hi = conj(curve, ell + d_ell).as_float()
            lo = conj(curve, ell - d_ell).as_float()
            slope = (hi - lo) / (2 * d_ell)
            tilt = conj(curve, ell).tilt
            assert abs(slope + tilt) <= 1e-5 * max(1.0, abs(tilt))

    def test_envelope_property_factor_curve(self, lg_rho0):
        curve = lg1d_gamma_curve(lg_rho0, Side.UPSIDE)
        d_ell = 1e-4
        for ell in (0.45, 0.6, 0.9):
            hi = conjugate_upside(curve, ell + d_ell).as_float()
            lo = conjugate_upside(curve, ell - d_ell).as_float()
            tilt = conjugate_upside(curve, ell).tilt
            assert abs((hi - lo) / (2 * d_ell) + tilt) <= 1e-5 * max(1.0, abs(tilt))

    def test_downside_rate_nondecreasing(self, bs):
        curve = bs_dual(bs, Side.DOWNSIDE)
        grid = np.linspace(0.005, 0.12, 30)
        rates = [conjugate_downside(curve, ell).as_float() for ell in grid]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_black_box_engine_matches_closed_form(self, bs):
        up = black_box_bs(Side.UPSIDE)
        assert up.steep  # steepness detected numerically
        for ell in np.linspace(0.01, 0.45, 50):
            got = conjugate_upside(up, ell).as_float()
            assert abs(got - bs_v_closed(ell)) <= 1e-7
        down = black_box_bs(Side.DOWNSIDE)
        for ell in np.linspace(0.001, 0.12, 50):
            got = conjugate_downside(down, ell).as_float()
            assert abs(got - bs_v_down_closed(ell)) <= 1e-7

    def test_brute_force_oracle_agreement(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        for ell in (0.15, 0.245, 0.4):
            oracle = conjugate_oracle(curve.value, 0.0, 1.0 - 1e-7, ell)
            assert conjugate_upside(curve, ell).value == pytest.approx(oracle, abs=1e-8)


class TestCurveChecks:
    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_bs_curve_healthy(self, bs, side):
        curve = bs_dual(bs, side)
        grid = np.linspace(0.0, 0.9, 25) if side is Side.UPSIDE else np.linspace(-5.0, 0.0, 25)
        diag = check_curve(curve, grid)
        assert diag.value_at_zero == 0.0
        assert diag.ok

    def test_factor_curves_healthy(self, lg_rho0, pr):
        up = lg1d_gamma_curve(lg_rho0, Side.UPSIDE)
        assert check_curve(up, np.linspace(0.0, 0.49, 20)).ok
        down = lg1d_gamma_curve(pr.as_linear_factor(), Side.DOWNSIDE)
        assert check_curve(down, np.linspace(-8.0, 0.0, 20)).ok

    def test_nan_on_grid_fails(self, bs):
        diag = check_curve(bs_dual(bs, Side.UPSIDE), [0.0, 0.2, math.nan])
        assert math.isnan(diag.convexity_violation)
        assert math.isnan(diag.monotonicity_violation)
        assert not diag.ok

    def test_non_finite_value_fails(self):
        curve = DualCurve(
            Side.UPSIDE,
            lambda t: math.nan if t > 0.5 else t * t,
            deriv=lambda t: 2.0 * t,
            theta_bar=1.0,
            deriv_at_upper_limit=2.0,
        )
        assert check_curve(curve, [0.0, 0.25, 0.5]).ok
        assert not check_curve(curve, [0.0, 0.25, 0.5, 0.75]).ok

    def test_tilt_at_or_past_theta_bar_raises(self, bs):
        # evaluation is at the tilt given, on either side: nothing is clamped
        # inside the domain
        inside = 1.0 - _BOUNDARY_CLAMP
        for curve in (bs_dual(bs, Side.UPSIDE), bs_dual(bs, Side.DOWNSIDE)):
            for theta in (1.0, 2.0):
                with pytest.raises(DomainError):
                    curve.value(theta)
                with pytest.raises(DomainError):
                    curve.deriv(theta)
            assert 1e6 < curve.value(inside) < math.inf
            assert math.isfinite(curve.deriv(inside))


# (curve, side, hex Lambda'(0), hex far limit, [(hex target, regime, hex tilt, hex rate)]):
# the targets are literals, so the rows pin the limits, the bracket and the
# bisection bit for bit on both sides.
PIN = [
    ("bs", "up", "0x1.0000000000000p-3", "inf", [
        ("0x1.0000000000000p-4", "free", None, "0x0.0p+0"),
        ("0x1.0000000000000p-3", "free", None, "0x0.0p+0"),
        ("0x1.0cccccccccccdp-3", "interior", "0x1.8ada6ba169072p-6", "-0x1.3fbc40c52bd00p-14"),
        ("0x1.8000000000000p-3", "interior", "0x1.77d0a3fcf4f05p-3", "-0x1.9dc7afdb7b464p-8"),
        ("0x1.8000000000000p-2", "interior", "0x1.b0cb174df99c6p-2", "-0x1.126145e9ecd55p-4"),
        ("0x1.0000000000000p+0", "interior", "0x1.4afb0ccc0621ap-1", "-0x1.abec333018867p-2"),
    ]),
    ("bs", "down", "0x1.0000000000000p-3", "0x0.0p+0", [
        ("-0x1.47ae147ae147bp-7", "unreachable", None, "-inf"),
        ("0x1.999999999999ap-8", "interior", "-0x1.bc6ef372fe94ep+1", "-0x1.34a06b6b9a2acp-4"),
        ("0x1.0000000000000p-4", "interior", "-0x1.a827999fcef32p-2", "-0x1.5f619980c4338p-7"),
        ("0x1.e666666666666p-4", "interior", "-0x1.a9a11b27057e0p-6", "-0x1.502326bb7ed80p-14"),
    ]),
    ("lg_rho0", "up", "0x1.8000000000000p-2", "inf", [
        ("0x1.8000000000000p-3", "free", None, "0x0.0p+0"),
        ("0x1.8000000000000p-2", "free", None, "0x0.0p+0"),
        ("0x1.9333333333334p-2", "interior", "0x1.068424ed29528p-6", "-0x1.3f26fd874a6e0p-13"),
        ("0x1.2000000000000p-1", "interior", "0x1.e916c8fe69d6ep-4", "-0x1.9719cf15a89d8p-7"),
        ("0x1.2000000000000p+0", "interior", "0x1.0c8ba0930aebap-2", "-0x1.05204345fae84p-3"),
        ("0x1.8000000000000p+1", "interior", "0x1.7fae73098961ap-2", "-0x1.81e8d94290442p-1"),
    ]),
    ("lg_rho0", "down", "0x1.8000000000000p-2", "0x0.0p+0", [
        ("-0x1.47ae147ae147bp-7", "unreachable", None, "-inf"),
        ("0x1.333333365ca56p-6", "interior", "-0x1.4374d660e225ap+1", "-0x1.4767e903df422p-3"),
        ("0x1.800000003540dp-3", "interior", "-0x1.24581dcac949ap-2", "-0x1.673f0b17d8dc2p-6"),
        ("0x1.6ccccccccf767p-2", "interior", "-0x1.1c8df4a9b60d0p-6", "-0x1.50c50dda678c0p-13"),
    ]),
    ("lg_rho05", "up", "0x1.3117cf1e214a8p-2", "inf", [
        ("0x1.3117cf1e214a8p-3", "free", None, "0x0.0p+0"),
        ("0x1.3117cf1e214a8p-2", "free", None, "0x0.0p+0"),
        ("0x1.4058ffdfa2f4ap-2", "interior", "0x1.a44e786022f22p-7", "-0x1.96005454eeb00p-14"),
        ("0x1.c9a3b6ad31efcp-2", "interior", "0x1.874c380fd4335p-4", "-0x1.02d1548a9d83cp-7"),
        ("0x1.c9a3b6ad31efcp-1", "interior", "0x1.adfeed8be955ep-3", "-0x1.4c0be07b2a299p-4"),
        ("0x1.3117cf1e214a8p+1", "interior", "0x1.342f5c3a7ec18p-2", "-0x1.ebb1fd979b4cbp-2"),
    ]),
    ("lg_rho05", "down", "0x1.3117cf1e214a8p-2", "0x0.0p+0", [
        ("-0x1.47ae147ae147bp-7", "unreachable", None, "-inf"),
        ("0x1.e826183da1437p-7", "interior", "-0x1.066d27e1feffep+1", "-0x1.a3985e5da1d88p-4"),
        ("0x1.3117cf1e92514p-3", "interior", "-0x1.d56b8a01586c5p-3", "-0x1.c9cc885900fdcp-7"),
        ("0x1.21d69e5ca5472p-2", "interior", "-0x1.c7b7e15ab324cp-7", "-0x1.ac7e09f762040p-14"),
    ]),
    ("black_box_bs", "up", "0x1.fffffffffb9a1p-4", "inf", [
        ("0x1.fffffffffb9a1p-5", "free", None, "0x0.0p+0"),
        ("0x1.fffffffffb9a1p-4", "free", None, "0x0.0p+0"),
        ("0x1.0cccccccca7dbp-3", "interior", "0x1.8ada6ba0f3752p-6", "-0x1.3fbc40c4b9da0p-14"),
        ("0x1.7ffffffffcb39p-3", "interior", "0x1.77d0a3fcfdd7fp-3", "-0x1.9dc7afdb67e74p-8"),
        ("0x1.7ffffffffcb39p-2", "interior", "0x1.b0cb174e2f374p-2", "-0x1.126145e9e741cp-4"),
        ("0x1.fffffffffb9a1p-1", "interior", "0x1.4afb0ccbf3c1cp-1", "-0x1.abec333012d6bp-2"),
    ]),
    ("black_box_bs", "down", "0x1.fffffffffb9a5p-4", "0x1.fffbc0ba00000p-36", [
        ("-0x1.47ae147ae147bp-7", "unreachable", None, "-inf"),
        ("0x1.999999b7fc3afp-8", "interior", "-0x1.bc6ef35ee6bd2p+1", "-0x1.34a06b6502236p-4"),
        ("0x1.00000000fdcb1p-4", "interior", "-0x1.a827999c6b496p-2", "-0x1.5f61997d7b342p-7"),
        ("0x1.e66666667bd26p-4", "interior", "-0x1.a9a11b25d0360p-6", "-0x1.502326b944fc0p-14"),
    ]),
]

PIN_CURVES = {
    "bs": lambda side: models.dual_curve(BlackScholesModel(b=0.1, sigma=0.2), side),
    "lg_rho0": lambda side: models.dual_curve(
        LinearFactor1D(K=-1.0, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=0.0), side
    ),
    "lg_rho05": lambda side: models.dual_curve(
        LinearFactor1D(K=-1.2, B1=0.8, B0=0.4, sigma_norm=0.9, gamma_norm=1.1, rho=0.5), side
    ),
    "black_box_bs": black_box_bs,
}


class TestPinnedOutput:
    @pytest.mark.parametrize(
        "name, side, d0, far, rows", PIN, ids=[f"{p[0]}-{p[1]}" for p in PIN]
    )
    def test_bit_exact(self, name, side, d0, far, rows):
        curve = PIN_CURVES[name](Side(side))
        up = curve.side is Side.UPSIDE
        limit = curve.deriv_at_upper_limit if up else curve.deriv_at_lower_limit
        assert (curve.deriv_at_zero.hex(), float(limit).hex()) == (d0, far)
        conjugate = conjugate_upside if up else conjugate_downside
        for ell, regime, tilt, rate in rows:
            got = conjugate(curve, float.fromhex(ell))
            assert got.regime.value == regime
            assert (None if got.tilt is None else got.tilt.hex()) == tilt
            assert got.as_float().hex() == rate


class TestMirroredSearch:
    def test_unbounded_downside_slope_is_minus_inf(self):
        # Lambda'(theta) = theta + 0.1 passes -1e12 on the probe, as the
        # upside's slope passes +1e12 on a steep curve
        curve = DualCurve(Side.DOWNSIDE, lambda t: 0.5 * t * t + 0.1 * t)
        assert curve.deriv_at_lower_limit == -math.inf
        assert curve.deriv_at_upper_limit == curve.deriv_at_zero
        rate = conjugate_downside(curve, -50.0)
        assert rate.regime is Regime.INTERIOR
        assert rate.tilt == pytest.approx(-50.1, rel=1e-9)
        assert rate.value == pytest.approx(-0.5 * 50.1**2, rel=1e-9)

    def test_downside_is_upside_of_mirror(self, lg_rho05):
        # v-(Lambda, l) = v+(mu, -l) with mu(s) = Lambda(-s) on [0, inf)
        down = lg1d_gamma_curve(lg_rho05, Side.DOWNSIDE)
        mirror = DualCurve(Side.UPSIDE, lambda s: down.value(-s))
        for ell in (0.05, 0.15, 0.25):
            a, b = conjugate_downside(down, ell), conjugate_upside(mirror, -ell)
            assert a.value == pytest.approx(b.value, abs=1e-12)
            assert a.tilt == pytest.approx(-b.tilt, abs=1e-9)


def _draw_model(kind, data):
    if kind == "bs":
        return BlackScholesModel(
            b=data.draw(st.floats(0.02, 0.3)), sigma=data.draw(st.floats(0.1, 0.6))
        )
    if kind == "ou":
        return PlatenRebolledo(
            K=data.draw(st.floats(-3.0, -0.1)), sigma_norm=data.draw(st.floats(0.1, 2.0))
        )
    # the parameter ranges of acceptance test_08
    return LinearFactor1D(
        K=data.draw(st.floats(-3.0, -0.1)),
        B1=data.draw(st.floats(-2.0, 2.0)),
        B0=data.draw(st.floats(0.1, 2.0)),
        sigma_norm=data.draw(st.floats(0.1, 2.0)),
        gamma_norm=data.draw(st.floats(0.1, 2.0)),
        rho=data.draw(st.floats(-1.0, 1.0)),
    )


class TestConjugateProperties:
    """Duality identities over random models; the bounds were fixed before the first run.

    A BracketFailure on any model, the scalar factor model included, fails the test.
    """

    @staticmethod
    def _target(curve, frac):
        # (target, distance to the nearer end of its interior range)
        d0 = curve.deriv_at_zero
        if curve.side is Side.UPSIDE:
            ell = d0 * (1.0 + 2.0 * frac)
            return ell, ell - d0
        lower = curve.deriv_at_lower_limit
        ell = lower + frac * (d0 - lower)
        return ell, min(ell - lower, d0 - ell)

    @classmethod
    def _run(cls, kind, side, check):
        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(data=st.data(), frac=st.floats(0.05, 0.95))
        def run(data, frac):
            curve = models.dual_curve(_draw_model(kind, data), side)
            conjugate = conjugate_upside if side is Side.UPSIDE else conjugate_downside
            ell, dist = cls._target(curve, frac)
            check(curve, conjugate, ell, dist)

        run()

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("kind", ["bs", "factor", "ou"])
    def test_rate_is_infimum_on_grid(self, kind, side):
        def check(curve, conjugate, ell, dist):
            rate = conjugate(curve, ell)
            assert rate.regime is Regime.INTERIOR
            v = rate.as_float()
            if side is Side.UPSIDE:
                grid = list(curve.theta_bar * np.linspace(0.0, 1.0, 41)[:-1])
                grid.append(curve.theta_bar * (1.0 - 1e-6))
            else:
                grid = [0.0] + list(-np.geomspace(1e-3, 1e3, 41))
            for theta in grid:
                lam = curve.value(float(theta))
                assert v <= lam - theta * ell + 1e-10 * max(1.0, abs(lam), abs(theta * ell))

        self._run(kind, side, check)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("kind", ["bs", "factor", "ou"])
    def test_rate_slope_is_minus_tilt(self, kind, side):
        def check(curve, conjugate, ell, dist):
            d_ell = 1e-4 * dist
            slope = (
                conjugate(curve, ell + d_ell).as_float() - conjugate(curve, ell - d_ell).as_float()
            ) / (2.0 * d_ell)
            tilt = conjugate(curve, ell).tilt
            assert abs(slope + tilt) <= 1e-6 * max(1.0, abs(tilt))

        self._run(kind, side, check)


class TestOneCurveForBothSides:
    """A tilt's sign says which side it serves: both sides' curves read Lambda and
    Lambda' at the tilt they are given, of either sign, and refuse one at or past
    theta_bar."""

    @pytest.mark.parametrize("kind", ["bs", "factor", "ou"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_sides_agree_bit_for_bit(self, kind, data):
        model = _draw_model(kind, data)
        up, down = models.dual_curve(model, Side.UPSIDE), models.dual_curve(model, Side.DOWNSIDE)
        theta_bar = up.theta_bar
        theta = data.draw(
            st.one_of(st.floats(-1e6, 0.0), st.floats(0.0, theta_bar, exclude_max=True)),
            label="theta",
        )
        for read in ("value", "deriv"):
            a, b = getattr(up, read)(theta), getattr(down, read)(theta)
            assert math.isfinite(a) and a.hex() == b.hex()
        past = data.draw(st.sampled_from([theta_bar, 1.0, 1e6]) | st.floats(theta_bar, 1e6))
        for curve in (up, down):
            with pytest.raises(DomainError):
                curve.value(past)
            with pytest.raises(DomainError):
                curve.deriv(past)


def _factor_slope(model, theta):
    """Lambda'(theta) of the scalar factor curve, read from the side that holds theta."""
    return models.dual_curve(model, Side.UPSIDE if theta > 0.0 else Side.DOWNSIDE).deriv(theta)


class TestExactFactorSlope:
    """The closed-form Lambda' of the scalar factor curve over random models in
    test_08's ranges; the bounds were fixed before the first run."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), frac=st.floats(0.0, 1.0))
    def test_matches_richardson_difference(self, data, frac):
        model = _draw_model("factor", data)
        theta_bar = models.lg1d_beta_thetabar(model)[1]
        theta = -20.0 + frac * (0.9 * theta_bar + 20.0)
        h = 1e-2 * min(max(1.0, abs(theta)), theta_bar - theta)

        def central(step):
            up = models.lg1d_gamma(model, theta + step)
            return (up - models.lg1d_gamma(model, theta - step)) / (2.0 * step)

        richardson = (4.0 * central(0.5 * h) - central(h)) / 3.0
        assert abs(_factor_slope(model, theta) - richardson) <= 1e-7 * abs(richardson)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_nondecreasing_down_to_minus_1e300(self, data):
        model = _draw_model("factor", data)
        theta_bar = models.lg1d_beta_thetabar(model)[1]
        grid = list(-np.geomspace(1e300, 1e-3, 121)) + list(theta_bar * np.linspace(0, 1, 41)[:-1])
        grid.append(theta_bar * (1.0 - _BOUNDARY_CLAMP))  # just inside theta_bar
        slopes = [_factor_slope(model, float(t)) for t in grid]
        assert not any(math.isnan(d) for d in slopes)
        assert all(b >= a for a, b in zip(slopes, slopes[1:]))


class TestOULogPriceSlope:
    """The OU log-price curve is the scalar factor curve at beta = 0; its former
    derivative ell_lower + (ell_upper - ell_lower)/sqrt(1-theta) and
    ``pr_bounds`` are kept as oracles.  The bound was fixed before the first run."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_rational_derivative(self, data):
        pr = _draw_model("ou", data)
        lower, upper = pr_bounds(pr)
        grid = list(-np.geomspace(1e300, 1e-3, 121)) + list(np.linspace(0.0, 0.999999, 41))
        for theta in map(float, grid):
            oracle = lower + (upper - lower) / math.sqrt(1.0 - theta)
            assert abs(_factor_slope(pr, theta) - oracle) <= 1e-14 * oracle
        up, down = models.dual_curve(pr, Side.UPSIDE), models.dual_curve(pr, Side.DOWNSIDE)
        assert abs(up.deriv_at_zero - upper) <= 1e-14 * upper and up.steep
        assert abs(down.deriv_at_zero - upper) <= 1e-14 * upper
        assert abs(down.deriv_at_lower_limit - lower) <= 1e-14 * lower


def capped_solve_tilt(curve: DualCurve, target: float) -> float:
    """Reference copy of ``solve_tilt`` with its former stop rule: at most 200
    bisection steps, ended early only at 1e-16 relative width.  Its final check
    is ``solve_tilt``'s: a model-supplied derivative that crosses the target
    between two adjacent floats passes."""
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
    if not abs(residual) <= _TILT_FTOL * max(1.0, abs(ell)) and not (
        curve._deriv is not None
        and math.nextafter(lo, hi) == hi
        and curve.deriv(lo) < ell < curve.deriv(hi)
    ):
        raise BracketFailure(
            f"bisection stalled at theta={mid} with derivative residual {residual:.3e}"
        )
    return mid


def _outcome(solve, curve, ell):
    try:
        return solve(curve, ell).hex()
    except GrowthTailError as exc:
        return type(exc), str(exc)


class TestStopRule:
    """The bisection ends when no float lies strictly inside its interval."""

    @pytest.mark.parametrize(
        "side, ell, tilt", [(Side.DOWNSIDE, 0.0078125, -3.0), (Side.UPSIDE, 2.0, 0.75)]
    )
    def test_call_budget(self, bs, monkeypatch, side, ell, tilt):
        # |tilt| >= 0.5: the 1e-16 width is below one ulp, so only the float stop ends the loop
        curve = bs_dual(bs, side)
        calls = []
        deriv = DualCurve.deriv
        monkeypatch.setattr(DualCurve, "deriv", lambda self, t: calls.append(t) or deriv(self, t))
        assert solve_tilt(curve, ell) == pytest.approx(tilt, abs=1e-12)
        assert len(calls) <= 60

    @pytest.mark.parametrize("name", ["bs", "lg_rho0", "lg_rho05"])
    def test_superlinear_call_budget(self, monkeypatch, name):
        # the pinned interior targets of the curves with a closed-form derivative
        calls = []
        deriv = DualCurve.deriv
        monkeypatch.setattr(DualCurve, "deriv", lambda self, t: calls.append(t) or deriv(self, t))
        for pin_name, side, _, _, rows in PIN:
            if pin_name != name:
                continue
            curve = PIN_CURVES[name](Side(side))
            for ell, regime, _, _ in rows:
                if regime == "interior":
                    calls.clear()
                    solve_tilt(curve, float.fromhex(ell))
                    assert len(calls) <= 20

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_same_tilt_under_rounding_noise(self, side):
        # a model-supplied derivative up to 2^-49 relative off a nondecreasing one,
        # in no order from one float to the next: the midpoints inside that noise
        # are evaluated (with no allowance for it, 21 of these 38 tilts differ)
        def deriv(t):
            return Q / ((1.0 - t) * (1.0 - t)) * (1.0 + 2.0**-49 * math.sin(1e16 * t))

        curve = DualCurve(
            side, lambda t: Q * t / (1.0 - t), deriv=deriv, theta_bar=1.0,
            deriv_at_zero=Q, deriv_at_lower_limit=0.0, deriv_at_upper_limit=math.inf,
        )
        for frac in np.linspace(0.05, 0.95, 19):
            ell, _ = TestConjugateProperties._target(curve, float(frac))
            assert _outcome(solve_tilt, curve, ell) == _outcome(capped_solve_tilt, curve, ell)

    @pytest.mark.parametrize(
        "side, ell, tilt, rate",
        [(Side.UPSIDE, 0.5, 0.5, -0.125), (Side.DOWNSIDE, -0.125, -0.5, -0.1875)],
    )
    def test_slope_jump_between_adjacent_floats(self, side, ell, tilt, rate):
        # Lambda' jumps across the target at a kink: the bracket closes on two
        # adjacent floats, neither within the residual tolerance, and the root is there
        def deriv(t):
            return (0.25 if t < 0.5 else 1.0) if t >= 0.0 else (0.25 if t > -0.5 else -0.5)

        curve = DualCurve(
            side, lambda t: 0.25 * t + 0.75 * max(0.0, abs(t) - 0.5), deriv=deriv, theta_bar=1.0,
            deriv_at_zero=0.25, deriv_at_lower_limit=-0.5, deriv_at_upper_limit=math.inf,
        )
        conjugate = conjugate_upside if side is Side.UPSIDE else conjugate_downside
        assert conjugate(curve, ell) == RateValue.interior(rate, tilt)
        assert _outcome(solve_tilt, curve, ell) == _outcome(capped_solve_tilt, curve, ell)

    def test_wide_bracket(self):
        # no absolute 1e-16 width is reached within 200 halvings of a 1e300-wide bracket
        curve = DualCurve(Side.UPSIDE, lambda t: t * t, theta_bar=1e300)
        assert solve_tilt(curve, 1.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("kind", ["bs", "factor", "ou", "black_box"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), frac=st.floats(-0.25, 1.25))
    def test_same_tilt_as_capped_loop(self, kind, side, data, frac):
        # targets cover each side's range and a little past both ends of it
        if kind == "black_box":
            m = _draw_model("bs", data)
            curve = black_box_bs(side, q=m.b**2 / (2.0 * m.sigma**2))
        else:
            curve = models.dual_curve(_draw_model(kind, data), side)
        ell, _ = TestConjugateProperties._target(curve, frac)
        assert _outcome(solve_tilt, curve, ell) == _outcome(capped_solve_tilt, curve, ell)


def lookup_first_solve_tilt(curve: DualCurve, target: float) -> float:
    """Reference copy of ``solve_tilt`` as it was before its loop read only in-noise
    values from the dict: every midpoint is looked up among all known values before
    the clear points decide it, and slopes are read through ``curve._slope``."""
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
    noise = _SLOPE_NOISE * abs(aim) if curve._deriv is not None else math.inf
    known = {}
    clear = [-math.inf, math.inf]

    def g(s):
        value = known[s] = curve._slope(s) - aim
        if value < -noise:
            clear[0] = max(clear[0], s)
        elif value > noise:
            clear[1] = min(clear[1], s)
        return value

    lo = 1e-12 * min(reach, 1.0)
    short, g_short = 0.0, sign * d0 - aim
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
        duality._probe(g, clear, noise, short, g_short, hi, g_hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid in known:
            value = known[mid]
        elif mid <= clear[0]:
            value = -math.inf
        elif mid >= clear[1]:
            value = math.inf
        else:
            value = g(mid)
        if value < 0.0 if up else not value > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    theta, residual = sign * mid, sign * (known[mid] if mid in known else g(mid))
    if not abs(residual) <= _TILT_FTOL * max(1.0, abs(ell)) and not (
        noise < math.inf and math.nextafter(lo, hi) == hi and g(lo) < 0.0 < g(hi)
    ):
        raise BracketFailure(
            f"bisection stalled at theta={theta} with derivative residual {residual:.3e}"
        )
    return theta


def noisy_bs_curve(side: Side) -> DualCurve:
    """BS curve with Lambda' up to 2^-49 relative off, in no order from one float to the next."""

    def deriv(t):
        return Q / ((1.0 - t) * (1.0 - t)) * (1.0 + 2.0**-49 * math.sin(1e16 * t))

    return DualCurve(
        side, lambda t: Q * t / (1.0 - t), deriv=deriv, theta_bar=1.0,
        deriv_at_zero=Q, deriv_at_lower_limit=0.0, deriv_at_upper_limit=math.inf,
    )


class TestBandOnlyLoop:
    """``solve_tilt`` evaluates the arguments, in the order, and returns the tilt bits
    and errors of the loop that looked up every known value first."""

    @staticmethod
    def _trace(solve, curve, ell):
        curve.deriv_at_zero, curve._far_slope  # the cached limits are read outside the trace
        calls = []
        deriv = DualCurve.deriv
        DualCurve.deriv = lambda self, t: calls.append(t) or deriv(self, t)
        try:
            outcome = _outcome(solve, curve, ell)
        finally:
            DualCurve.deriv = deriv
        return outcome, [t.hex() for t in calls]

    def _check(self, curve, ell):
        new = self._trace(solve_tilt, curve, ell)
        assert new == self._trace(lookup_first_solve_tilt, curve, ell)
        return new

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("kind", ["bs", "factor", "ou", "finite_difference"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), frac=st.floats(-0.25, 1.25))
    def test_same_evaluations_and_tilt(self, kind, side, data, frac):
        if kind == "finite_difference":
            m = _draw_model("bs", data)
            curve = black_box_bs(side, q=m.b**2 / (2.0 * m.sigma**2))
        else:
            curve = models.dual_curve(_draw_model(kind, data), side)
        ell, _ = TestConjugateProperties._target(curve, frac)
        self._check(curve, ell)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_same_evaluations_under_rounding_noise(self, side):
        for frac in np.linspace(0.05, 0.95, 19):
            curve = noisy_bs_curve(side)
            ell, _ = TestConjugateProperties._target(curve, float(frac))
            outcome, calls = self._check(curve, ell)
            assert isinstance(outcome, str) and len(calls) > 3
