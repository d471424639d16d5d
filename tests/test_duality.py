"""Conjugation engine tests against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest

from growthtail import (
    MINUS_INFINITY,
    BlackScholesModel,
    DualCurve,
    LinearFactor1D,
    PlatenRebolledo,
    Regime,
    Side,
    bs_dual,
    check_curve,
    conjugate_downside,
    conjugate_upside,
    frontier,
    lg1d_gamma_curve,
    models,
    near_optimal_tilt,
    solve_tilt,
)
from growthtail.errors import BeyondSteepLimit, BracketFailure, TargetOutOfRange

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

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    @pytest.mark.parametrize("model", MODELS, ids=["bs", "factor", "ou"])
    def test_building_a_model_curve_evaluates_nothing(self, gamma_calls, model, side):
        models.dual_curve(model, side)
        assert gamma_calls == []

    def test_building_a_black_box_curve_evaluates_nothing(self):
        calls = []
        curve = DualCurve(
            Side.UPSIDE, lambda t: calls.append(t) or Q * t / (1.0 - t), theta_bar=1.0
        )
        assert calls == []
        assert curve.steep  # the upper limit is probed on this first read
        assert calls

    def test_lower_limit_probed_once(self, gamma_calls):
        curve = models.dual_curve(self.MODELS[1], Side.DOWNSIDE)
        first = curve.deriv_at_lower_limit
        n = len(gamma_calls)
        assert n > 0
        assert curve.deriv_at_lower_limit == first
        assert len(gamma_calls) == n


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

    def test_evaluation_clamped_at_boundary(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        assert math.isfinite(curve.value(1.0))
        assert math.isfinite(curve.value(2.0))
        assert curve.value(1.0) > 1e6
