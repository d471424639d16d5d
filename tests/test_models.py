"""Model backend tests: closed forms, reductions, and root certificates."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthtail import (
    BlackScholesModel,
    FeedbackPolicy,
    LinearFactor1D,
    PlatenRebolledo,
    Regime,
    Side,
    bs_dual,
    bs_gamma,
    bs_policy,
    bs_prob_exact,
    conjugate_downside,
    conjugate_upside,
    dual_curve,
    lg1d_beta_thetabar,
    lg1d_D,
    lg1d_gamma,
    lg1d_gamma_curve,
    lg1d_policy,
    lg1d_riccati_roots,
    model_from_dict,
    policy_at_tilt,
    policy_for_target,
    pr_bounds,
    pr_rates,
    pr_tilt,
    rate_for_target,
)
from growthtail.errors import DomainError, TargetOutOfRange

from conftest import bs_tail_oracle, closed_loop_drift, scalar_riccati_oracle


class TestBlackScholes:
    def test_gamma_at_zero(self, bs):
        assert bs_gamma(bs, 0.0, 7.3) == 0.0

    def test_gamma_at_optimal_fraction(self, bs):
        # pi = b / (sigma^2 (1-theta)) = 5 at theta = 0.5
        assert bs_gamma(bs, 0.5, 5.0) == pytest.approx(0.125, abs=1e-15)
        # equals the dual curve value at the same tilt
        assert bs_gamma(bs, 0.5, 5.0) == pytest.approx(
            bs_dual(bs, Side.UPSIDE).value(0.5), abs=1e-15
        )

    def test_gamma_variance_term_vanishes_at_one(self, bs):
        for pi in (-2.0, 0.3, 11.0):
            assert bs_gamma(bs, 1.0, pi) == pytest.approx(bs.b * pi, abs=1e-15)

    def test_dual_derivative_at_zero(self, bs):
        assert bs_dual(bs, Side.UPSIDE).deriv_at_zero == pytest.approx(0.125, abs=1e-15)

    def test_dual_blows_up_at_boundary(self, bs):
        curve = bs_dual(bs, Side.UPSIDE)
        assert curve.steep
        assert curve.value(1.0 - 1e-9) > 1e6

    def test_dual_downside_value(self, bs):
        assert bs_dual(bs, Side.DOWNSIDE).value(-1.0) == pytest.approx(-0.0625, abs=1e-15)

    def test_policy_cases(self, bs):
        assert bs_policy(bs, 0.245, Side.UPSIDE).intercept == pytest.approx(3.5, abs=1e-12)
        assert bs_policy(bs, 0.1, Side.UPSIDE).intercept == pytest.approx(2.5, abs=1e-12)
        assert bs_policy(bs, -0.01, Side.DOWNSIDE).intercept == 0.0
        assert bs_policy(bs, 0.045, Side.DOWNSIDE).intercept == pytest.approx(1.5, abs=1e-12)
        with pytest.raises(TargetOutOfRange):
            bs_policy(bs, 0.2, Side.DOWNSIDE)

    @pytest.mark.parametrize("b", [0.1, -0.1])
    @pytest.mark.parametrize("side, ell", [(Side.UPSIDE, 0.245), (Side.DOWNSIDE, 0.045)])
    def test_policy_for_target_is_policy_at_conjugate_tilt(self, b, side, ell):
        # the optimal fraction carries the sign of the drift
        model = BlackScholesModel(b=b, sigma=0.2)
        rate = rate_for_target(model, ell, side)
        assert rate.regime is Regime.INTERIOR
        got = policy_for_target(model, ell, side, rate=rate).intercept
        assert got == pytest.approx(policy_at_tilt(model, rate.tilt).intercept, abs=1e-12)
        assert math.copysign(1.0, got) == math.copysign(1.0, b)

    def test_policy_at_tilt_merton_limit(self, bs):
        assert policy_at_tilt(bs, 0.0).intercept == pytest.approx(2.5, abs=1e-15)
        assert policy_at_tilt(bs, 0.5).intercept == pytest.approx(5.0, abs=1e-15)

    def test_prob_exact_at_mean(self, bs):
        pi = 3.5
        mean = bs.b * pi - bs.sigma**2 * pi**2 / 2
        assert bs_prob_exact(bs, pi, mean, 17.0, Side.UPSIDE) == pytest.approx(0.5, abs=1e-12)

    def test_prob_exact_degenerate(self, bs):
        assert bs_prob_exact(bs, 0.0, -0.1, 5.0, Side.DOWNSIDE) == 0.0
        assert bs_prob_exact(bs, 0.0, 0.1, 5.0, Side.DOWNSIDE) == 1.0
        assert bs_prob_exact(bs, 0.0, -0.1, 5.0, Side.UPSIDE) == 1.0

    def test_prob_exact_against_scipy(self, bs):
        got = bs_prob_exact(bs, 3.5, 0.245, 10.0, Side.UPSIDE)
        assert got == pytest.approx(bs_tail_oracle(bs, 3.5, 0.245, 10.0), abs=1e-13)
        assert got == pytest.approx(0.2635, abs=2e-4)

    @pytest.mark.parametrize("ell", [math.nan, math.inf])
    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_policy_rejects_nan_and_infinite_target(self, bs, side, ell):
        # an infinite upside target used to give intercept inf, a NaN one NaN
        for policy in (bs_policy, policy_for_target):
            with pytest.raises(TargetOutOfRange):
                policy(bs, ell, side)
        with pytest.raises(TargetOutOfRange):
            rate_for_target(bs, ell, side)

    def test_policy_at_minus_infinity(self, bs):
        # free upside (the log-optimal fraction), unreachable downside (all cash)
        assert rate_for_target(bs, -math.inf, Side.UPSIDE).regime is Regime.FREE
        assert bs_policy(bs, -math.inf, Side.UPSIDE).intercept == bs.b / bs.sigma**2
        assert rate_for_target(bs, -math.inf, Side.DOWNSIDE).regime is Regime.UNREACHABLE
        assert bs_policy(bs, -math.inf, Side.DOWNSIDE).intercept == 0.0

    @pytest.mark.parametrize(
        "theta, pi", [(math.nan, 2.5), (math.inf, 2.5), (0.5, math.nan), (0.5, -math.inf)]
    )
    def test_gamma_rejects_non_finite(self, bs, theta, pi):
        with pytest.raises(ValueError, match="finite"):
            bs_gamma(bs, theta, pi)

    @pytest.mark.parametrize(
        "pi, ell, horizon",
        [(3.5, math.nan, 10.0), (math.nan, 0.245, 10.0), (math.inf, 0.245, 10.0),
         (0.0, math.nan, 10.0), (3.5, 0.245, math.inf), (3.5, 0.245, math.nan)],
    )
    def test_prob_exact_rejects_nan(self, bs, pi, ell, horizon):
        for side in Side:
            with pytest.raises(ValueError):
                bs_prob_exact(bs, pi, ell, horizon, side)

    def test_prob_exact_infinite_target(self, bs):
        # the tail of a Gaussian at +-inf: 0 or 1, not an error
        assert bs_prob_exact(bs, 3.5, math.inf, 10.0, Side.UPSIDE) == 0.0
        assert bs_prob_exact(bs, 3.5, -math.inf, 10.0, Side.UPSIDE) == 1.0
        assert bs_prob_exact(bs, 3.5, -math.inf, 10.0, Side.DOWNSIDE) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlackScholesModel(b=0.1, sigma=0.0)

    @pytest.mark.parametrize("field", ["b", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            BlackScholesModel(**{"b": 0.1, "sigma": 0.2, field: bad})


class TestConstantRecord:
    """The closed forms' per-model constants always match the model's fields."""

    BASE = LinearFactor1D(K=-1.2, B1=0.8, B0=0.4, sigma_norm=0.9, gamma_norm=1.1, rho=0.5)

    @staticmethod
    def constants(model):
        curves = [lg1d_gamma_curve(model, side) for side in Side]
        return lg1d_beta_thetabar(model), [
            (c.theta_bar, c.deriv_at_zero, c.deriv_at_upper_limit, c.deriv_at_lower_limit)
            for c in curves
        ]

    @pytest.mark.parametrize("field, value", [("B1", -2.0), ("rho", 1.0), ("rho", -0.3)])
    def test_replace_derives_afresh(self, field, value):
        before = self.constants(self.BASE)  # the base's constants are derived and kept
        changed = replace(self.BASE, **{field: value})
        fresh = LinearFactor1D(**{**asdict(self.BASE), field: value})
        assert self.constants(changed) == self.constants(fresh) != before
        assert self.constants(self.BASE) == before

    def test_as_linear_factor_matches_fresh_construction(self, pr):
        self.constants(pr)
        lf = pr.as_linear_factor()
        fresh = LinearFactor1D(K=pr.K, B1=pr.K, B0=0.5 * pr.sigma_norm**2,
                               sigma_norm=pr.sigma_norm, gamma_norm=pr.sigma_norm, rho=1.0)
        assert self.constants(lf) == self.constants(fresh) == self.constants(pr)


class TestLinearFactorScalars:
    def test_beta_thetabar_pr_degenerate(self, pr):
        beta, theta_bar = lg1d_beta_thetabar(pr.as_linear_factor())
        assert beta == pytest.approx(0.0, abs=1e-15)
        assert theta_bar == 1.0

    def test_beta_thetabar_rho0(self, lg_rho0):
        beta, theta_bar = lg1d_beta_thetabar(lg_rho0)
        assert beta == pytest.approx(2.0, abs=1e-15)
        assert theta_bar == pytest.approx(0.5, abs=1e-15)

    def test_beta_thetabar_no_loading(self):
        for rho in (-0.7, 0.0, 0.4):
            m = LinearFactor1D(K=-1.0, B1=0.0, B0=0.3, sigma_norm=0.5, gamma_norm=0.8, rho=rho)
            beta, theta_bar = lg1d_beta_thetabar(m)
            assert beta == pytest.approx(1.0, abs=1e-15)
            assert theta_bar == 1.0

    def test_roots_at_zero(self, lg_rho0):
        c_minus, _ = lg1d_riccati_roots(lg_rho0, 0.0)
        assert c_minus == 0.0

    def test_roots_rho0_frozen_value(self, lg_rho0):
        c_minus, _ = lg1d_riccati_roots(lg_rho0, -1.0)
        assert c_minus == pytest.approx(1.0 - math.sqrt(1.5), abs=1e-12)
        assert c_minus == pytest.approx(scalar_riccati_oracle(lg_rho0, -1.0), abs=1e-12)

    def test_roots_pr_closed_form(self, pr):
        c_minus, _ = lg1d_riccati_roots(pr.as_linear_factor(), 0.5)
        assert c_minus == pytest.approx(12.5 * (1.0 - math.sqrt(0.5)), abs=1e-10)

    def test_roots_match_polynomial_oracle_on_grid(self, lg_rho05):
        _, theta_bar = lg1d_beta_thetabar(lg_rho05)
        for theta in np.linspace(-2.0, theta_bar - 1e-3, 15):
            if theta == 0.0:
                continue
            got = lg1d_riccati_roots(lg_rho05, float(theta))[0]
            assert got == pytest.approx(scalar_riccati_oracle(lg_rho05, float(theta)), abs=1e-10)

    def test_roots_domain_error(self, lg_rho0):
        with pytest.raises(DomainError):
            lg1d_riccati_roots(lg_rho0, 0.6)

    def test_scalar_riccati_residual_invariant(self, lg_rho05):
        # substitute the selected root back into the quadratic
        _, theta_bar = lg1d_beta_thetabar(lg_rho05)
        s, g, rho = lg_rho05.sigma_norm, lg_rho05.gamma_norm, lg_rho05.rho
        for theta in np.linspace(-1.5, theta_bar - 1e-3, 20):
            t1 = theta / (1.0 - theta)
            M = g**2 * (1.0 + t1 * rho**2)
            Kt = lg_rho05.K + t1 * rho * g * lg_rho05.B1 / s
            N = 0.5 * t1 * lg_rho05.B1**2 / s**2
            c = lg1d_riccati_roots(lg_rho05, float(theta))[0]
            assert abs(0.5 * M * c * c + Kt * c + N) <= 1e-10

    def test_root_selection_stabilizes(self, lg_rho0, lg_rho05, pr):
        for model in (lg_rho0, lg_rho05, pr.as_linear_factor()):
            _, theta_bar = lg1d_beta_thetabar(model)
            for theta in np.linspace(-3.0, theta_bar - 1e-4, 25):
                c_minus, c_plus = lg1d_riccati_roots(model, float(theta))
                assert closed_loop_drift(model, float(theta), c_minus) < 0.0
                if theta != 0.0:
                    assert closed_loop_drift(model, float(theta), c_plus) > -1e-12

    def test_D_values(self, lg_rho0, pr):
        assert lg1d_D(lg_rho0, 0.0) == 0.0
        assert lg1d_D(lg_rho0, -1.0) == pytest.approx(-0.5 / math.sqrt(6.0), abs=1e-12)
        assert lg1d_D(pr.as_linear_factor(), 0.5) == pytest.approx(-0.25, abs=1e-12)

    def test_D_domain_error_at_boundary(self, lg_rho0):
        with pytest.raises(DomainError):
            lg1d_D(lg_rho0, 0.5)
        # the root itself is still defined at the boundary
        lg1d_riccati_roots(lg_rho0, 0.5)

    def test_gamma_values(self, lg_rho0):
        assert lg1d_gamma(lg_rho0, 0.0) == 0.0
        assert lg1d_gamma(lg_rho0, -1.0) == pytest.approx(-0.15403910236246117, abs=1e-10)

    def test_gamma_bs_reduction(self):
        # no factor loading: the curve collapses to the constant-drift formula
        m = LinearFactor1D(K=-2.0, B1=0.0, B0=0.1, sigma_norm=0.2, gamma_norm=0.7, rho=0.3)
        q = 0.1**2 / (2 * 0.2**2)
        for theta in (-2.0, -0.5, 0.3, 0.9):
            assert lg1d_gamma(m, theta) == pytest.approx(q * theta / (1 - theta), abs=1e-10)
        assert lg1d_policy(m, 0.4).gain == pytest.approx(0.0, abs=1e-12)
        assert lg1d_policy(m, 0.4).intercept == pytest.approx(0.1 / (0.04 * 0.6), abs=1e-10)

    def test_gamma_prime_zero_explicit(self, lg_rho0):
        slope = lg1d_gamma_curve(lg_rho0, Side.UPSIDE).deriv_at_zero
        assert slope == pytest.approx(0.375, abs=1e-15)

    def test_gamma_prime_zero_no_loading(self):
        m = LinearFactor1D(K=-1.0, B1=0.0, B0=0.3, sigma_norm=0.5, gamma_norm=0.8, rho=0.2)
        for side in Side:
            slope = lg1d_gamma_curve(m, side).deriv_at_zero
            assert slope == pytest.approx(0.3**2 / (2 * 0.25), abs=1e-15)

    def test_gamma_prime_zero_matches_central_difference(self):
        # |gamma| != 1 and rho != 0: the implicit-function derivative
        # B0^2/(2 s^2) - g^2 B1^2/(4 K s^2) against a difference of the value
        m = LinearFactor1D(K=-1.3, B1=0.7, B0=0.6, sigma_norm=0.8, gamma_norm=1.7, rho=-0.4)
        expected = m.B0**2 / (2 * m.sigma_norm**2) - m.gamma_norm**2 * m.B1**2 / (
            4 * m.K * m.sigma_norm**2
        )
        h = 1e-6
        numeric = (lg1d_gamma(m, h) - lg1d_gamma(m, -h)) / (2 * h)
        assert numeric == pytest.approx(expected, abs=1e-6)
        assert lg1d_gamma_curve(m, Side.UPSIDE).deriv_at_zero == pytest.approx(expected, rel=1e-15)

    def test_gamma_prime_zero_positive_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = LinearFactor1D(
                K=-float(rng.uniform(0.1, 3.0)),
                B1=float(rng.uniform(-2.0, 2.0)),
                B0=float(rng.uniform(0.1, 2.0)),
                sigma_norm=float(rng.uniform(0.1, 2.0)),
                gamma_norm=float(rng.uniform(0.1, 2.0)),
                rho=float(rng.uniform(-1.0, 1.0)),
            )
            assert lg1d_gamma_curve(m, Side.UPSIDE).deriv_at_zero > 0.0

    @pytest.mark.parametrize("fn", [lg1d_gamma, lg1d_D, lg1d_policy])
    def test_domain_error_at_and_past_theta_bar(self, lg_rho0, fn):
        # beta = 2 > 1, so theta_bar = 1/2 lies inside (0, 1)
        _, theta_bar = lg1d_beta_thetabar(lg_rho0)
        assert theta_bar == 0.5
        for theta in (theta_bar, 0.5 * (theta_bar + 1.0)):
            with pytest.raises(DomainError, match="theta_bar"):
                fn(lg_rho0, theta)

    @pytest.mark.parametrize("fn", [lg1d_D, lg1d_policy, policy_at_tilt])
    def test_overflowing_solve_raises(self, lg_rho05, fn):
        # C and D overflow at theta = -1e308, as Gamma does: -inf and NaN
        # coefficients must not come back as a policy or a D
        with pytest.raises(OverflowError, match="overflows the closed form"):
            fn(lg_rho05, -1e308)

    def test_policy_pr_closed_forms(self, pr):
        lf = pr.as_linear_factor()
        theta = pr_tilt(pr, 0.155)
        assert theta == pytest.approx(11.0 / 36.0, abs=1e-12)
        pol = lg1d_policy(lf, theta)
        assert pol.gain == pytest.approx(-15.0, abs=1e-10)
        assert pol.intercept == pytest.approx(0.5, abs=1e-12)
        pol_down = lg1d_policy(lf, pr_tilt(pr, 0.045))
        assert pol_down.gain == pytest.approx(-4.0, abs=1e-10)
        assert pol_down.intercept == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearFactor1D(K=0.1, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=0.0)
        with pytest.raises(ValueError):
            LinearFactor1D(K=-1.0, B1=1.0, B0=0.0, sigma_norm=1.0, gamma_norm=1.0, rho=0.0)
        with pytest.raises(ValueError):
            LinearFactor1D(K=-1.0, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=1.5)

    @pytest.mark.parametrize("field", ["K", "B1", "B0", "sigma_norm", "gamma_norm", "rho"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        fields = dict(K=-1.0, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=0.0)
        with pytest.raises(ValueError, match="finite"):
            LinearFactor1D(**{**fields, field: bad})


class TestPlatenRebolledo:
    def test_bounds(self, pr):
        ell_lower, ell_upper = pr_bounds(pr)
        assert ell_lower == pytest.approx(0.005, abs=1e-15)
        assert ell_upper == pytest.approx(0.13, abs=1e-15)

    def test_upside_rate(self, pr):
        rate = pr_rates(pr, 0.155, Side.UPSIDE)
        assert rate.value == pytest.approx(-0.000625 / 0.15, abs=1e-15)
        assert rate.tilt == pytest.approx(11.0 / 36.0, abs=1e-12)

    def test_boundary_target_rate_zero(self, pr):
        assert pr_rates(pr, 0.13, Side.UPSIDE).as_float() == 0.0
        assert pr_rates(pr, 0.13, Side.DOWNSIDE).as_float() == pytest.approx(0.0, abs=1e-15)

    def test_downside_unreachable(self, pr):
        assert pr_rates(pr, 0.004, Side.DOWNSIDE).regime is Regime.UNREACHABLE

    def test_downside_value(self, pr):
        rate = pr_rates(pr, 0.045, Side.DOWNSIDE)
        assert rate.value == pytest.approx(-(0.085**2) / 0.04, abs=1e-15)

    def test_downside_above_range(self, pr):
        with pytest.raises(TargetOutOfRange):
            pr_rates(pr, 0.2, Side.DOWNSIDE)

    @pytest.mark.parametrize("ell", [math.inf, math.nan])
    def test_target_not_finite_rejected(self, pr, ell):
        # as rate_for_target does; a tilt of 1 would lie outside theta < 1
        with pytest.raises(TargetOutOfRange):
            pr_tilt(pr, ell)
        for side in Side:
            with pytest.raises(TargetOutOfRange):
                pr_rates(pr, ell, side)
            with pytest.raises(TargetOutOfRange):
                rate_for_target(pr, ell, side)

    def test_minus_infinity_keeps_its_regimes(self, pr):
        assert pr_rates(pr, -math.inf, Side.UPSIDE).regime is Regime.FREE
        assert pr_rates(pr, -math.inf, Side.DOWNSIDE).regime is Regime.UNREACHABLE

    def test_rates_match_generic_engine(self, pr):
        lf = pr.as_linear_factor()
        up = lg1d_gamma_curve(lf, Side.UPSIDE)
        for ell in np.linspace(0.135, 0.3, 9):
            closed = pr_rates(pr, float(ell), Side.UPSIDE)
            engine = conjugate_upside(up, float(ell))
            assert engine.value == pytest.approx(closed.value, abs=1e-9)
            assert engine.tilt == pytest.approx(closed.tilt, abs=1e-7)
        down = lg1d_gamma_curve(lf, Side.DOWNSIDE)
        for ell in np.linspace(0.01, 0.12, 9):
            closed = pr_rates(pr, float(ell), Side.DOWNSIDE)
            engine = conjugate_downside(down, float(ell))
            assert engine.value == pytest.approx(closed.value, abs=1e-9)

    def test_curve_has_closed_form_derivative_and_limits(self, pr):
        ell_lower, ell_upper = pr_bounds(pr)
        up, down = dual_curve(pr, Side.UPSIDE), dual_curve(pr, Side.DOWNSIDE)
        assert up.deriv_at_zero == down.deriv_at_zero == ell_upper
        assert down.deriv_at_lower_limit == ell_lower and up.steep
        # Gamma' against a central difference of the Riccati-built curve value
        for curve, thetas in ((up, (0.1, 0.5, 0.9)), (down, (-50.0, -3.0, -0.5))):
            for theta in thetas:
                h = 1e-5
                cd = (lg1d_gamma(pr, theta + h) - lg1d_gamma(pr, theta - h)) / (2.0 * h)
                assert curve.deriv(theta) == pytest.approx(cd, rel=1e-8)

    @pytest.mark.parametrize(
        "side, grid", [(Side.UPSIDE, (0.1, 0.5)), (Side.DOWNSIDE, (0.001, 0.125))]
    )
    def test_rate_for_target_agrees_with_closed_forms(self, pr, side, grid):
        # the engine route, with the rational formulas as its oracle
        for ell in np.linspace(*grid, 17):
            got, closed = rate_for_target(pr, float(ell), side), pr_rates(pr, float(ell), side)
            assert got.regime is closed.regime
            if closed.regime is Regime.INTERIOR:
                assert abs(got.value - closed.value) <= 1e-12 * max(1.0, abs(closed.value))
                assert got.tilt == pytest.approx(closed.tilt, rel=1e-9, abs=1e-12)
            else:
                assert got == closed


class TestReductions:
    def test_pr_subset_lg1d(self, pr):
        # every quantity of the rational model equals the general scalar
        # model under the embedding substitution
        lf = pr.as_linear_factor()
        sig2 = pr.sigma_norm**2
        for theta in np.linspace(-6.0, 0.95, 24):
            theta = float(theta)
            c_closed = (abs(pr.K) / sig2) * (1.0 - math.sqrt(1.0 - theta))
            assert lg1d_riccati_roots(lf, theta)[0] == pytest.approx(c_closed, abs=1e-10)
            assert lg1d_D(lf, theta) == pytest.approx(-0.5 * theta, abs=1e-10)
            gamma_closed = 0.5 * abs(pr.K) * (1.0 - math.sqrt(1.0 - theta)) + theta * sig2 / 8.0
            assert lg1d_gamma(lf, theta) == pytest.approx(gamma_closed, abs=1e-10)

    def test_pr_thresholds_match_generic_machinery(self, pr):
        # the rational bounds are the curve's derivative at zero and its
        # limit at minus infinity
        lf = pr.as_linear_factor()
        ell_lower, ell_upper = pr_bounds(pr)
        curve = lg1d_gamma_curve(lf, Side.DOWNSIDE)
        assert curve.deriv_at_zero == pytest.approx(ell_upper, abs=1e-6)
        assert curve.deriv_at_lower_limit == pytest.approx(ell_lower, abs=1e-6)

    def test_pr_tilt_matches_curve_derivative(self, pr):
        lf = pr.as_linear_factor()
        curve = lg1d_gamma_curve(lf, Side.UPSIDE)
        for ell in (0.14, 0.155, 0.2):
            theta = pr_tilt(pr, ell)
            assert curve.deriv(theta) == pytest.approx(ell, abs=1e-7)

    def test_bs_subset_lg1d(self, bs):
        lf = LinearFactor1D(
            K=-1.7, B1=0.0, B0=bs.b, sigma_norm=bs.sigma, gamma_norm=0.9, rho=0.1
        )
        q = bs.b**2 / (2 * bs.sigma**2)
        for theta in np.linspace(-4.0, 0.97, 21):
            theta = float(theta)
            assert lg1d_gamma(lf, theta) == pytest.approx(q * theta / (1 - theta), abs=1e-10)
        for theta in (-1.0, 0.0, 0.6):
            pol = lg1d_policy(lf, theta)
            assert pol.gain == pytest.approx(0.0, abs=1e-14)
            assert pol.intercept == pytest.approx(
                bs.b / (bs.sigma**2 * (1.0 - theta)), abs=1e-10
            )


def _check_slope_and_convexity(model: LinearFactor1D) -> None:
    # closed-form Gamma'(0) against a central difference of the value, step
    # 1e-4 min(1, theta_bar); Gamma(0) = 0; midpoint convexity inside (-5, theta_bar)
    _, theta_bar = lg1d_beta_thetabar(model)
    h = 1e-4 * min(1.0, theta_bar)
    numeric = (lg1d_gamma(model, h) - lg1d_gamma(model, -h)) / (2.0 * h)
    for side in Side:
        curve = lg1d_gamma_curve(model, side)
        assert curve.deriv_at_zero == pytest.approx(numeric, rel=1e-6)
        assert curve.value(0.0) == 0.0
    lam = [lg1d_gamma(model, float(t)) for t in np.linspace(-5.0, theta_bar, 41)[1:-1]]
    for a, mid, b in zip(lam, lam[1:], lam[2:]):
        assert mid <= 0.5 * (a + b) + 1e-10 * (1.0 + abs(a) + abs(b))


class TestSlopeAtZeroProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        K=st.floats(-3.0, -0.1),
        B1=st.floats(-2.0, 2.0),
        B0=st.floats(0.1, 2.0),
        s=st.floats(0.1, 2.0),
        g=st.floats(0.1, 2.0),
        rho=st.floats(-1.0, 1.0),
    )
    def test_factor_models(self, K, B1, B0, s, g, rho):
        # the ranges of the acceptance suite's random factor models
        _check_slope_and_convexity(
            LinearFactor1D(K=K, B1=B1, B0=B0, sigma_norm=s, gamma_norm=g, rho=rho)
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(K=st.floats(-3.0, -0.1), s=st.floats(0.1, 2.0))
    def test_ou_log_price_models(self, K, s):
        pr = PlatenRebolledo(K=K, sigma_norm=s)
        for side in Side:
            assert lg1d_gamma_curve(pr, side).deriv_at_zero == pytest.approx(
                pr_bounds(pr)[1], rel=1e-14, abs=0.0
            )
        _check_slope_and_convexity(pr)


class TestSteepness:
    def test_geometric_approach_exceeds_threshold(self, bs, lg_rho0, lg_rho05):
        # derivative strictly increasing along theta_bar*(1 - 2^-k) and
        # crossing 1e6 strictly inside the domain
        cases = [
            bs_dual(bs, Side.UPSIDE),
            lg1d_gamma_curve(lg_rho0, Side.UPSIDE),
            lg1d_gamma_curve(lg_rho05, Side.UPSIDE),
        ]
        for i, curve in enumerate(cases):
            tb = curve.theta_bar
            ders = [curve.deriv(tb * (1.0 - 2.0**-k)) for k in range(2, 26)]
            assert all(b > a for a, b in zip(ders, ders[1:]))
            crossed = [tb * (1.0 - 2.0**-k) for k, d in enumerate(ders, start=2) if d > 1e6]
            assert crossed, f"derivative never exceeded 1e6 for curve {i}"
            assert crossed[0] < tb - 1e-10

    def test_pr_curve_derivative_increases_to_clamp(self, pr):
        # the degenerate-correlation curve is steep but with a square-root
        # rate: the 1e6 crossing sits inside the boundary clamp, so only
        # monotone growth is asserted here
        curve = lg1d_gamma_curve(pr.as_linear_factor(), Side.UPSIDE)
        ders = [curve.deriv(1.0 - 2.0**-k) for k in range(2, 24)]
        assert all(b > a for a, b in zip(ders, ders[1:]))


class TestPolicyDispatch:
    def test_policy_for_target_regimes(self, bs, pr):
        assert policy_for_target(bs, 0.245, Side.UPSIDE).intercept == pytest.approx(3.5, 1e-10)
        pol = policy_for_target(pr, 0.155, Side.UPSIDE)
        assert pol.gain == pytest.approx(-15.0, abs=1e-9)
        free = policy_for_target(pr, 0.1, Side.UPSIDE)
        assert free.gain == pytest.approx(pr.K / pr.sigma_norm**2, abs=1e-10)
        assert free.intercept == pytest.approx(0.5, abs=1e-12)
        zero = policy_for_target(pr, 0.004, Side.DOWNSIDE)
        assert zero.gain == 0.0 and zero.intercept == 0.0

    @pytest.mark.parametrize("theta", [math.nan, -math.inf], ids=["nan", "-inf"])
    @pytest.mark.parametrize(
        "call",
        [
            "lg1d_gamma", "lg1d_D", "quadratic_pair", "lg1d_policy", "policy_at_tilt_bs",
            "quadratic_pair_bs",
        ],
    )
    def test_tilt_not_finite_is_domain_error(self, bs, lg_rho05, call, theta):
        calls = {
            "lg1d_gamma": lambda: lg1d_gamma(lg_rho05, theta),
            "lg1d_D": lambda: lg1d_D(lg_rho05, theta),
            "quadratic_pair": lambda: lg_rho05.quadratic_pair(theta),
            "lg1d_policy": lambda: lg1d_policy(lg_rho05, theta),
            "policy_at_tilt_bs": lambda: policy_at_tilt(bs, theta),
            "quadratic_pair_bs": lambda: bs.quadratic_pair(theta),
        }
        with pytest.raises(DomainError, match="not finite"):
            calls[call]()

    def test_policy_arrays(self):
        pol = FeedbackPolicy(gain=0.0, intercept=2.5)
        gain, intercept = pol.as_arrays(1, 0)
        assert gain.shape == (1, 0)
        assert intercept.tolist() == [2.5]


class TestModelFromDict:
    def test_three_forms(self):
        assert isinstance(model_from_dict({"b": 0.1, "sigma": 0.2}), BlackScholesModel)
        assert isinstance(model_from_dict({"K": -0.5, "sigma_norm": 0.2}), PlatenRebolledo)
        lg = model_from_dict(
            {"K": -1.0, "B1": 1.0, "B0": 0.5, "sigma_norm": 1.0, "gamma_norm": 1.0, "rho": 0.0}
        )
        assert isinstance(lg, LinearFactor1D)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"b": 0.1})
        with pytest.raises(ValueError):
            model_from_dict({"b": 0.1, "sigma": 0.2, "extra": 1.0})
