"""Matrix Riccati solver tests against scalar closed forms and scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthtail import (
    LinearFactor1D,
    LinearFactorMD,
    PlatenRebolledo,
    gamma_md,
    lg1d_beta_thetabar,
    lg1d_D,
    lg1d_gamma,
    lg1d_policy,
    lg1d_riccati_roots,
    policy_md,
    riccati_residual,
    solve_care,
    theta_sweep,
)
from growthtail import riccati
from growthtail.errors import DomainError, NoStabilizingSolution
from growthtail.riccati import _coefficients, _eig_max_real, model_from_dict


def embed_1d(K, B1, B0, s, g, rho) -> LinearFactorMD:
    """d=m=1 embedding with sigma=(s,0) and gamma=(rho*g, sqrt(1-rho^2)*g)."""
    return LinearFactorMD(
        K=[[K]],
        B1=[[B1]],
        B0=[B0],
        sigma=[[s, 0.0]],
        gamma=[[rho * g, math.sqrt(max(0.0, 1.0 - rho**2)) * g]],
    )


def scalar_twin(K, B1, B0, s, g, rho) -> LinearFactor1D:
    return LinearFactor1D(K=K, B1=B1, B0=B0, sigma_norm=s, gamma_norm=g, rho=rho)


EMBEDDINGS = [
    (-1.0, 1.0, 0.5, 1.0, 1.0, 0.0),
    (-0.5, -0.5, 0.02, 0.2, 0.2, 1.0),  # OU log-price special case
    (-1.2, 0.8, 0.4, 0.9, 1.1, 0.5),
]


def synthetic_m2() -> LinearFactorMD:
    rng = np.random.default_rng(7)
    return LinearFactorMD(
        K=np.diag([-1.0, -2.0]),
        B1=0.5 * rng.normal(size=(2, 2)),
        B0=np.array([0.5, 0.3]),
        sigma=np.hstack([np.diag([0.3, 0.4]), 0.05 * rng.normal(size=(2, 2))]),
        gamma=np.hstack([0.05 * rng.normal(size=(2, 2)), np.diag([0.6, 0.7])]),
    )


def random_md(rng, m: int, d: int) -> LinearFactorMD:
    """Random valid model: -(SPD) + skew is Hurwitz, Gaussian sigma has full row rank."""
    q = d + m
    A, S = rng.normal(size=(m, m)), rng.normal(size=(m, m))
    return LinearFactorMD(
        K=-(A @ A.T / m + rng.uniform(0.2, 1.0) * np.eye(m)) + 0.5 * (S - S.T),
        B1=rng.uniform(-1.0, 1.0, size=(d, m)),
        B0=rng.uniform(0.1, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d),
        sigma=rng.normal(scale=0.5, size=(d, q)),
        gamma=rng.normal(scale=0.5, size=(m, q)),
    )


class TestSolveCare:
    def test_zero_tilt_is_zero(self):
        model = synthetic_m2()
        qv = solve_care(model, 0.0)
        assert np.all(qv.C == 0.0)
        assert np.all(qv.D == 0.0)

    def test_rho0_embedding_frozen_values(self):
        model = embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0)
        qv = solve_care(model, -1.0)
        assert qv.C[0, 0] == pytest.approx(1.0 - math.sqrt(1.5), abs=1e-10)
        assert qv.D[0] == pytest.approx(-0.5 / math.sqrt(6.0), abs=1e-10)
        assert gamma_md(model, -1.0, qv) == pytest.approx(-0.15403910236246117, abs=1e-10)

    def test_ou_logprice_embedding_closed_form(self):
        model = embed_1d(-0.5, -0.5, 0.02, 0.2, 0.2, 1.0)
        qv = solve_care(model, 0.5)
        assert qv.C[0, 0] == pytest.approx(12.5 * (1.0 - math.sqrt(0.5)), abs=1e-8)
        assert qv.D[0] == pytest.approx(-0.25, abs=1e-10)

    @pytest.mark.parametrize("params", EMBEDDINGS)
    def test_scalar_equivalence_across_grid(self, params):
        model = embed_1d(*params)
        twin = scalar_twin(*params)
        from growthtail import lg1d_beta_thetabar

        _, theta_bar = lg1d_beta_thetabar(twin)
        hi = theta_bar - 1e-3 if theta_bar < 1 else 0.97
        for theta in np.linspace(-2.0, hi, 20):
            theta = float(theta)
            qv = solve_care(model, theta)
            assert abs(qv.C[0, 0] - lg1d_riccati_roots(twin, theta)[0]) <= 1e-8
            assert abs(qv.D[0] - lg1d_D(twin, theta)) <= 1e-8
            assert abs(gamma_md(model, theta, qv) - lg1d_gamma(twin, theta)) <= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        K=st.floats(-3.0, -0.1),
        B1=st.floats(-2.0, 2.0),
        B0=st.floats(0.1, 2.0),
        s=st.floats(0.1, 2.0),
        g=st.floats(0.1, 2.0),
        rho=st.floats(-1.0, 1.0),
        data=st.data(),
    )
    def test_scalar_closed_form_matches_newton_property(self, K, B1, B0, s, g, rho, data):
        # random models in the acceptance suite's ranges, tilts up to 0.9 theta_bar
        twin = scalar_twin(K, B1, B0, s, g, rho)
        _, theta_bar = lg1d_beta_thetabar(twin)
        theta = data.draw(st.floats(-5.0, 0.9 * theta_bar), label="theta")
        market = twin.market()
        model = LinearFactorMD(market.K, market.B1, market.B0, market.sigma, market.gamma)
        qv = solve_care(model, theta)
        C, D = twin.quadratic_pair(theta)
        assert abs(lg1d_gamma(twin, theta) - gamma_md(model, theta, qv)) <= 1e-8
        assert np.max(np.abs(C - qv.C)) <= 1e-8
        assert np.max(np.abs(D - qv.D)) <= 1e-8

    def test_returned_solution_certificates(self):
        model = synthetic_m2()
        for theta in (-0.8, -0.3, 0.2, 0.4):
            qv = solve_care(model, theta)
            assert np.array_equal(qv.C, qv.C.T)  # stored exactly symmetric
            assert riccati_residual(model, theta, qv.C) <= 1e-9
            assert qv.eig_max_real <= -1e-10

    def test_d_solves_linear_system_exactly(self):
        model = synthetic_m2()
        theta = -0.6
        qv = solve_care(model, theta)
        t1 = theta / (1.0 - theta)
        S = model.sigma @ model.sigma.T
        Sinv = np.linalg.inv(S)
        q = model.sigma.shape[1]
        M = model.gamma @ (np.eye(q) + t1 * model.sigma.T @ Sinv @ model.sigma) @ model.gamma.T
        Kt = model.K + t1 * model.gamma @ model.sigma.T @ Sinv @ model.B1
        A_cl = Kt + M @ qv.C
        rhs = t1 * (model.sigma @ model.gamma.T @ qv.C + model.B1).T @ Sinv @ model.B0
        assert np.max(np.abs(A_cl.T @ qv.D + rhs)) <= 1e-12

    # scipy's own matrix balancing warns on the near-zero entries at tilts like 1e-300
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(-3.0, 0.99),
    )
    def test_scipy_cross_check_property(self, m, d, seed, theta):
        # wherever scipy finds the stabilizing root, solve_care certifies the same one
        from scipy.linalg import solve_continuous_are

        model = random_md(np.random.default_rng(seed), m, d)
        t1 = theta / (1.0 - theta)
        Sinv = np.linalg.inv(model.sigma @ model.sigma.T)
        q = model.sigma.shape[1]
        M = model.gamma @ (np.eye(q) + t1 * model.sigma.T @ Sinv @ model.sigma) @ model.gamma.T
        Kt = model.K + t1 * model.gamma @ model.sigma.T @ Sinv @ model.B1
        N = 0.5 * t1 * model.B1.T @ Sinv @ model.B1
        evals, evecs = np.linalg.eigh(M)
        b = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        try:
            X = solve_continuous_are(Kt, b, 2.0 * N, -np.eye(m))
        except (np.linalg.LinAlgError, ValueError):
            return
        if not (riccati_residual(model, theta, X) <= 1e-9 and _eig_max_real(Kt + M @ X) < 0.0):
            return  # scipy found no stabilizing root (or a non-finite or inexact one)
        qv = solve_care(model, theta)
        assert np.max(np.abs(X - qv.C)) <= 1e-8 * max(1.0, np.max(np.abs(qv.C)))

    @pytest.mark.parametrize("params", EMBEDDINGS)
    @pytest.mark.parametrize("k", range(1, 7))
    def test_scalar_embedding_certified_near_theta_bar(self, params, k):
        # each tilt is solved on its own, so the last grid step before the
        # boundary costs no more than any other and loses no accuracy
        twin = scalar_twin(*params)
        _, theta_bar = lg1d_beta_thetabar(twin)
        theta = theta_bar * (1.0 - 10.0**-k)
        qv = solve_care(embed_1d(*params), theta)
        assert qv.residual <= 1e-9 and qv.eig_max_real < 0.0
        for got, closed in ((qv.gamma, lg1d_gamma(twin, theta)), (qv.D[0], lg1d_D(twin, theta))):
            assert abs(got - closed) <= 1e-8 * max(1.0, abs(closed))

    def test_no_stabilizing_solution_past_boundary(self):
        # scalar twin has theta_bar = 0.5
        model = embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0)
        with pytest.raises(NoStabilizingSolution):
            solve_care(model, 0.6)

    @pytest.mark.parametrize("theta", [0.7, 0.9])
    def test_past_boundary_newton_stops_at_once(self, monkeypatch, theta):
        # the first Newton step past the boundary does not improve the residual
        calls = []
        original = riccati._residual

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(riccati, "_residual", counting)
        with pytest.raises(NoStabilizingSolution, match="did not reach residual"):
            solve_care(embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0), theta)
        assert 0 < len(calls) <= 3

    @pytest.mark.parametrize("theta", [math.nan, -math.inf, math.inf, 1.0],
                             ids=["nan", "-inf", "inf", "one"])
    @pytest.mark.parametrize("call", ["solve_care", "policy_md", "gamma_md", "riccati_residual"])
    def test_tilt_not_finite_or_below_one_is_domain_error(self, call, theta):
        model = synthetic_m2()
        qv = solve_care(model, -0.3)
        calls = {
            "solve_care": lambda: solve_care(model, theta),
            "policy_md": lambda: policy_md(model, theta, qv),
            "gamma_md": lambda: gamma_md(model, theta, qv),
            "riccati_residual": lambda: riccati_residual(model, theta, qv.C),
        }
        with pytest.raises(DomainError):
            calls[call]()


class TestResidual:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_C_rejected(self, bad):
        C = np.zeros((2, 2))
        C[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            riccati_residual(synthetic_m2(), 0.3, C)

    def test_zero_matrix_at_zero_tilt(self):
        model = synthetic_m2()
        assert riccati_residual(model, 0.0, np.zeros((2, 2))) == 0.0

    def test_zero_matrix_residual_is_constant_term(self):
        model = synthetic_m2()
        theta = 0.5  # t1 = 1
        S = model.sigma @ model.sigma.T
        expected = np.linalg.norm(0.5 * model.B1.T @ np.linalg.inv(S) @ model.B1, "fro")
        assert riccati_residual(model, theta, np.zeros((2, 2))) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected > 0


class TestThetaSweep:
    def test_negative_grid_always_solvable(self):
        model = synthetic_m2()
        sweep = theta_sweep(model, np.linspace(-1.0, 0.0, 21))
        assert all(p.ok for p in sweep.points)
        assert all(p.eig_max_real < 0 for p in sweep.points)
        zero_row = sweep.points[-1]
        assert zero_row.theta == 0.0
        assert zero_row.gamma == 0.0

    def test_breakdown_near_scalar_boundary(self):
        model = embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0)
        grid = np.round(np.arange(0.0, 0.66, 0.05), 10)
        sweep = theta_sweep(model, grid)
        assert sweep.breakdown_theta is not None
        assert 0.45 < sweep.breakdown_theta <= 0.55
        for p in sweep.points:
            assert p.ok == (p.theta < sweep.breakdown_theta)

    def test_no_loading_reduces_to_constant_drift_value(self):
        # B1 = 0 forces C = D = 0 and Gamma = (theta/(2(1-theta))) B0'(ss')^-1 B0
        model = LinearFactorMD(
            K=np.diag([-1.0, -0.5]),
            B1=np.zeros((2, 2)),
            B0=np.array([0.5, 0.3]),
            sigma=np.hstack([np.diag([0.3, 0.4]), np.zeros((2, 2))]),
            gamma=np.hstack([np.zeros((2, 2)), np.diag([0.6, 0.7])]),
        )
        S = model.sigma @ model.sigma.T
        base = model.B0 @ np.linalg.solve(S, model.B0)
        for theta in (-1.5, -0.4, 0.3, 0.8):
            qv = solve_care(model, theta)
            assert np.max(np.abs(qv.C)) <= 1e-12
            assert np.max(np.abs(qv.D)) <= 1e-12
            expected = 0.5 * theta / (1.0 - theta) * base
            assert gamma_md(model, theta, qv) == pytest.approx(expected, abs=1e-12)

    def test_sweep_values_convex_in_tilt(self):
        sweep = theta_sweep(synthetic_m2(), np.linspace(-0.9, 0.45, 28))
        gammas = [p.gamma for p in sweep.points]
        second_diffs = [a - 2 * b + c for a, b, c in zip(gammas, gammas[1:], gammas[2:])]
        assert min(second_diffs) >= -1e-9

    def test_continuation_has_no_root_jumps(self):
        model = synthetic_m2()
        grid = np.linspace(-0.9, 0.45, 28)
        sweep = theta_sweep(model, grid)
        assert all(p.ok for p in sweep.points)
        dtheta = grid[1] - grid[0]
        slopes = [
            np.linalg.norm(b.quad.C - a.quad.C, "fro") / dtheta
            for a, b in zip(sweep.points, sweep.points[1:])
        ]
        assert max(slopes) <= 100.0 * max(np.median(slopes), 1e-6)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            theta_sweep(synthetic_m2(), [0.2, 0.1])

    @pytest.mark.parametrize("grid", [[math.nan], [-math.inf, 0.0], [0.0, 0.2, math.inf]],
                             ids=["nan", "-inf", "inf"])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            theta_sweep(synthetic_m2(), grid)

    def test_each_tilt_built_and_certified_once(self, monkeypatch):
        names = ["_coefficients", "_newton", "_solve_C", "solve_care", "_residual",
                 "_eig_max_real", "riccati_residual"]
        counts = dict.fromkeys(names, 0)
        # certificate calls made by solve_care itself, outside the solve of C
        own = dict.fromkeys(["_residual", "_eig_max_real"], 0)
        depth = {"solve_care": 0, "_solve_C": 0}
        for name in names:
            original = getattr(riccati, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                if _name in own and depth["solve_care"] and not depth["_solve_C"]:
                    own[_name] += 1
                depth[_name] = depth.get(_name, 0) + 1
                try:
                    return _original(*args, **kwargs)
                finally:
                    depth[_name] -= 1

            monkeypatch.setattr(riccati, name, counting)
        # negative and positive tilts, zero, and tilts past the domain boundary
        sweep = theta_sweep(embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0), np.linspace(-1.5, 0.7, 12))
        assert any(p.ok for p in sweep.points) and not all(p.ok for p in sweep.points)
        bound = counts["_newton"] + counts["solve_care"]
        assert counts["_coefficients"] <= bound
        assert counts["_eig_max_real"] <= counts["_solve_C"] == counts["solve_care"]
        assert counts["riccati_residual"] == 0
        assert own == {"_residual": 0, "_eig_max_real": 0}
        assert counts["_residual"] > 0

    def test_each_tilt_one_newton_call(self, monkeypatch):
        calls = []
        original = riccati._newton

        def counting(coef, C0, theta):
            calls.append(theta)
            return original(coef, C0, theta)

        monkeypatch.setattr(riccati, "_newton", counting)
        # every model fails somewhere on the grid; a failing tilt makes one call too
        grid = np.linspace(-2.0, 0.95, 28)
        models = (embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0), synthetic_m2(),
                  random_md(np.random.default_rng(0), 3, 2))
        for model in models:
            calls.clear()
            sweep = theta_sweep(model, grid)
            assert sweep.breakdown_theta is not None
            assert len(calls) == len(set(calls)) and set(calls) <= set(grid.tolist())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 3),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(-2.0, 0.0),
        hi=st.floats(0.0, 0.99),
        n=st.integers(2, 10),
    )
    def test_row_certificates_equal_recomputed_property(self, m, d, seed, lo, hi, n):
        model = random_md(np.random.default_rng(seed), m, d)
        for p in theta_sweep(model, np.linspace(lo, hi, n)).points:
            if not p.ok:
                continue
            M, Kt, _, _, _ = _coefficients(model, p.theta)
            assert p.residual == riccati_residual(model, p.theta, p.quad.C)
            assert p.eig_max_real == _eig_max_real(Kt + M @ p.quad.C)
            assert p.gamma == gamma_md(model, p.theta, p.quad)


def assert_lifted_policy_matches(model: LinearFactor1D, data) -> None:
    """policy_md of the m = 1 lift of model.market() equals the scalar lg1d_policy."""
    _, theta_bar = lg1d_beta_thetabar(model)
    theta = data.draw(st.floats(-3.0, 0.99 * theta_bar), label="theta")
    market = model.market()
    lift = LinearFactorMD(market.K, market.B1, market.B0, market.sigma, market.gamma)
    got = policy_md(lift, theta, solve_care(lift, theta))
    want = lg1d_policy(model, theta)
    for x, y in ((got.gain[0, 0], want.gain), (got.intercept[0], want.intercept)):
        assert abs(x - y) <= 1e-8 * max(1.0, abs(y))


class TestPolicyMD:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        K=st.floats(-3.0, -0.1),
        B1=st.floats(-2.0, 2.0),
        B0=st.floats(0.1, 2.0),
        s=st.floats(0.1, 2.0),
        g=st.floats(0.1, 2.0),
        rho=st.floats(-1.0, 1.0),
        data=st.data(),
    )
    def test_scalar_policy_matches_embedding_property(self, K, B1, B0, s, g, rho, data):
        # the acceptance suite's random factor models, tilts up to 0.99 theta_bar
        assert_lifted_policy_matches(scalar_twin(K, B1, B0, s, g, rho), data)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(K=st.floats(-3.0, -0.1), s=st.floats(0.1, 2.0), data=st.data())
    def test_ou_log_price_policy_matches_embedding_property(self, K, s, data):
        assert_lifted_policy_matches(PlatenRebolledo(K=K, sigma_norm=s), data)

    def test_merton_limit(self):
        model = synthetic_m2()
        qv = solve_care(model, 0.0)
        pol = policy_md(model, 0.0, qv)
        S = model.sigma @ model.sigma.T
        expected = np.linalg.solve(S, model.B0)
        np.testing.assert_allclose(pol.intercept, expected, atol=1e-12)

    def test_rho0_embedding_policy(self):
        model = embed_1d(-1.0, 1.0, 0.5, 1.0, 1.0, 0.0)
        qv = solve_care(model, -1.0)
        pol = policy_md(model, -1.0, qv)
        # sigma gamma' = 0: gain = B1/(2 ss'), intercept = B0/(2 ss')
        assert pol.gain[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert pol.intercept[0] == pytest.approx(0.25, abs=1e-10)

    def test_ou_logprice_policy_reduction(self):
        model = embed_1d(-0.5, -0.5, 0.02, 0.2, 0.2, 1.0)
        theta = 11.0 / 36.0  # conjugate tilt of target 0.155
        qv = solve_care(model, theta)
        pol = policy_md(model, theta, qv)
        assert pol.gain[0, 0] == pytest.approx(-15.0, abs=1e-8)
        assert pol.intercept[0] == pytest.approx(0.5, abs=1e-10)


class TestModelValidation:
    def test_from_dict_roundtrip(self):
        record = {
            "K": [[-1.0, 0.0], [0.0, -2.0]],
            "B1": [[0.1, 0.2], [0.0, 0.3]],
            "B0": [0.5, 0.3],
            "sigma": [[0.3, 0.0, 0.01, 0.0], [0.0, 0.4, 0.0, 0.01]],
            "gamma": [[0.01, 0.0, 0.6, 0.0], [0.0, 0.01, 0.0, 0.7]],
        }
        model = model_from_dict(record)
        assert model.m == 2 and model.d == 2

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError):
            LinearFactorMD(
                K=[[1.0]], B1=[[1.0]], B0=[0.5], sigma=[[1.0, 0.0]], gamma=[[0.0, 1.0]]
            )

    def test_rank_deficient_sigma_rejected(self):
        with pytest.raises(ValueError):
            LinearFactorMD(
                K=np.diag([-1.0, -1.0]),
                B1=np.zeros((2, 2)),
                B0=[0.5, 0.5],
                sigma=np.vstack([np.ones(4), np.ones(4)]),
                gamma=np.hstack([np.zeros((2, 2)), np.eye(2)]),
            )

    @pytest.mark.parametrize("field", ["K", "B1", "B0", "sigma", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, field, bad):
        # checked before the Hurwitz and rank checks, which cannot read a NaN
        fields = dict(K=[[-1.0]], B1=[[1.0]], B0=[0.5], sigma=[[1.0, 0.0]], gamma=[[0.0, 1.0]])
        value = np.array(fields[field], dtype=float)
        value.flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            LinearFactorMD(**{**fields, field: value})

    def test_field_set_enforced(self):
        with pytest.raises(ValueError):
            model_from_dict({"K": [[-1.0]]})


def kron_newton(coef, C0, theta):
    """Reference copy of ``riccati._newton`` with its system built by two ``np.kron``."""
    M, Kt, N, _, _ = coef
    m = Kt.shape[0]
    eye = np.eye(m)
    scale = max(1.0, float(np.linalg.norm(N, "fro")))
    C = 0.5 * (C0 + C0.T)
    best_C, best_res = C, math.inf
    prev_res = math.inf
    for it in range(riccati._NEWTON_MAXIT):
        R, res = riccati._residual(C, coef)
        if res < best_res:
            best_C, best_res = C, res
        if it and res <= riccati._NEWTON_POLISH * scale:
            break
        if res > 0.9 * prev_res:
            break
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
    if best_res > riccati._NEWTON_TOL * scale:
        raise NoStabilizingSolution(
            f"Newton did not reach residual {riccati._NEWTON_TOL} "
            f"at theta={theta} (best {best_res:.3e})"
        )
    eig = _eig_max_real(Kt + M @ best_C)
    if not eig <= riccati._HURWITZ_MARGIN:
        raise NoStabilizingSolution(f"converged root is not stabilizing at theta={theta}")
    return best_C, best_res, eig


def block_solve_C(coef, theta):
    """Reference copy of ``riccati._solve_C`` with its Hamiltonian built by ``np.block``."""
    M, Kt, N, _, _ = coef
    m = Kt.shape[0]
    if theta == 0.0:
        return np.zeros((m, m)), 0.0, _eig_max_real(Kt)
    w, V = np.linalg.eig(np.block([[Kt, M], [-2.0 * N, -Kt.T]]))
    X = V[:, np.argsort(w.real)[:m]]
    try:
        C = np.linalg.solve(X[:m].T, X[m:].T).T.real
    except np.linalg.LinAlgError as exc:
        raise NoStabilizingSolution(
            f"stable subspace of the Hamiltonian is not a graph at theta={theta}"
        ) from exc
    return kron_newton(coef, C, theta)


def _row_bits(point):
    quad = point.quad
    arrays = (quad.C.tobytes(), quad.D.tobytes()) if quad is not None else None
    return point.theta, point.gamma, point.residual, point.eig_max_real, arrays, point.error


class TestAssembly:
    """The Newton system and the Hamiltonian give the rows of np.kron and np.block bit for bit."""

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_rows_equal_kron_reference(self, monkeypatch, m, seed):
        rng = np.random.default_rng([seed, m])
        model = random_md(rng, m, int(rng.integers(1, 4)))
        # negative tilts, zero, the domain and past its boundary (1 - 1e-9 always fails)
        grid = [-3.0, -0.7, 0.0, 0.05, 0.2, 0.45, 0.8, 0.97, 1.0 - 1e-9]
        sweep = theta_sweep(model, grid)
        with monkeypatch.context() as patch:
            patch.setattr(riccati, "_newton", kron_newton)
            patch.setattr(riccati, "_solve_C", block_solve_C)
            reference = theta_sweep(model, grid)
        assert [_row_bits(p) for p in sweep.points] == [_row_bits(p) for p in reference.points]
        assert sweep.breakdown_theta == reference.breakdown_theta
        assert sweep.points[0].ok and not sweep.points[-1].ok
