"""Simulation and estimator tests against exact Gaussian references."""

import hashlib
import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from growthtail import (
    FactorMarket,
    FeedbackPolicy,
    LinearFactor1D,
    LinearFactorMD,
    Side,
    SimConfig,
    empirical_chebyshev_check,
    estimate_log_laplace,
    estimate_prob,
    lg1d_policy,
    policy_at_tilt,
    policy_for_target,
    policy_md,
    pr_tilt,
    rate_fit,
    rate_for_target,
    simulate_paths,
    solve_care,
    tilted_estimate_prob,
)
from growthtail import mc
from growthtail.errors import NumericalBlowup, WeightDegeneracy

from conftest import bs_tail_oracle, ls_slope


def const_policy(pi: float) -> FeedbackPolicy:
    return FeedbackPolicy(gain=0.0, intercept=pi)


class TwoAssetsNoFactor:
    """Two assets on two correlated drivers and no factor (m = 0, d = q = 2)."""

    def market(self) -> FactorMarket:
        sigma = [[0.2, 0.05], [0.0, 0.3]]
        return FactorMarket(np.zeros((0, 0)), np.zeros((2, 0)), [0.1, 0.05], sigma, np.zeros((0, 2)))

    def quadratic_pair(self, theta: float):
        return np.zeros((0, 0)), np.zeros(0)


PREFETCH_POLICIES = {
    "bs": const_policy(2.5),
    "pr": FeedbackPolicy(gain=-4.0, intercept=0.5),
    "flat2": FeedbackPolicy(gain=np.zeros((2, 0)), intercept=[1.5, -0.5]),
    "md2": FeedbackPolicy(gain=[[0.4, -0.2], [0.1, 0.3]], intercept=[1.0, 0.5]),
}

# Where a sum runs over more than two terms, or a BLAS product over two or
# more, the component-major stepper may round differently from the row-layout
# reference: its results must then agree within this fraction of the
# largest magnitude in each array (fixed before the first run).
MD_REL_BOUND = 1e-13


@pytest.fixture
def flat2():
    return TwoAssetsNoFactor()


@pytest.fixture
def md2():
    """Acceptance test_03's matrix market: m = 2 factors, d = 2 assets, q = 4 drivers."""
    rng = np.random.default_rng(7)
    return LinearFactorMD(
        K=np.diag([-1.0, -2.0]),
        B1=0.5 * rng.normal(size=(2, 2)),
        B0=np.array([0.5, 0.3]),
        sigma=np.hstack([np.diag([0.3, 0.4]), 0.05 * rng.normal(size=(2, 2))]),
        gamma=np.hstack([0.05 * rng.normal(size=(2, 2)), np.diag([0.6, 0.7])]),
    )


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def hexes(values) -> list:
    return [float(x).hex() for x in np.ravel(values)]


def result_hexes(res, key: str) -> list:
    """The estimate, its standard error and ``extras[key]`` to the bit."""
    return hexes([res.estimate, res.std_error, res.extras[key]])


def inline_run_paths(model, policy, cfg, theta_tilt=None, substream=0):
    """The row-layout stepper with each step's noise drawn in line: the reference.

    Holds the state as (n, m) rows and forms every term with matmul and
    einsum, as the stepper did before it went component-major, and draws
    and scales each step's noise on the calling thread, one step at a time.
    ``mc._run_paths`` must match it bit for bit on the models here with
    at most two terms per sum, and within ``MD_REL_BOUND`` on md2.
    """
    arrays = model.market()
    d, m, q = arrays.dims
    gain, intercept = policy.as_arrays(d, m)
    n = cfg.n_paths
    L, Y, logw = np.zeros(n), np.zeros((n, m)), np.zeros(n)
    if theta_tilt is not None:
        C, D = model.quadratic_pair(theta_tilt)
    buf = np.empty((n, q))
    for k, h in enumerate(cfg.steps()):
        pi = Y @ gain.T + intercept
        A = pi @ arrays.sigma
        drift_b = Y @ arrays.B1.T + arrays.B0
        pi_b = np.einsum("ij,ij->i", pi, drift_b)
        quad = np.einsum("ij,ij->i", A, A)
        mc._step_normals(cfg.seed, substream, k, buf)
        dW = buf * math.sqrt(h)
        if theta_tilt is not None:
            H = theta_tilt * A + (Y @ C.T + D) @ arrays.gamma
            logw -= np.einsum("ij,ij->i", H, dW) + 0.5 * np.einsum("ij,ij->i", H, H) * h
            dW = dW + H * h
        L += (pi_b - 0.5 * quad) * h + np.einsum("ij,ij->i", A, dW)
        if m:
            Y += (Y @ arrays.K.T) * h + dW @ arrays.gamma.T
    return L, Y, logw


def prefetched_run_paths(model, policy, cfg, theta_tilt=None, substream=0):
    CD = model.quadratic_pair(theta_tilt) if theta_tilt is not None else None
    return mc._run_paths(model, policy, cfg, theta_tilt=theta_tilt, CD=CD, substream=substream)[0]


def run_bounded(fn, timeout=120.0) -> dict:
    """Run ``fn`` on a helper thread and fail, rather than hang, if it does not finish.

    Returns its ``result`` or ``error`` with the thread counts taken on the
    helper just ``before`` and ``after`` the call.
    """
    box = {}

    def target():
        box["before"] = threading.active_count()
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc
        box["after"] = threading.active_count()

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), f"call still running after {timeout} s"
    return box


def on_worker() -> bool:
    """Whether this is the noise pool's thread (concurrent.futures names it so)."""
    return threading.current_thread().name.startswith("ThreadPoolExecutor")


def slow_worker_draws(monkeypatch, delay=0.02, caller_error=None):
    """Slow only the pool's draws; returns the log of (step, drawn on the worker) pairs.

    With ``caller_error`` the first draw the caller makes past step 0 raises it.
    """
    real = mc._step_normals
    log = []

    def draw(seed, substream, step, out):
        worker = on_worker()
        if worker:
            time.sleep(delay)
        elif caller_error is not None and step > 0:
            raise caller_error
        real(seed, substream, step, out)
        log.append((step, worker))

    monkeypatch.setattr(mc, "_step_normals", draw)
    return log


def slow_draws(monkeypatch, fail_step=None, error=None):
    """Make every draw take 10 ms, so the worker is mid-draw when the caller stops."""
    real = mc._step_normals

    def slow(seed, substream, step, out):
        time.sleep(0.01)
        if step == fail_step:
            raise error
        real(seed, substream, step, out)

    monkeypatch.setattr(mc, "_step_normals", slow)


class TestDeterminism:
    def test_bit_identical_reruns(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.05, n_paths=500, seed=99)
        a = simulate_paths(bs, const_policy(2.5), cfg)
        b = simulate_paths(bs, const_policy(2.5), cfg)
        assert np.array_equal(a.L, b.L)

    def test_factor_model_bit_identical(self, lg_rho0):
        cfg = SimConfig(horizon=3.0, dt=0.02, n_paths=400, seed=7)
        pol = lg1d_policy(lg_rho0, -0.5)
        a = simulate_paths(lg_rho0, pol, cfg)
        b = simulate_paths(lg_rho0, pol, cfg)
        assert np.array_equal(a.L, b.L) and np.array_equal(a.Y, b.Y)

    def test_seed_and_substream_change_paths(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.05, n_paths=500, seed=99)
        a = simulate_paths(bs, const_policy(2.5), cfg)
        b = simulate_paths(bs, const_policy(2.5), SimConfig(5.0, 0.05, 500, 100))
        c = simulate_paths(bs, const_policy(2.5), cfg, substream=1)
        assert not np.array_equal(a.L, b.L)
        assert not np.array_equal(a.L, c.L)

    def test_zero_tilt_reproduces_direct_paths(self, bs):
        # same seed, same substream: the tilted estimator with tilt 0 must
        # agree with the direct estimator to the bit
        cfg = SimConfig(horizon=10.0, dt=0.05, n_paths=2000, seed=5)
        sample = simulate_paths(bs, const_policy(3.5), cfg)
        direct = estimate_prob(sample, 0.245, Side.UPSIDE)
        tilted = tilted_estimate_prob(bs, const_policy(3.5), 0.0, 0.245, Side.UPSIDE, cfg)
        assert tilted.estimate == direct.estimate
        assert tilted.std_error == pytest.approx(direct.std_error, rel=1e-9)


    # Realised values recorded before the noise was drawn on a worker
    # thread; any change to the stream layout or the step arithmetic shows
    # here.  The factor-model values go through 2-term BLAS products, so a
    # BLAS that orders them differently may differ in the last bit.
    def test_pinned_bs_stream(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.05, n_paths=500, seed=99)
        L = simulate_paths(bs, const_policy(2.5), cfg).L
        assert hexes(L[[0, 1, 250, 499]]) == [
            "0x1.aa4dd5fd2b528p-1", "-0x1.92f3d35594520p-3",
            "0x1.5209a8f00fb34p-1", "-0x1.7ccf974aa2060p-6",
        ]
        assert digest(L) == "178f107f500a20ba"

    def test_pinned_factor_stream(self, lg_rho0):
        cfg = SimConfig(horizon=3.0, dt=0.02, n_paths=400, seed=7)
        sample = simulate_paths(lg_rho0, lg1d_policy(lg_rho0, -0.5), cfg)
        idx = [0, 1, 200, 399]
        assert hexes(sample.L[idx]) == [
            "0x1.be7df98112a92p+1", "-0x1.c9ca64dcba13ep-1",
            "0x1.ebb68203d2e2fp-3", "0x1.a44521a45ca6dp+0",
        ]
        assert hexes(sample.Y[idx, 0]) == [
            "0x1.a736153b4244ap-2", "0x1.d93689fb51016p-1",
            "-0x1.04d0a34ac205cp-3", "0x1.cc3cb27f87f3cp-5",
        ]
        assert (digest(sample.L), digest(sample.Y)) == ("c8992a5521994c74", "065df3766c89ce47")

    def test_pinned_tilted_estimate(self, pr):
        # 40000 paths x 2 noise dimensions x 20 steps: drawn ahead, one step
        # per handoff
        cfg = SimConfig(horizon=1.0, dt=0.05, n_paths=40000, seed=43)
        pol = FeedbackPolicy(gain=-4.0, intercept=0.5)
        res = tilted_estimate_prob(pr, pol, -0.5, 0.045, Side.DOWNSIDE, cfg)
        assert hexes([res.estimate, res.std_error, res.extras["ess"]]) == [
            "0x1.9a61e20f32e58p-2", "0x1.41b8a6b8af131p-9", "0x1.38605fa8ff4dap+15",
        ]

    def test_pinned_short_last_step(self, bs):
        # 11 steps, the last one shortened, drawn in line
        cfg = SimConfig(horizon=1.05, dt=0.1, n_paths=3, seed=1)
        L = simulate_paths(bs, const_policy(2.5), cfg).L
        assert hexes(L) == ["0x1.5e19871a66ccdp+0", "0x1.824411fe411b1p-3", "0x1.74bda738d32a1p-4"]

    @pytest.mark.parametrize(
        "n_paths, horizon, dt, tilt",
        [
            (3, 1.05, 0.1, None),        # drawn in line, shortened last step
            (6000, 4.05, 0.02, None),    # handoffs of 11 (bs) or 6 (pr) steps,
            (6000, 4.05, 0.02, -0.5),    # the last one longer
            (70000, 1.55, 0.1, None),    # one step per handoff
            (70000, 1.55, 0.1, -0.5),
        ],
    )
    @pytest.mark.parametrize("model", ["bs", "pr", "flat2", "md2"])
    def test_prefetch_matches_inline_draw(self, request, model, n_paths, horizon, dt, tilt):
        # flat2 has no factor, so the stepper computes its policy terms once;
        # md2 is the one market with m >= 2 through the stepper
        m = request.getfixturevalue(model)
        pol = PREFETCH_POLICIES[model]
        cfg = SimConfig(horizon=horizon, dt=dt, n_paths=n_paths, seed=17)
        got = prefetched_run_paths(m, pol, cfg, theta_tilt=tilt, substream=3)
        want = inline_run_paths(m, pol, cfg, theta_tilt=tilt, substream=3)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            if model == "md2":
                # sums over d = m = 2 and q = 4 terms, and 2-term BLAS products
                assert np.max(np.abs(a - b), initial=0.0) <= MD_REL_BOUND * np.max(np.abs(b))
            else:
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("tilt", [None, -0.5], ids=["direct", "tilted"])
    @pytest.mark.parametrize("model", ["bs", "pr", "flat2"])
    def test_shared_draws_match_inline_draw(self, request, monkeypatch, model, tilt):
        # the pool draws slowly, so the caller draws queued handoffs itself;
        # which thread drew a step must not change a number
        m = request.getfixturevalue(model)
        pol = PREFETCH_POLICIES[model]
        cfg = SimConfig(horizon=1.55, dt=0.1, n_paths=70000, seed=17)  # one step per handoff
        log = slow_worker_draws(monkeypatch)
        got = prefetched_run_paths(m, pol, cfg, theta_tilt=tilt, substream=3)
        monkeypatch.undo()
        assert sorted(step for step, _ in log) == list(range(len(cfg.steps())))
        assert any(worker for _, worker in log)
        assert any(step > 0 and not worker for step, worker in log)  # past the first handoff
        want = inline_run_paths(m, pol, cfg, theta_tilt=tilt, substream=3)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestNoiseWorker:
    """The worker that draws the noise ahead never outlives a run."""

    def test_handoffs_cover_the_run(self):
        for n_steps in (1, 10, 21, 22, 100):
            for run in (1, 3, 11, 22):
                spans = mc._handoffs(n_steps, run)
                assert [k for span in spans for k in span] == list(range(n_steps))
                assert all(len(span) >= run for span in spans) or len(spans) == 1
                assert all(len(span) < 2 * run for span in spans) or len(spans) == 1

    @pytest.mark.parametrize("n_paths", [50, 1 << 16], ids=["in-line", "ahead"])
    def test_joined_after_normal_return(self, bs, monkeypatch, n_paths):
        slow_draws(monkeypatch)
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=n_paths, seed=4)
        box = run_bounded(lambda: simulate_paths(bs, const_policy(2.5), cfg))
        assert "error" not in box
        assert box["after"] == box["before"]

    @pytest.mark.parametrize(
        "horizon, n_paths",
        [(2.0, 50), (2.0, 1 << 16), (7.0, 1 << 16)],
        ids=["in-line", "ahead-at-end", "ahead-at-step-64"],
    )
    def test_joined_after_blowup(self, bs, monkeypatch, horizon, n_paths):
        # test_blowup_detected's configuration, the same drawn ahead, and a
        # blow-up caught at the 64th of 70 steps while later steps are drawn
        slow_draws(monkeypatch)
        cfg = SimConfig(horizon=horizon, dt=0.1, n_paths=n_paths, seed=4)
        box = run_bounded(lambda: simulate_paths(bs, const_policy(1e200), cfg))
        assert isinstance(box["error"], NumericalBlowup)
        assert box["after"] == box["before"]

    @pytest.mark.parametrize("fail_step", [0, 13])
    @pytest.mark.parametrize("n_paths", [50, 1 << 16], ids=["in-line", "ahead"])
    def test_draw_error_reaches_caller(self, bs, monkeypatch, n_paths, fail_step):
        error = RuntimeError("draw failed")
        slow_draws(monkeypatch, fail_step, error)
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=n_paths, seed=4)
        box = run_bounded(lambda: simulate_paths(bs, const_policy(2.5), cfg))
        assert box["error"] is error
        assert box["after"] == box["before"]

    def test_caller_draw_error_reaches_caller(self, bs, monkeypatch):
        # the caller draws a queued handoff itself, and that draw fails
        error = RuntimeError("draw failed")
        log = slow_worker_draws(monkeypatch, caller_error=error)
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=1 << 16, seed=4)
        box = run_bounded(lambda: simulate_paths(bs, const_policy(2.5), cfg))
        assert box["error"] is error
        assert box["after"] == box["before"]
        assert any(worker for _, worker in log)

    def test_blowup_does_not_wait_for_queued_draws(self, bs, monkeypatch):
        # a blow-up at the 64th of 70 steps, one step per handoff, while the
        # slow pool still has handoffs queued: none of them is started after
        # the blow-up is raised
        raised = threading.Event()

        class Blowup(NumericalBlowup):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                raised.set()

        started_after = []
        real = mc._step_normals

        def draw(seed, substream, step, out):
            if on_worker():
                started_after.append(raised.is_set())
                time.sleep(0.03)
            real(seed, substream, step, out)

        monkeypatch.setattr(mc, "NumericalBlowup", Blowup)
        monkeypatch.setattr(mc, "_step_normals", draw)
        cfg = SimConfig(horizon=7.0, dt=0.1, n_paths=1 << 16, seed=4)
        box = run_bounded(lambda: simulate_paths(bs, const_policy(1e200), cfg))
        assert isinstance(box["error"], NumericalBlowup)
        assert box["after"] == box["before"]
        assert started_after and not any(started_after)

    def test_concurrent_runs_bit_identical(self, bs, lg_rho0):
        # more callers than cores, with a short switch interval, so that a
        # buffer handed back or refilled too early would change a path
        jobs = [
            (bs, const_policy(2.5), SimConfig(2.0, 0.02, 12000, 21)),
            (lg_rho0, lg1d_policy(lg_rho0, -0.5), SimConfig(2.0, 0.02, 6000, 22)),
        ] * 3
        want = [simulate_paths(*job).L for job in jobs]
        got = [None] * len(jobs)

        def run(i):
            got[i] = simulate_paths(*jobs[i]).L

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(jobs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
    def test_leaving_a_cpu_keeps_the_allowed_set(self):
        allowed = os.sched_getaffinity(0)
        seen = {}

        def worker():
            mc._leave_cpu(mc._current_cpu())
            seen["allowed"] = os.sched_getaffinity(0)

        run_bounded(worker)
        assert seen["allowed"] == allowed


class TestPathLaws:
    def test_zero_policy_gives_zero_growth(self, bs):
        cfg = SimConfig(horizon=7.0, dt=0.1, n_paths=100, seed=1)
        sample = simulate_paths(bs, const_policy(0.0), cfg)
        assert np.all(sample.L == 0.0)

    def test_bs_mean_growth(self, bs):
        # L_T/T is Gaussian with mean b*pi - sigma^2 pi^2/2 = 0.125 at pi=2.5
        cfg = SimConfig(horizon=10.0, dt=0.01, n_paths=20000, seed=11)
        sample = simulate_paths(bs, const_policy(2.5), cfg)
        mean = sample.L.mean() / 10.0
        se = sample.L.std() / 10.0 / math.sqrt(cfg.n_paths)
        assert abs(mean - 0.125) <= 3 * se

    def test_bs_scheme_exact_in_distribution(self, bs):
        # variance of L_T matches sigma^2 pi^2 T at a coarse step
        cfg = SimConfig(horizon=10.0, dt=0.5, n_paths=40000, seed=12)
        sample = simulate_paths(bs, const_policy(2.5), cfg)
        var = sample.L.var()
        expect = bs.sigma**2 * 2.5**2 * 10.0
        assert abs(var - expect) <= 4 * expect * math.sqrt(2.0 / cfg.n_paths)

    def test_ou_stationary_variance(self):
        model = LinearFactor1D(K=-1.0, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=0.0)
        cfg = SimConfig(horizon=30.0, dt=0.01, n_paths=20000, seed=3)
        sample = simulate_paths(model, const_policy(0.0), cfg)
        var = float(sample.Y[:, 0].var())
        # stationary variance |gamma|^2 / (2|K|) = 0.5, Euler bias O(dt)
        assert abs(var - 0.5) <= 3 * 0.5 * math.sqrt(2.0 / cfg.n_paths) + 0.01

    def test_blowup_detected(self, bs):
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=50, seed=4)
        with pytest.raises(NumericalBlowup):
            simulate_paths(bs, const_policy(1e200), cfg)


class TestSizeOnePolicyArrays:
    """Policies whose gain or intercept is an array of size 1, as policy_md gives for d = 1."""

    def test_one_asset_matrix_policy_steps(self):
        # d = 1, m = 2: policy_md's intercept has shape (1,); it must step the
        # same paths as the same policy with a float intercept, direct and tilted
        model = LinearFactorMD(
            K=np.diag([-1.0, -2.0]),
            B1=np.array([[0.3, -0.2]]),
            B0=np.array([0.4]),
            sigma=np.array([[0.5, 0.05, 0.0]]),
            gamma=np.array([[0.1, 0.6, 0.0], [0.0, 0.0, 0.7]]),
        )
        theta = 0.2
        policy = policy_md(model, theta, solve_care(model, theta))
        assert policy.intercept.shape == (1,) and policy.gain.shape == (1, 2)
        twin = FeedbackPolicy(gain=policy.gain, intercept=float(policy.intercept[0]))
        cfg = SimConfig(horizon=2.0, dt=0.1, n_paths=300, seed=17)
        direct = [simulate_paths(model, p, cfg) for p in (policy, twin)]
        assert digest(direct[0].L) == digest(direct[1].L)
        assert digest(direct[0].Y) == digest(direct[1].Y)
        ell = float(np.median(direct[1].L)) / cfg.horizon
        tilted = [tilted_estimate_prob(model, p, theta, ell, Side.UPSIDE, cfg) for p in (policy, twin)]
        assert result_hexes(tilted[0], "ess") == result_hexes(tilted[1], "ess")

    def test_m1_lift_as_arrays(self, lg_rho05):
        # the m = 1 lift's policy has gain of shape (1, 1) and intercept of shape (1,)
        market = lg_rho05.market()
        lift = LinearFactorMD(market.K, market.B1, market.B0, market.sigma, market.gamma)
        policy = policy_md(lift, -0.5, solve_care(lift, -0.5))
        assert policy.gain.shape == (1, 1) and policy.intercept.shape == (1,)
        gain, intercept = policy.as_arrays(1, 1)
        assert hexes(gain) == hexes(policy.gain) and gain.shape == (1, 1)
        assert hexes(intercept) == hexes(policy.intercept) and intercept.shape == (1,)


class TestEstimateProb:
    def test_matches_gaussian_oracle(self, bs):
        cfg = SimConfig(horizon=10.0, dt=0.05, n_paths=50000, seed=21)
        sample = simulate_paths(bs, const_policy(3.5), cfg)
        res = estimate_prob(sample, 0.245, Side.UPSIDE)
        exact = bs_tail_oracle(bs, 3.5, 0.245, 10.0)
        assert abs(res.estimate - exact) <= 3 * res.std_error
        assert res.log_estimate == pytest.approx(math.log(res.estimate))

    def test_certain_event(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=100, seed=22)
        sample = simulate_paths(bs, const_policy(0.0), cfg)
        res = estimate_prob(sample, 0.0, Side.UPSIDE)
        assert res.estimate == 1.0

    def test_zero_hits_flagged(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=200, seed=23)
        sample = simulate_paths(bs, const_policy(2.5), cfg)
        res = estimate_prob(sample, sample.L.min() / 5.0 - 1.0, Side.DOWNSIDE)
        assert res.estimate == 0.0
        assert res.extras["zero_hits"]
        assert res.log_estimate is None

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_nan_target_rejected(self, bs, side):
        # every comparison with NaN is False: it read as a zero-hit estimate
        sample = simulate_paths(bs, const_policy(2.5), SimConfig(5.0, 0.1, 100, 24))
        with pytest.raises(ValueError, match="NaN"):
            estimate_prob(sample, math.nan, side)


class TestLogLaplace:
    def test_zero_theta_is_exactly_zero(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=300, seed=31)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        assert estimate_log_laplace(sample, 0.0).estimate == 0.0

    def test_bs_exact_value(self, bs):
        # theta [b pi - (1-theta) sigma^2 pi^2 / 2] = 0.125 at theta=0.5, pi=5
        cfg = SimConfig(horizon=10.0, dt=0.02, n_paths=30000, seed=32)
        sample = simulate_paths(bs, const_policy(5.0), cfg)
        res = estimate_log_laplace(sample, 0.5)
        assert abs(res.estimate - 0.125) <= 3 * res.std_error

    def test_error_shrinks_like_root_n(self, bs):
        # RMS error over independent substreams scales ~ 1/sqrt(n)
        rms = {}
        for n in (1000, 10000, 100000):
            errs = []
            for rep in range(4):
                cfg = SimConfig(horizon=10.0, dt=0.05, n_paths=n, seed=100 + rep)
                sample = simulate_paths(bs, const_policy(5.0), cfg, substream=rep)
                errs.append(estimate_log_laplace(sample, 0.5).estimate - 0.125)
            rms[n] = math.sqrt(np.mean(np.square(errs)))
        for n in (1000, 10000):
            ratio = rms[n] / rms[10 * n]
            assert math.sqrt(10.0) / 2.0 <= ratio <= 2.0 * math.sqrt(10.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, bs, theta):
        cfg = SimConfig(horizon=1.0, dt=0.1, n_paths=10, seed=31)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        with pytest.raises(ValueError, match="theta must be finite"):
            estimate_log_laplace(sample, theta)

    def test_weight_degeneracy_raised(self, bs):
        cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=1000, seed=33)
        sample = simulate_paths(bs, const_policy(5.0), cfg)
        with pytest.raises(WeightDegeneracy):
            estimate_log_laplace(sample, 25.0)

    def test_factor_model_long_horizon_matches_curve(self, lg_rho0):
        # finite-horizon value approaches the curve value Gamma(-1); the
        # horizon is capped where the exponential weights keep a workable
        # effective sample size (the ESS fraction decays like
        # exp(-T(2 Gamma(th) - Gamma(2 th)))), hence the O(1/T) slack
        from growthtail import lg1d_gamma

        pol = lg1d_policy(lg_rho0, -1.0)
        cfg = SimConfig(horizon=30.0, dt=0.02, n_paths=20000, seed=34)
        sample = simulate_paths(lg_rho0, pol, cfg)
        res = estimate_log_laplace(sample, -1.0)
        target = lg1d_gamma(lg_rho0, -1.0)
        assert abs(res.estimate - target) <= 3 * res.std_error + 2.0 / 30.0


class TestTiltedEstimator:
    def test_matches_oracle_and_beats_direct_variance(self, bs):
        pol = const_policy(3.5)
        cfg = SimConfig(horizon=40.0, dt=0.05, n_paths=30000, seed=41)
        tilted = tilted_estimate_prob(bs, pol, 2.0 / 7.0, 0.245, Side.UPSIDE, cfg)
        exact = bs_tail_oracle(bs, 3.5, 0.245, 40.0)
        assert abs(tilted.estimate - exact) <= 3 * tilted.std_error
        direct = estimate_prob(simulate_paths(bs, pol, cfg), 0.245, Side.UPSIDE)
        assert tilted.std_error < direct.std_error
        assert abs(tilted.estimate - direct.estimate) <= 3 * math.hypot(
            tilted.std_error, direct.std_error
        )

    def test_deep_tail_where_direct_fails(self, bs):
        pol = const_policy(3.5)
        cfg = SimConfig(horizon=40.0, dt=0.05, n_paths=10000, seed=42)
        direct = estimate_prob(simulate_paths(bs, pol, cfg), 0.6, Side.UPSIDE)
        assert direct.extras.get("zero_hits")
        theta = 1.0 - math.sqrt(0.125 / 0.6)
        tilted = tilted_estimate_prob(bs, pol, theta, 0.6, Side.UPSIDE, cfg)
        exact = bs_tail_oracle(bs, 3.5, 0.6, 40.0)
        assert exact < 1e-5
        assert abs(tilted.estimate - exact) <= 3 * tilted.std_error

    def test_factor_downside_agrees_with_direct(self, pr):
        # moderate tail where the direct estimator is still informative:
        # validates the tilted dynamics and weights on a factor model
        theta = pr_tilt(pr, 0.045)
        pol = FeedbackPolicy(gain=-4.0, intercept=0.5)
        cfg = SimConfig(horizon=10.0, dt=0.02, n_paths=30000, seed=43)
        tilted = tilted_estimate_prob(pr, pol, theta, 0.045, Side.DOWNSIDE, cfg)
        direct = estimate_prob(simulate_paths(pr, pol, cfg, substream=9), 0.045, Side.DOWNSIDE)
        assert direct.estimate > 0.05
        assert abs(tilted.estimate - direct.estimate) <= 3 * math.hypot(
            tilted.std_error, direct.std_error
        )

    def test_sign_compatibility_enforced(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=100, seed=44)
        with pytest.raises(ValueError):
            tilted_estimate_prob(bs, const_policy(2.5), -0.3, 0.2, Side.UPSIDE, cfg)
        with pytest.raises(ValueError):
            tilted_estimate_prob(bs, const_policy(2.5), 0.3, 0.02, Side.DOWNSIDE, cfg)
        for side in Side:
            for tilt in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    tilted_estimate_prob(bs, const_policy(2.5), tilt, 0.2, side, cfg)

    @pytest.mark.parametrize("side", [Side.UPSIDE, Side.DOWNSIDE])
    def test_nan_target_rejected(self, bs, side):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=100, seed=45)
        with pytest.raises(ValueError, match="NaN"):
            tilted_estimate_prob(bs, const_policy(2.5), 0.0, math.nan, side, cfg)


class TestChebyshev:
    def test_trivial_at_zero(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=500, seed=51)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        assert empirical_chebyshev_check(sample, 0.0, 0.2)

    def test_holds_on_simulated_runs(self, bs):
        cfg = SimConfig(horizon=10.0, dt=0.05, n_paths=5000, seed=52)
        sample = simulate_paths(bs, const_policy(3.5), cfg)
        for theta in (0.1, 2.0 / 7.0, 0.8):
            for ell in (0.1, 0.245, 0.4):
                assert empirical_chebyshev_check(sample, theta, ell)

    def test_negative_control_with_corrupted_weights(self, bs):
        cfg = SimConfig(horizon=10.0, dt=0.05, n_paths=5000, seed=53)
        sample = simulate_paths(bs, const_policy(3.5), cfg)
        bogus = np.full(cfg.n_paths, 1e-12)
        assert not empirical_chebyshev_check(sample, 2.0 / 7.0, 0.245, weights=bogus)

    def test_no_hit_holds(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=500, seed=51)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        assert not np.any(sample.L >= 100.0 * cfg.horizon)
        assert empirical_chebyshev_check(sample, 0.5, 100.0)

    def test_negative_theta_rejected(self, bs):
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=100, seed=54)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        with pytest.raises(ValueError):
            empirical_chebyshev_check(sample, -0.1, 0.2)

    @pytest.mark.parametrize(
        "theta, target", [(math.nan, 0.2), (math.inf, 0.2), (0.5, math.nan)]
    )
    def test_nan_theta_or_target_rejected(self, bs, theta, target):
        # a NaN used to fail the bound's comparison: False, as if the engine were wrong
        cfg = SimConfig(horizon=5.0, dt=0.1, n_paths=100, seed=55)
        sample = simulate_paths(bs, const_policy(3.0), cfg)
        with pytest.raises(ValueError):
            empirical_chebyshev_check(sample, theta, target)


class TestRateFit:
    def test_bs_slope_matches_finite_horizon_oracle(self, bs):
        pol = const_policy(3.5)
        horizons = [10.0, 20.0, 40.0]
        cfg = SimConfig(horizon=40.0, dt=0.05, n_paths=40000, seed=61)
        fit = rate_fit(bs, pol, 0.245, Side.UPSIDE, horizons, cfg, theta_tilt=2.0 / 7.0)
        oracle = ls_slope(horizons, [math.log(bs_tail_oracle(bs, 3.5, 0.245, T)) for T in horizons])
        assert abs(fit.slope - oracle) <= 0.25 * abs(oracle)

    def test_certain_event_slope_zero(self, bs):
        pol = const_policy(0.0)
        cfg = SimConfig(horizon=30.0, dt=0.1, n_paths=500, seed=62)
        fit = rate_fit(bs, pol, 0.0, Side.UPSIDE, [10.0, 20.0, 30.0], cfg)
        assert fit.slope == 0.0
        assert all(row.result.estimate == 1.0 for row in fit.rows)

    @pytest.mark.parametrize("tilted", [True, False], ids=["tilted", "direct"])
    @pytest.mark.parametrize(
        "model, ell, side",
        [
            ("bs", 0.245, Side.UPSIDE),
            ("lg_rho05", 1.0, Side.UPSIDE),
            ("lg_rho05", 0.2, Side.DOWNSIDE),
        ],
        ids=["bs", "lg_rho05-up", "lg_rho05-down"],
    )
    def test_rows_equal_runs_of_their_own(self, request, monkeypatch, model, ell, side, tilted):
        # one run serves every horizon; each row is the run to its own
        # horizon on substream 0, to the bit
        model = request.getfixturevalue(model)
        rate = rate_for_target(model, ell, side)
        pol = policy_for_target(model, ell, side, rate=rate)
        tilt = rate.tilt if tilted else None
        cfg = SimConfig(horizon=4.0, dt=0.05, n_paths=3000, seed=19)
        runs = []
        original = mc._run_paths

        def counting(*args, **kwargs):
            runs.append(kwargs.get("substream", 0))
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_run_paths", counting)
        fit = rate_fit(model, pol, ell, side, [1.0, 2.0, 4.0], cfg, theta_tilt=tilt)
        assert runs == [0]
        monkeypatch.setattr(mc, "_run_paths", original)
        for row in fit.rows:
            cfg_T = replace(cfg, horizon=row.horizon)
            if tilted:
                own, key = tilted_estimate_prob(model, pol, tilt, ell, side, cfg_T), "ess"
            else:
                own, key = estimate_prob(simulate_paths(model, pol, cfg_T), ell, side), "hits"
            assert result_hexes(row.result, key) == result_hexes(own, key)
            assert 0.0 < own.estimate < 1.0

    @pytest.mark.parametrize(
        "horizons, off_grid_substream", [([1.05, 2.0, 4.0], 0), ([2.0, 1.05, 4.0], 1)]
    )
    def test_off_grid_horizon_runs_on_its_own_substream(
        self, bs, monkeypatch, horizons, off_grid_substream
    ):
        # 1.05 ends on a shortened step that a run to 4 at dt 0.1 never takes
        pol = const_policy(3.5)
        cfg = SimConfig(horizon=4.0, dt=0.1, n_paths=2000, seed=23)
        runs = []
        original = mc._run_paths

        def counting(*args, **kwargs):
            runs.append((args[2].horizon, kwargs.get("substream", 0)))
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "_run_paths", counting)
        fit = rate_fit(bs, pol, 0.245, Side.UPSIDE, horizons, cfg, theta_tilt=2.0 / 7.0)
        assert runs == [(4.0, 0), (1.05, off_grid_substream)]
        monkeypatch.setattr(mc, "_run_paths", original)
        for row in fit.rows:
            substream = off_grid_substream if row.horizon == 1.05 else 0
            own = tilted_estimate_prob(
                bs, pol, 2.0 / 7.0, 0.245, Side.UPSIDE, replace(cfg, horizon=row.horizon),
                substream=substream,
            )
            assert result_hexes(row.result, "ess") == result_hexes(own, "ess")

    def test_off_grid_horizon_rejected_by_the_estimators(self, bs):
        cfg = SimConfig(horizon=4.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(ValueError, match="step grid"):
            simulate_paths(bs, const_policy(2.5), cfg, horizons=[1.05])
        with pytest.raises(ValueError, match="step grid"):
            tilted_estimate_prob(bs, const_policy(2.5), 0.2, 0.2, Side.UPSIDE, cfg, horizons=[1.05])

    def test_fewer_than_two_positive_estimates_raise(self, bs):
        # direct estimates of a target far past pi's mean growth rate hit nothing
        cfg = SimConfig(horizon=4.0, dt=0.1, n_paths=200, seed=5)
        with pytest.raises(WeightDegeneracy, match="fewer than 2 horizons"):
            rate_fit(bs, const_policy(2.5), 2.0, Side.UPSIDE, [1.0, 2.0, 4.0], cfg)

    def test_requires_three_horizons(self, bs):
        cfg = SimConfig(horizon=10.0, dt=0.1, n_paths=100, seed=63)
        with pytest.raises(ValueError):
            rate_fit(bs, const_policy(2.5), 0.2, Side.UPSIDE, [5.0, 10.0], cfg)


class TestDiscretization:
    def test_halving_dt_leaves_bs_estimates_consistent(self, bs):
        # the constant-coefficient log-wealth scheme is exact in
        # distribution, so halving dt only changes the draw
        pol = const_policy(3.5)
        exact = bs_tail_oracle(bs, 3.5, 0.245, 10.0)
        results = []
        for dt in (0.1, 0.05):
            cfg = SimConfig(horizon=10.0, dt=dt, n_paths=30000, seed=64)
            res = estimate_prob(simulate_paths(bs, pol, cfg), 0.245, Side.UPSIDE)
            assert abs(res.estimate - exact) <= 3 * res.std_error
            results.append(res)
        a, b = results
        assert abs(a.estimate - b.estimate) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_halving_dt_factor_model_within_noise(self, pr):
        pol = policy_at_tilt(pr, 0.0)
        vals = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(horizon=10.0, dt=dt, n_paths=20000, seed=65)
            sample = simulate_paths(pr, pol, cfg)
            res = estimate_prob(sample, 0.1, Side.UPSIDE)
            vals.append(res)
        assert abs(vals[0].estimate - vals[1].estimate) <= 2 * math.hypot(
            vals[0].std_error, vals[1].std_error
        )


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, dt=0.1, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, dt=2.0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, dt=0.1, n_paths=1, seed=1)

    @pytest.mark.parametrize(
        "horizon, dt",
        [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan), (math.inf, math.inf), (-math.inf, 0.1)],
    )
    def test_non_finite_rejected(self, horizon, dt):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(horizon=horizon, dt=dt, n_paths=10, seed=1)

    @pytest.mark.parametrize(
        "horizon, dt",
        [
            (2.0**32, 1.0),           # 2**32 full steps
            (2.0**32 - 0.5, 1.0),     # 2**32 - 1 full steps and a shortened one
            (1e12, 1e-3),
            (1e300, 1e-300),          # horizon/dt overflows to inf
        ],
    )
    def test_step_count_limited_to_32_bits(self, horizon, dt):
        # the Philox key holds the step index in 32 bits below the substream
        with pytest.raises(ValueError, match="2\\*\\*32 or more steps"):
            SimConfig(horizon=horizon, dt=dt, n_paths=10, seed=1)

    @pytest.mark.parametrize(
        "n_paths, seed", [(2.5, 1), (10.0, 1), (True, 1), ("10", 1), (10, 1.5), (10, False)]
    )
    def test_counts_must_be_integers(self, n_paths, seed):
        # a float path count used to pass here and fail later in numpy with a TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            SimConfig(horizon=1.0, dt=0.1, n_paths=n_paths, seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(horizon=1.0, dt=0.1, n_paths=np.int64(10), seed=np.uint32(7))
        assert cfg.n_paths == 10 and cfg.seed == 7

    def test_largest_step_count_accepted(self):
        cfg = SimConfig(horizon=2.0**32 - 1, dt=1.0, n_paths=10, seed=1)
        assert cfg._n_steps() == 2**32 - 1

    def test_last_step_shortened(self):
        cfg = SimConfig(horizon=1.05, dt=0.1, n_paths=2, seed=1)
        steps = cfg.steps()
        assert len(steps) == 11
        assert steps[-1] == pytest.approx(0.05)
        assert sum(steps) == pytest.approx(1.05)
