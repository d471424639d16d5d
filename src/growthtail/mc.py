"""Monte-Carlo verification engine for growth-rate tail probabilities.

Simulates the joint log-wealth / factor dynamics

    dL = (pi'b(Y) - 1/2 pi' ss' pi) dt + pi's dW,
    dY = K Y dt + g dW,

under an affine feedback policy pi(y) = G y + g0, with a shared Brownian
motion of dimension d+m, by Euler-Maruyama directly on L (wealth is never
exponentiated, so paths cannot overflow through positivity).  A model
enters only through ``model.market()``, its canonical record
``(K, B1, B0, sigma, gamma)``, and ``model.quadratic_pair(theta)``, the
``(C, D)`` pair that shapes the tilted shift.  The Black-Scholes case is
the empty-factor record (m = 0) and its log-wealth scheme is exact in
distribution at any step size.  The stepper holds the factor state
component-major, one n-vector per factor, and forms the policy, drift and
shift terms as sums of elementwise products over the small dimensions, in
scratch reused by every step.  With no factor those terms are the same for
every path and at every step, so the stepper computes them once, as one
entry that broadcasts over the paths, by the same expressions on the same
values.  A state that overflows or turns NaN ends the run in
``NumericalBlowup`` from the stepper's periodic finiteness check, without
a numpy warning first.

Estimators
----------
* direct tail frequency with binomial standard errors,
* finite-horizon scaled log-Laplace values with delta-method errors,
* an exponential-tilting importance sampler: paths are simulated under a
  Girsanov shift of the Brownian increments and reweighted by the exact
  accumulated change-of-measure density, self-normalized so that the
  unknown log-Laplace normalizer cancels.  The shift combines the
  risk-sensitivity tilt of the strategy noise with the gradient of the
  model's quadratic value, which keeps the tilted factor process ergodic
  for every tilt; for Black-Scholes the weights reduce pathwise to
  exp(-theta * L_T) and the estimator coincides with the textbook tilted
  scheme.  Because the per-step reweighting is the exact density ratio of
  the two Euler chains, the estimator is unbiased at the discretization
  level for any shift.

Reproducibility
---------------
All noise comes from counter-based Philox streams keyed by
(seed, substream, step index), and path i always reads row i of its
step's draw, so a run is bit-identical for a fixed seed, substream,
path count and step grid.  In a run of 2**20 or more normals a one-thread
pool is queued up to two handoffs of steps ahead of the one the caller
advances; when the caller reaches a handoff that is not drawn yet, it
draws the queued handoffs that the pool has not started itself, instead
of waiting.  The pool is shut down on every exit, and handoffs it has not
started are cancelled.  A shorter run draws its noise in line.  The draw
of a step is the same on any thread, so which thread drew it changes no
realised number.  With at most one asset, one factor and two Brownian
drivers (the Black-Scholes, scalar factor and OU log-price models) the
arithmetic is bit for bit that of a row-layout stepper holding (n, m)
rows and forming its terms by matmul and einsum; on larger markets a sum
may round differently in the last bits.  A run to T/4 takes the first
steps of a run to T on the same grid, so a decay-rate fit reads every
such horizon from one run's state where the horizon ends: each row is
bit-identical to a run of its own on substream 0, and the rows are
correlated.  One run layer maps the model and policy to arrays and the
horizons to step counts, and hands its state to a reader at each.
"""

from __future__ import annotations

import math
import numbers
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .duality import Side
from .errors import DomainError, NumericalBlowup, WeightDegeneracy
from .models import FeedbackPolicy

__all__ = [
    "SimConfig",
    "PathSample",
    "SimResult",
    "RateFitRow",
    "RateFitResult",
    "RunStats",
    "counting",
    "simulate_paths",
    "estimate_prob",
    "estimate_log_laplace",
    "tilted_estimate_prob",
    "rate_fit",
    "empirical_chebyshev_check",
]

_ESS_FLOOR = 0.01
_BLOWUP_CHECK_INTERVAL = 64
# Philox keys hold the step index in 32 bits, below the substream.
_MAX_STEPS = 1 << 32
# Each handoff to the noise worker holds at least this many normals.
_HANDOFF_NORMALS = 1 << 16
# A run with fewer normals (about 20 ms of draws) is drawn in line: starting
# a thread costs 0.1-0.3 ms, and several ms while another thread spins on
# the caller's CPU, as OpenBLAS's pool does for a while after numpy loads.
_PREFETCH_NORMALS = 1 << 20
# Noise buffers of a run drawn ahead: the handoff being stepped and two queued.
_WINDOW = 3


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters."""

    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.horizon) or not self.horizon > 0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not math.isfinite(self.dt) or not 0 < self.dt <= self.horizon:
            raise ValueError(f"dt must be finite and lie in (0, horizon], got {self.dt}")
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        # the ratio test first: an overflowed ratio cannot be floored
        if not self.horizon / self.dt < _MAX_STEPS or self._n_steps() >= _MAX_STEPS:
            raise ValueError(
                f"horizon {self.horizon} and dt {self.dt} give 2**32 or more steps"
            )

    def _split(self) -> tuple[int, float]:
        """Number of full steps and the shortened last step (0 if none)."""
        n_full = int(math.floor(self.horizon / self.dt + 1e-9))
        rem = self.horizon - n_full * self.dt
        return n_full, rem if rem > 1e-12 * self.dt else 0.0

    def _n_steps(self) -> int:
        n_full, rem = self._split()
        return n_full + (rem > 0)

    def steps(self) -> list[float]:
        """Step sizes: horizon/dt full steps plus a shortened last step."""
        n_full, rem = self._split()
        return [self.dt] * n_full + ([rem] if rem else [])


@dataclass(frozen=True, eq=False)
class PathSample:
    """Terminal samples (L_T, Y_T) of one simulation run.

    ``earlier`` holds the samples the same run passed through at shorter
    horizons, when ``simulate_paths`` was asked for them.
    """

    L: np.ndarray
    Y: np.ndarray
    horizon: float
    earlier: tuple = ()

    @property
    def n_paths(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class SimResult:
    """Point estimate with standard error and diagnostics."""

    estimate: float
    std_error: float
    n_paths: int
    log_estimate: Optional[float] = None
    extras: dict = field(default_factory=dict)


@dataclass
class RunStats:
    """Simulation work done while a ``counting()`` block was open."""

    sim_runs: int = 0
    path_steps: int = 0


_run_stats: ContextVar[Optional[RunStats]] = ContextVar("growthtail_mc_run_stats", default=None)


@contextmanager
def counting() -> Iterator[RunStats]:
    """Count the runs and path-steps simulated in the block (on this thread or task)."""
    stats = RunStats()
    token = _run_stats.set(stats)
    try:
        yield stats
    finally:
        _run_stats.reset(token)


# ---------------------------------------------------------------------------
# core stepper
# ---------------------------------------------------------------------------


def _step_normals(seed: int, substream: int, step: int, out: np.ndarray) -> None:
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((substream & 0xFFFFFFFF) << 32) | step)],
        dtype=np.uint64,
    )
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.standard_normal(out=out)


def _current_cpu() -> Optional[int]:
    """The CPU this thread runs on, where Linux's /proc reports it."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: Optional[int]) -> None:
    """Move this thread off ``cpu`` if another allowed CPU exists.

    Where the scheduler does not balance load (a Linux cpuset with
    sched_load_balance off), a new thread starts on its creator's CPU and
    stays there, so the draw would only time-share the stepper's core.
    The allowed set is restored at once; the thread stays where it landed
    until the scheduler moves it.
    """
    if cpu is None:
        return
    try:
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):  # no affinity calls on this platform
        pass


def _handoffs(n_steps: int, run: int) -> list:
    """Consecutive spans of ``run`` steps covering the run; the last also takes the remainder."""
    starts = range(0, max(n_steps // run, 1) * run, run)
    return [range(a, b) for a, b in zip(starts, [*starts[1:], n_steps])]


def _fill(seed: int, substream: int, steps: list, span: range, buf: np.ndarray) -> None:
    """Brownian increments sqrt(h) * N(0, 1) of the steps in span, one per row of buf."""
    for i, k in enumerate(span):
        _step_normals(seed, substream, k, buf[i])
        buf[i] *= math.sqrt(steps[k])


def _sum_products(out: np.ndarray, tmp: np.ndarray, xs, ys) -> np.ndarray:
    """out = xs[0]*ys[0] + xs[1]*ys[1] + ..., each product rounded, summed left to right.

    An empty sum is 0.  This is bit for bit a matmul over a dimension of
    length 0 or 1 and an ``einsum`` sum of one or two products; a BLAS
    product over two or more terms may fuse its multiply-adds instead.
    """
    if len(xs) == 0:
        out.fill(0.0)
        return out
    np.multiply(xs[0], ys[0], out=out)
    for x, y in zip(xs[1:], ys[1:]):
        out += np.multiply(x, y, out=tmp)
    return out


def _end_step(cfg: SimConfig, horizon: float) -> Optional[int]:
    """Step count at which a run on cfg reaches ``horizon``, None if it passes it by.

    A run to ``horizon`` on cfg's step size must take the first steps of
    cfg's run exactly; then it reads the same noise and its state equals
    cfg's run's after that many steps.
    """
    steps = replace(cfg, horizon=horizon).steps()
    return len(steps) if steps == cfg.steps()[: len(steps)] else None


def _run_paths(
    model,
    policy: FeedbackPolicy,
    cfg: SimConfig,
    theta_tilt: Optional[float] = None,
    CD=None,
    substream: int = 0,
    horizons: Sequence[float] = (),
    read: Optional[Callable] = None,
):
    """Step every path to cfg.horizon; returns the terminal (L, Y, logw) and the readings.

    Where each of ``horizons`` (each ending on the run's step grid) ends,
    the state is checked for non-finite values and ``read(L, Y, logw, T)``
    is called on it, with Y an (n, m) view; its return values come back in
    the order of ``horizons``.  Later steps update those arrays in place,
    so ``read`` copies what it keeps.
    """
    arrays = model.market()
    d, m, q = arrays.dims
    gain, intercept = policy.as_arrays(d, m)
    ends = [_end_step(cfg, T) for T in horizons]
    if None in ends:
        T = horizons[ends.index(None)]
        raise ValueError(f"horizon {T} does not end on the step grid of a run to {cfg.horizon}")
    marks = frozenset(ends)
    readings = [None] * len(ends)
    n = cfg.n_paths
    steps = cfg.steps()
    K, B1, B0, sigma, gamma = arrays.K, arrays.B1, arrays.B0, arrays.sigma, arrays.gamma
    tilted = theta_tilt is not None
    if tilted:
        C, D = CD
    # The state is component-major, one n-vector per factor.  Every term is a
    # sum of elementwise products over d, m or q, written into scratch that
    # every step reuses (matmul and einsum are slow on (n, 1) and (n, 2) rows),
    # except dW @ gamma', which stays a BLAS product for its fused
    # multiply-adds.  With no factor (m = 0) the terms are the same for every
    # path and at every step: one entry, computed once, broadcast over paths.
    P = n if m else 1
    L, Y, logw = np.zeros(n), np.zeros((m, n)), np.zeros(n)
    pi, b, A, H, z = (np.empty((rows, P)) for rows in (d, d, q, q, m))
    drift, half_HH, scaled, ptmp = (np.empty(P) for _ in range(4))
    dot, tmp, KY, G = np.empty(n), np.empty(n), np.empty((m, n)), np.empty((n, m))
    # Noise comes in handoffs of consecutive steps, each of at least
    # _HANDOFF_NORMALS normals.  A long run queues up to _WINDOW - 1 handoffs
    # ahead of the one it steps on a one-thread pool; rather than wait for a
    # handoff, this thread draws the queued ones the pool has not started,
    # furthest first, as the pool takes them in order.  A short run is drawn
    # in line, one step at a time.
    ahead = len(steps) * n * q >= _PREFETCH_NORMALS
    spans = _handoffs(len(steps), -(-_HANDOFF_NORMALS // (n * q)) if ahead else 1)
    fill = partial(_fill, cfg.seed, substream, steps)
    bufs = [np.empty((len(spans[-1]), n, q))]  # the last span is the longest
    pool = None
    if ahead and len(spans) > 1:
        # here, not at the top: it adds about 7 ms to every start-up
        from concurrent.futures import Future, ThreadPoolExecutor

        pool = ThreadPoolExecutor(1, initializer=_leave_cpu, initargs=(_current_cpu(),))
        bufs += [np.empty_like(bufs[0]) for _ in spans[1:_WINDOW]]
        queued = {i: pool.submit(fill, spans[i], bufs[i]) for i in range(1, len(bufs))}
        drawn = Future()  # stands for a handoff this thread drew
        drawn.set_result(None)
    try:
        # a blow-up is reported by the finiteness check, not by a numpy warning first
        with np.errstate(over="ignore", invalid="ignore"):
            fill(spans[0], bufs[0])
            j = 0
            t = 0.0
            for k, h in enumerate(steps):
                if m or k == 0:
                    for a in range(d):
                        _sum_products(pi[a], ptmp, gain[a], Y)         # pi = G y + g0
                        pi[a] += intercept[a]
                        _sum_products(b[a], ptmp, B1[a], Y)            # b(y) = B1 y + B0
                        b[a] += B0[a]
                    for i in range(q):
                        _sum_products(A[i], ptmp, sigma[:, i], pi)     # sigma'pi
                    _sum_products(drift, ptmp, pi, b)                  # pi'b - pi'ss'pi / 2
                    drift -= np.multiply(_sum_products(scaled, ptmp, A, A), 0.5, out=scaled)
                    if tilted:
                        # H = theta sigma'pi + gamma'(C y + D)
                        for i in range(m):
                            _sum_products(z[i], ptmp, C[i], Y)
                            z[i] += D[i]
                        for i in range(q):
                            _sum_products(H[i], ptmp, gamma[:, i], z)
                            H[i] += np.multiply(A[i], theta_tilt, out=ptmp)
                        np.multiply(_sum_products(half_HH, ptmp, H, H), 0.5, out=half_HH)
                if k == spans[j].stop:
                    j += 1
                    if pool is None:
                        fill(spans[j], bufs[0])
                    else:
                        # the buffer handoff j - 1 held is free again
                        nxt = j + len(bufs) - 1
                        if nxt < len(spans):
                            queued[nxt] = pool.submit(fill, spans[nxt], bufs[nxt % len(bufs)])
                        pending = queued.pop(j)
                        for i in sorted(queued, reverse=True):
                            if pending.done():
                                break
                            if queued[i].cancel():  # only if the pool has not started it
                                fill(spans[i], bufs[i % len(bufs)])
                                queued[i] = drawn
                        pending.result()  # re-raises the draw's own exception
                dW = bufs[j % len(bufs)][k - spans[j].start]   # sqrt(h) * N(0, 1), (n, q)
                dWc = dW.T                                      # its q columns
                if tilted:
                    # logw -= H'dW + |H|^2 h / 2, then dW += H h (this step's row only)
                    _sum_products(dot, tmp, H, dWc)
                    dot += np.multiply(half_HH, h, out=scaled)
                    logw -= dot
                    for i in range(q):
                        dWc[i] += np.multiply(H[i], h, out=scaled)
                # L += A'dW + (pi'b - pi'ss'pi / 2) h
                _sum_products(dot, tmp, A, dWc)
                dot += np.multiply(drift, h, out=scaled)
                L += dot
                if m:
                    # Y += (K y) h + gamma dW
                    for i in range(m):
                        _sum_products(KY[i], tmp, K[i], Y)
                        KY[i] *= h
                    KY += np.matmul(dW, gamma.T, out=G).T
                    Y += KY
                t += h
                if (k + 1) % _BLOWUP_CHECK_INTERVAL == 0 or k + 1 in marks or k + 1 == len(steps):
                    bad = ~np.isfinite(L)
                    if m:
                        bad |= ~np.isfinite(Y).all(axis=0)
                    if tilted:
                        bad |= ~np.isfinite(logw)
                    if bad.any():
                        idx = int(np.argmax(bad))
                        raise NumericalBlowup(
                            f"non-finite state on path {idx} near t={t:.6g}",
                            path_index=idx,
                            time=t,
                        )
                if k + 1 in marks:
                    for i, end in enumerate(ends):
                        if end == k + 1:
                            readings[i] = read(L, Y.T, logw, horizons[i])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    stats = _run_stats.get()
    if stats is not None:
        stats.sim_runs += 1
        stats.path_steps += n * len(steps)
    return (L, np.ascontiguousarray(Y.T), logw), readings


def simulate_paths(
    model,
    policy: FeedbackPolicy,
    cfg: SimConfig,
    substream: int = 0,
    horizons: Sequence[float] = (),
) -> PathSample:
    """Terminal samples of (L_T, Y_T) under the model's own dynamics.

    Deterministic given (model, policy, cfg): noise is read from
    counter-based per-step substreams.  ``horizons`` (each ending on the
    step grid of cfg's run) adds the run's samples at those horizons as
    ``earlier``; each equals a run of its own to that horizon.
    """

    def keep(L, Y, logw, T):
        return PathSample(L=L.copy(), Y=Y.copy(), horizon=float(T))

    (L, Y, _), earlier = _run_paths(
        model, policy, cfg, substream=substream, horizons=horizons, read=keep
    )
    return PathSample(L=L, Y=Y, horizon=cfg.horizon, earlier=tuple(earlier))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _tail_indicator(L: np.ndarray, horizon: float, target: float, side: Side) -> np.ndarray:
    cutoff = float(target) * horizon
    if side is Side.UPSIDE:
        return L >= cutoff
    return L <= cutoff


def estimate_prob(sample: PathSample, target: float, side: Side) -> SimResult:
    """Empirical tail frequency with a binomial standard error.

    A zero-hit outcome is flagged (``extras["zero_hits"]``) rather than
    raised; the tilted estimator at the target's conjugate tilt is the
    remedy.  A NaN target is a ValueError.
    """
    if math.isnan(target):
        raise ValueError("target is NaN")
    ind = _tail_indicator(sample.L, sample.horizon, target, side)
    n = sample.n_paths
    hits = int(ind.sum())
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    extras = {"hits": hits}
    if hits == 0:
        extras["zero_hits"] = True
    return SimResult(
        estimate=p,
        std_error=se,
        n_paths=n,
        log_estimate=math.log(p) if p > 0 else None,
        extras=extras,
    )


def _ess(weights: np.ndarray, kind: str) -> float:
    """Effective sample size; WeightDegeneracy below 1% of the path count."""
    s = weights.sum()
    ess = float(s * s / np.sum(weights * weights))
    n = len(weights)
    if ess < _ESS_FLOOR * n:
        raise WeightDegeneracy(f"{kind}-weight ESS {ess:.1f} below {_ESS_FLOOR:.0%} of {n} paths")
    return ess


def estimate_log_laplace(sample: PathSample, theta: float) -> SimResult:
    """Scaled log-Laplace estimate (1/T) log mean(exp(theta L_T)).

    Standard error by the delta method; the effective sample size of the
    exponential weights is reported and a collapse below 1% of the path
    count raises WeightDegeneracy.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    T = sample.horizon
    a = theta * sample.L
    amax = float(a.max())
    w = np.exp(a - amax)
    n = sample.n_paths
    mean_w = float(w.mean())
    est = (amax + math.log(mean_w)) / T
    se = float(w.std(ddof=1)) / (math.sqrt(n) * mean_w * T)
    ess = _ess(w, "exponential")
    return SimResult(
        estimate=est,
        std_error=se,
        n_paths=n,
        log_estimate=None,
        extras={"ess": ess, "theta": float(theta)},
    )


def tilted_estimate_prob(
    model,
    policy: FeedbackPolicy,
    theta_tilt: float,
    target: float,
    side: Side,
    cfg: SimConfig,
    substream: int = 0,
    horizons: Sequence[float] = (),
) -> SimResult:
    """Tail probability by exponential-tilting importance sampling.

    The Brownian increments are shifted by h_t = theta*s'pi_t + g'grad
    phi(Y_t) (phi the model's quadratic value at the tilt), which centers
    the tilted dynamics on the target event while keeping the factor
    ergodic, and every path carries its exact accumulated log density
    ratio.  The self-normalized ratio estimator

        P[A] ~= sum(w 1_A) / sum(w),   w = exp(accumulated log-weight)

    cancels the unknown normalizing constant; for Black-Scholes w is
    pathwise proportional to exp(-theta L_T).  Standard error by the
    delta method for ratio estimators.  theta_tilt = 0 reproduces the
    direct estimator path-for-path.  A tilt that is not finite, has the
    wrong sign for the side, or lies past the model's domain (where the
    quadratic value does not exist) is a ValueError, and so is a NaN target.

    ``horizons`` (each ending on the step grid of cfg's run) adds the
    estimates from the same run's state at those horizons as
    ``extras["earlier"]``; each equals a run of its own to that horizon.
    """
    theta_tilt = float(theta_tilt)
    if not math.isfinite(theta_tilt):
        raise ValueError(f"theta_tilt must be finite, got {theta_tilt}")
    if side is Side.UPSIDE and theta_tilt < 0:
        raise ValueError("upside tilting requires theta_tilt >= 0")
    if side is Side.DOWNSIDE and theta_tilt > 0:
        raise ValueError("downside tilting requires theta_tilt <= 0")
    if math.isnan(target):
        raise ValueError("target is NaN")
    try:
        CD = model.quadratic_pair(theta_tilt)
    except DomainError as exc:
        raise ValueError(
            f"theta_tilt={theta_tilt} lies outside the model's domain: {exc}"
        ) from None

    def estimate(L, Y, logw, T):
        """Self-normalized tail estimate from the state of the tilted run at horizon T."""
        ind = _tail_indicator(L, float(T), target, side).astype(float)
        w = np.exp(logw - logw.max())
        wsum = float(w.sum())
        p = float(w @ ind) / wsum
        se = float(np.sqrt(np.sum((w * (ind - p)) ** 2))) / wsum
        ess = _ess(w, "tilted")
        return SimResult(
            estimate=p,
            std_error=se,
            n_paths=L.shape[0],
            log_estimate=math.log(p) if p > 0 else None,
            extras={"ess": ess, "theta_tilt": theta_tilt},
        )

    (L, Y, logw), earlier = _run_paths(
        model, policy, cfg, theta_tilt=theta_tilt, CD=CD, substream=substream,
        horizons=horizons, read=estimate,
    )
    res = estimate(L, Y, logw, cfg.horizon)
    if earlier:
        res.extras["earlier"] = tuple(earlier)
    return res


@dataclass(frozen=True)
class RateFitRow:
    horizon: float
    result: SimResult


@dataclass(frozen=True)
class RateFitResult:
    """Least-squares decay-rate fit of log tail probabilities against horizon."""

    slope: float
    intercept: float
    rows: list


def rate_fit(
    model,
    policy: FeedbackPolicy,
    target: float,
    side: Side,
    horizons: Sequence[float],
    cfg: SimConfig,
    theta_tilt: Optional[float] = None,
) -> RateFitResult:
    """Estimate the exponential decay rate of the tail probability in T.

    Makes one run to the longest horizon on substream 0 and reads every
    horizon whose steps begin that run's from its state there, so each row
    equals a run of its own to its horizon on substream 0, bit for bit, and
    the rows are correlated.  A horizon off that step grid (say 1.05 with
    dt 0.1 beside 4) gets a run of its own on substream k, its index in
    ``horizons``.  Fits log P(T) ~ intercept + slope * T by least squares.
    When ``theta_tilt`` is given the tilted estimator is used throughout --
    small probabilities at the longer horizons would otherwise return zero
    hits.
    """
    if len(set(map(float, horizons))) < 3:
        raise ValueError("need at least 3 distinct horizons for a decay-rate fit")
    cfgs = [replace(cfg, horizon=float(T)) for T in horizons]
    longest = max(cfgs, key=lambda c: c.horizon)
    shared = sorted({
        c.horizon for c in cfgs
        if c.horizon < longest.horizon and _end_step(longest, c.horizon) is not None
    })

    def estimates(cfg_T, substream=0, horizons=()) -> list:
        """Estimates at each of ``horizons`` and at cfg_T's own, from one run."""
        if theta_tilt is not None:
            res = tilted_estimate_prob(
                model, policy, theta_tilt, target, side, cfg_T, substream, horizons
            )
            return [*res.extras.get("earlier", ()), res]
        sample = simulate_paths(model, policy, cfg_T, substream, horizons)
        return [estimate_prob(s, target, side) for s in (*sample.earlier, sample)]

    found = dict(zip([*shared, longest.horizon], estimates(longest, horizons=shared)))
    rows = [
        RateFitRow(c.horizon, found[c.horizon] if c.horizon in found else estimates(c, k)[-1])
        for k, c in enumerate(cfgs)
    ]
    pts = [(T, lp) for T, lp in ((r.horizon, r.result.log_estimate) for r in rows) if lp is not None]
    if len(pts) < 2:
        raise WeightDegeneracy(
            "fewer than 2 horizons produced a positive estimate; "
            "rerun with a tilted estimator"
        )
    slope, intercept = _ls_line([p[0] for p in pts], [p[1] for p in pts])
    return RateFitResult(slope=slope, intercept=intercept, rows=rows)


def _ls_line(x, y) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points (x, y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    return slope, float(y.mean() - slope * x.mean())


def empirical_chebyshev_check(
    sample: PathSample,
    theta: float,
    target: float,
    weights: Optional[np.ndarray] = None,
) -> bool:
    """Exponential Markov bound under the empirical measure (upside, theta >= 0).

    Checks mean(1{L_T >= l T}) <= exp(-theta l T) mean(exp(theta L_T)).
    The bound holds pointwise for every sample set, so a False return can
    only signal an implementation error (or deliberately corrupted
    ``weights``, the hook used by the negative-control test).  A theta that
    is not finite and a NaN target are ValueErrors.
    """
    if not math.isfinite(theta) or math.isnan(target):
        raise ValueError(f"theta must be finite and target not NaN, got {theta} and {target}")
    if theta < 0:
        raise ValueError("the upside Markov bound requires theta >= 0")
    cutoff = float(target) * sample.horizon
    lhs = float(np.mean(sample.L >= cutoff))
    if weights is not None:
        rhs = math.exp(-theta * cutoff) * float(np.mean(weights))
        return lhs <= rhs * (1.0 + 1e-12)
    if lhs == 0.0:
        return True
    a = theta * sample.L
    amax = float(a.max())
    log_rhs = -theta * cutoff + amax + math.log(float(np.mean(np.exp(a - amax))))
    return math.log(lhs) <= log_rhs + 1e-12
