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
distribution at any step size.

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
path count and step grid.  In a run of 2**20 or more normals a worker
thread draws and scales the increments one handoff of steps ahead while
the caller advances the previous ones; a shorter run draws them in line.
The stream and the draw of every step are the same either way, so the
prefetch changes no realised number.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .duality import Side
from .errors import NumericalBlowup, WeightDegeneracy
from .models import FactorMarket, FeedbackPolicy

__all__ = [
    "SimConfig",
    "PathSample",
    "SimResult",
    "RateFitRow",
    "RateFitResult",
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
    """Terminal samples (L_T, Y_T) of one simulation run."""

    L: np.ndarray
    Y: np.ndarray
    horizon: float

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


def _draw_ahead(seed, substream, steps, spans, free, ready, caller_cpu) -> None:
    """Worker: fill one buffer from ``free`` per span, in order, and put it on ``ready``.

    A None from ``free`` stops the worker; an exception from the draw is
    put on ``ready`` for the caller to raise.
    """
    try:
        _leave_cpu(caller_cpu)
        for span in spans:
            buf = free.get()
            if buf is None:
                return
            _fill(seed, substream, steps, span, buf)
            ready.put(buf)
    except BaseException as exc:  # the caller re-raises it
        ready.put(exc)


def _run_paths(
    arrays: FactorMarket,
    gain: np.ndarray,
    intercept: np.ndarray,
    cfg: SimConfig,
    theta_tilt: Optional[float] = None,
    CD=None,
    substream: int = 0,
):
    d, m, q = arrays.dims
    n = cfg.n_paths
    steps = cfg.steps()
    L = np.zeros(n)
    Y = np.zeros((n, m))
    logw = np.zeros(n)
    if theta_tilt is not None:
        C, D = CD if CD is not None else (np.zeros((m, m)), np.zeros(m))
    # A long run's noise comes in handoffs of consecutive steps, each holding
    # at least _HANDOFF_NORMALS normals.  This thread draws the first one;
    # the worker fills the spare of two buffers with the next handoff while
    # this thread steps through the other.  A short run is drawn in line,
    # one step at a time.
    ahead = len(steps) * n * q >= _PREFETCH_NORMALS
    spans = _handoffs(len(steps), -(-_HANDOFF_NORMALS // (n * q)) if ahead else 1)
    block = np.empty((len(spans[-1]), n, q))
    worker = None
    if ahead:
        import queue  # here, not at the top: it adds about 1 ms to every start-up

        free, ready = queue.SimpleQueue(), queue.SimpleQueue()
        free.put(np.empty_like(block))
        worker = threading.Thread(
            target=_draw_ahead,
            args=(cfg.seed, substream, steps, spans[1:], free, ready, _current_cpu()),
            daemon=True,
        )
        worker.start()
    try:
        _fill(cfg.seed, substream, steps, spans[0], block)
        j = 0
        t = 0.0
        for k, h in enumerate(steps):
            pi = Y @ gain.T + intercept                       # (n, d)
            A = pi @ arrays.sigma                             # (n, q), rows sigma'pi
            drift_b = Y @ arrays.B1.T + arrays.B0             # (n, d)
            pi_b = np.einsum("ij,ij->i", pi, drift_b)
            quad = np.einsum("ij,ij->i", A, A)                # pi' ss' pi
            if k == spans[j].stop:
                j += 1
                if worker is None:
                    _fill(cfg.seed, substream, steps, spans[j], block)
                else:
                    free.put(block)
                    block = ready.get()
                    if isinstance(block, BaseException):
                        raise block
            dW = block[k - spans[j].start]                    # sqrt(h) * N(0, 1)
            if theta_tilt is not None:
                H = theta_tilt * A + (Y @ C.T + D) @ arrays.gamma
                logw -= np.einsum("ij,ij->i", H, dW) + 0.5 * np.einsum("ij,ij->i", H, H) * h
                dW = dW + H * h
            L += (pi_b - 0.5 * quad) * h + np.einsum("ij,ij->i", A, dW)
            if m:
                Y += (Y @ arrays.K.T) * h + dW @ arrays.gamma.T
            t += h
            if (k + 1) % _BLOWUP_CHECK_INTERVAL == 0 or k + 1 == len(steps):
                bad = ~np.isfinite(L)
                if m:
                    bad |= ~np.isfinite(Y).all(axis=1)
                if bad.any():
                    idx = int(np.argmax(bad))
                    raise NumericalBlowup(
                        f"non-finite state on path {idx} near t={t:.6g}",
                        path_index=idx,
                        time=t,
                    )
    finally:
        if worker is not None:
            free.put(None)
            worker.join()
    return L, Y, logw


def simulate_paths(
    model,
    policy: FeedbackPolicy,
    cfg: SimConfig,
    substream: int = 0,
) -> PathSample:
    """Terminal samples of (L_T, Y_T) under the model's own dynamics.

    Deterministic given (model, policy, cfg): noise is read from
    counter-based per-step substreams.
    """
    arrays = model.market()
    d, m, _ = arrays.dims
    gain, intercept = policy.as_arrays(d, m)
    L, Y, _ = _run_paths(arrays, gain, intercept, cfg, substream=substream)
    return PathSample(L=L, Y=Y, horizon=cfg.horizon)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _tail_indicator(sample: PathSample, target: float, side: Side) -> np.ndarray:
    cutoff = float(target) * sample.horizon
    if side is Side.UPSIDE:
        return sample.L >= cutoff
    return sample.L <= cutoff


def estimate_prob(sample: PathSample, target: float, side: Side) -> SimResult:
    """Empirical tail frequency with a binomial standard error.

    A zero-hit outcome is flagged (``extras["zero_hits"]``) rather than
    raised; the flag suggests rerunning with the tilted estimator at the
    conjugate tilt of the target.
    """
    ind = _tail_indicator(sample, target, side)
    n = sample.n_paths
    hits = int(ind.sum())
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    extras = {"hits": hits}
    if hits == 0:
        extras["zero_hits"] = True
        extras["suggestion"] = "no hits: rerun with the tilted estimator at the conjugate tilt"
    return SimResult(
        estimate=p,
        std_error=se,
        n_paths=n,
        log_estimate=math.log(p) if p > 0 else None,
        extras=extras,
    )


def _ess(weights: np.ndarray) -> float:
    s = weights.sum()
    return float(s * s / np.sum(weights * weights))


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
    ess = _ess(w)
    if ess < _ESS_FLOOR * n:
        raise WeightDegeneracy(
            f"exponential-weight ESS {ess:.1f} below {_ESS_FLOOR:.0%} of {n} paths"
        )
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
    direct estimator path-for-path.
    """
    theta_tilt = float(theta_tilt)
    if not math.isfinite(theta_tilt):
        raise ValueError(f"theta_tilt must be finite, got {theta_tilt}")
    if side is Side.UPSIDE and theta_tilt < 0:
        raise ValueError("upside tilting requires theta_tilt >= 0")
    if side is Side.DOWNSIDE and theta_tilt > 0:
        raise ValueError("downside tilting requires theta_tilt <= 0")
    arrays = model.market()
    d, m, _ = arrays.dims
    gain, intercept = policy.as_arrays(d, m)
    CD = model.quadratic_pair(theta_tilt)
    L, Y, logw = _run_paths(
        arrays, gain, intercept, cfg, theta_tilt=theta_tilt, CD=CD, substream=substream
    )
    sample = PathSample(L=L, Y=Y, horizon=cfg.horizon)
    ind = _tail_indicator(sample, target, side).astype(float)
    w = np.exp(logw - logw.max())
    wsum = float(w.sum())
    p = float(w @ ind) / wsum
    se = float(np.sqrt(np.sum((w * (ind - p)) ** 2))) / wsum
    n = cfg.n_paths
    ess = _ess(w)
    if ess < _ESS_FLOOR * n:
        raise WeightDegeneracy(
            f"tilted-weight ESS {ess:.1f} below {_ESS_FLOOR:.0%} of {n} paths"
        )
    return SimResult(
        estimate=p,
        std_error=se,
        n_paths=n,
        log_estimate=math.log(p) if p > 0 else None,
        extras={"ess": ess, "theta_tilt": theta_tilt},
    )


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

    Runs one estimate per horizon (independent substreams) and fits
    log P(T) ~ intercept + slope * T by least squares.  When
    ``theta_tilt`` is given the tilted estimator is used throughout --
    small probabilities at the longer horizons would otherwise return
    zero hits.
    """
    if len(set(map(float, horizons))) < 3:
        raise ValueError("need at least 3 distinct horizons for a decay-rate fit")
    rows = []
    for k, T in enumerate(horizons):
        cfg_T = replace(cfg, horizon=float(T))
        if theta_tilt is not None:
            res = tilted_estimate_prob(
                model, policy, theta_tilt, target, side, cfg_T, substream=k
            )
        else:
            sample = simulate_paths(model, policy, cfg_T, substream=k)
            res = estimate_prob(sample, target, side)
        rows.append(RateFitRow(horizon=float(T), result=res))
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
    ``weights``, the hook used by the negative-control test).
    """
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
