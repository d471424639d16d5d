"""Span tracer that wraps growthtail functions from outside the package.

The traced run patches a fixed list of functions (public entry points of
each layer plus three private helpers named in ``PRIVATE``) in every
growthtail module namespace that refers to them, so calls through module
attributes, re-exports and cross-module ``from ... import`` names are all
seen.  Nothing under ``src/`` is edited; ``uninstall`` restores the
original objects, so untraced passes run the unmodified code.

Each call opens a span (name, start, end, parent span, invocation id).
Self time is computed online: a span's duration minus the time its child
spans cover.  Spans opened on another thread have no parent, so their time
is not subtracted from the span that started the thread; ``trace.coverage``
above 1 shows it.  Spans are kept in memory (the first ``span_cap`` of them
in full, all of them as per-name aggregates) and written once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

# (module, attribute, self-time bucket, inclusive-time group)
# Every wrapped function belongs to exactly one bucket, so the bucket self
# times partition the traced invocation time.
WRAPPED = [
    ("cli", "main", "cli", None),
    ("mc", "_step_normals", "mc.noise", None),
    ("mc", "_run_paths", "mc.step", None),
    ("mc", "simulate_paths", "mc.step", None),
    ("mc", "tilted_estimate_prob", "mc.reduce", None),
    ("mc", "rate_fit", "mc.reduce", None),
    ("mc", "estimate_prob", "mc.reduce", None),
    ("mc", "estimate_log_laplace", "mc.reduce", None),
    ("mc", "empirical_chebyshev_check", "mc.reduce", None),
    ("duality", "frontier", "duality", None),
    ("duality", "conjugate_upside", "duality", None),
    ("duality", "conjugate_downside", "duality", None),
    ("duality", "solve_tilt", "duality", "duality.solve"),
    ("duality", "check_curve", "duality", None),
    ("duality", "DualCurve.deriv", "duality", None),
    ("duality", "DualCurve.value", "duality", None),
    ("models", "dual_curve", "models", "models.curve"),
    ("models", "bs_dual", "models", "models.curve"),
    ("models", "lg1d_gamma_curve", "models", "models.curve"),
    ("models", "lg1d_gamma", "models", "models.gamma"),
    ("models", "rate_for_target", "models", None),
    ("models", "pr_rates", "models", None),
    ("models", "bs_prob_exact", "models", None),
    ("models", "policy_for_target", "models", "models.policy"),
    ("models", "policy_at_tilt", "models", "models.policy"),
    ("models", "lg1d_policy", "models", "models.policy"),
    ("models", "bs_policy", "models", "models.policy"),
    ("riccati", "theta_sweep", "riccati", None),
    ("riccati", "solve_care", "riccati", None),
    ("riccati", "_newton", "riccati", None),
    ("riccati", "gamma_md", "riccati", None),
    ("riccati", "riccati_residual", "riccati", None),
    ("riccati", "policy_md", "riccati", None),
]

# Private helpers have no public equivalent that isolates their work; a
# version without one of them reports the dependent metrics as absent.
PRIVATE = {
    "mc._step_normals": ["mc.noise_s", "mc.noise_calls", "mc.noise_bytes"],
    "mc._run_paths": ["mc.step_s", "mc.reduce_s"],
    "riccati._newton": ["riccati.newton_calls", "riccati.newton_per_point"],
}

BUCKETS = ["cli", "mc.noise", "mc.step", "mc.reduce", "duality", "models", "riccati"]


def _cfg_path_steps(cfg) -> int:
    return int(cfg.n_paths) * len(cfg.steps())


def _hook_noise(tracer, args, kwargs, result):
    out = args[3] if len(args) > 3 else kwargs["out"]
    tracer.counters["mc.noise_bytes"] += out.nbytes


def _hook_simulate(tracer, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.counters["mc.path_steps"] += _cfg_path_steps(cfg)


def _hook_tilted(tracer, args, kwargs, result):
    cfg = args[5] if len(args) > 5 else kwargs["cfg"]
    tracer.counters["mc.path_steps"] += _cfg_path_steps(cfg)
    frac = result.extras["ess"] / result.n_paths
    tracer.ess_frac_min = min(tracer.ess_frac_min, frac)


def _hook_deriv(tracer, args, kwargs, result):
    if tracer.open_groups.get("duality.solve", 0) > 0:
        tracer.counters["duality.derivs_in_solve"] += 1


HOOKS = {
    "mc._step_normals": _hook_noise,
    "mc.simulate_paths": _hook_simulate,
    "mc.tilted_estimate_prob": _hook_tilted,
    "duality.DualCurve.deriv": _hook_deriv,
}


@dataclass
class _Stat:
    count: int = 0
    self_s: float = 0.0


class Tracer:
    """Collects spans and aggregates from wrapped growthtail functions."""

    def __init__(self, span_cap: int = 20000):
        self.span_cap = span_cap
        self.spans: list = []
        self.dropped = 0
        self.stats: dict[str, _Stat] = {}
        self.bucket_self_s: dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        self.group_incl: dict[str, float] = {}
        self.open_groups: dict[str, int] = {}
        self.counters: dict[str, float] = {
            "mc.noise_bytes": 0,
            "mc.path_steps": 0,
            "duality.derivs_in_solve": 0,
        }
        self.ess_frac_min = math.inf
        self.invocation = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patches: list = []

    # -- span bookkeeping ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, bucket: str, group: Optional[str]) -> Callable:
        tracer = self
        hook = HOOKS.get(name)
        stat = self.stats.setdefault(name, _Stat())
        if group is not None:
            self.group_incl.setdefault(group, 0.0)
            self.open_groups.setdefault(group, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            if group is not None:
                tracer.open_groups[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                stat.count += 1
                stat.self_s += dur - frame[1]
                tracer.bucket_self_s[bucket] += dur - frame[1]
                if group is not None:
                    tracer.open_groups[group] -= 1
                    if tracer.open_groups[group] == 0:
                        tracer.group_incl[group] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (frame[0], parent[0] if parent else 0, name, t0, t1, tracer.invocation)
                    )
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in all growthtail namespaces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module("growthtail")] + [
            importlib.import_module(f"growthtail.{m}")
            for m in ("cli", "duality", "mc", "models", "riccati")
        ]
        for module_name, attr, bucket, group in WRAPPED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"growthtail.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, meth, original, self._wrap(original, name, bucket, group))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, bucket, group)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def count(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.count if stat else 0

    def layer_metrics(self, n_passes: int, requested_path_steps: float,
                      requested_tilt_points: float, traced_wall_s: float) -> dict:
        """Per-layer metrics, per traced pass; ratios are taken on totals.

        A layer that did no work on the workload reads 0 for every metric,
        ratios and extremes included.
        """
        per = 1.0 / n_passes
        c = self.count
        path_steps = self.counters["mc.path_steps"]
        solves = c("duality.solve_tilt")
        newton = c("riccati._newton")
        bucket = self.bucket_self_s
        out = {
            "cli.self_s": (bucket["cli"] * per, "s"),
            "mc.noise_s": (bucket["mc.noise"] * per, "s"),
            "mc.noise_calls": (c("mc._step_normals") * per, "count"),
            "mc.noise_bytes": (self.counters["mc.noise_bytes"] * per, "B"),
            "mc.step_s": (bucket["mc.step"] * per, "s"),
            "mc.reduce_s": (bucket["mc.reduce"] * per, "s"),
            "mc.sim_calls": (
                (c("mc.simulate_paths") + c("mc.tilted_estimate_prob")) * per, "count"),
            "mc.path_steps": (path_steps * per, "count"),
            "mc.work_ratio": (requested_path_steps / path_steps if path_steps else 0.0, "ratio"),
            "mc.ess_frac_min": (self.ess_frac_min if math.isfinite(self.ess_frac_min) else 0.0,
                                "fraction"),
            "duality.solve_s": (self.group_incl.get("duality.solve", 0.0) * per, "s"),
            "duality.self_s": (bucket["duality"] * per, "s"),
            "duality.solves": (solves * per, "count"),
            "duality.deriv_calls": (c("duality.DualCurve.deriv") * per, "count"),
            "duality.derivs_per_solve": (
                self.counters["duality.derivs_in_solve"] / solves if solves else 0.0, "count"),
            "models.gamma_evals": (c("models.lg1d_gamma") * per, "count"),
            "models.gamma_s": (self.group_incl.get("models.gamma", 0.0) * per, "s"),
            "models.curve_build_s": (self.group_incl.get("models.curve", 0.0) * per, "s"),
            "models.policy_s": (self.group_incl.get("models.policy", 0.0) * per, "s"),
            "models.self_s": (bucket["models"] * per, "s"),
            "riccati.solve_s": (bucket["riccati"] * per, "s"),
            "riccati.solves": (c("riccati.solve_care") * per, "count"),
            "riccati.newton_calls": (newton * per, "count"),
            "riccati.newton_per_point": (
                newton / requested_tilt_points if requested_tilt_points else 0.0, "count"),
            "trace.coverage": (
                sum(bucket.values()) / traced_wall_s if traced_wall_s else 0.0, "ratio"),
        }
        absent = {m for name in self.missing for m in PRIVATE.get(name, [])}
        return {k: v for k, v in out.items() if k not in absent}

    def dump(self, path: str, meta: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        record = {
            "meta": meta,
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "invocation"],
            "names": names,
            "spans": [[s[0], s[1], index[s[2]], round(s[3], 9), round(s[4], 9), s[5]]
                      for s in self.spans],
            "dropped_spans": self.dropped,
            "aggregates": {k: {"count": v.count, "self_s": v.self_s}
                           for k, v in sorted(self.stats.items())},
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
