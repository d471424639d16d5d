"""growthtail benchmark: verify on two models, solver sweeps, traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload verify_bs --seed 1 --seconds 30 --trace 0

Workloads: verify_bs, verify_factor, solve_sweep (see bench/README.md).
One process runs the workload through ``growthtail.cli.main`` on inputs
generated from ``--seed``, checks every output, prints the metrics one per
line as ``name value unit``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every pass untraced and then traced
on the same inputs and reports the per-layer metrics.  Details (machine
facts, failure breakdown, output digest, spans) go to bench/out/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5  # at least this many set-up probes per run
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "ok_rate": "fraction",
    "peak_rss_mb": "MiB",
}


def import_program():
    """Import growthtail from this checkout's src/, never from elsewhere."""
    package = SRC / "growthtail"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no growthtail package under {SRC}")
    sys.path.insert(0, str(SRC))
    import growthtail

    if Path(growthtail.__file__).resolve().parent != package.resolve():
        raise ImportError(f"growthtail imported from {growthtail.__file__}, not {package}")
    return growthtail


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def machine_facts() -> dict:
    import numpy as np

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    entries = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for entry in (e for e in entries if e.startswith("index")):
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        label = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        caches[label] = _size_bytes(_read(f"{base}/{entry}/size"))
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_bytes_per_instance": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k in ("OMP_PROC_BIND", "OMP_PLACES")},
    }


def working_set(workload: str, size) -> dict:
    """Computed bytes of one path-state step: n_paths * (q + m) * 8."""
    if workload == "verify_bs":
        n, q, m = size.bs_paths, 1, 0
    elif workload == "verify_factor":
        n, q, m = size.factor_paths, 2, 1
    else:
        return {}
    return {"n_paths": n, "q": q, "m": m, "bytes": n * (q + m) * 8}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def probe_setup(argv_path: Path) -> float:
    """Set-up time of one fresh interpreter: import growthtail, then the warm-up."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(argv_path)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail_latency(latencies: list):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond, sample count); with fewer
    than eleven samples it is the maximum, with none beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n >= 11 else n - 1
    return xs[i], (i + 1) / n, n - 1 - i, n


def run(workload: str, seed: int, seconds: float, trace: bool, size=None,
        setup_repeats: int = SETUP_REPEATS, corrupt=None) -> dict:
    """Run one workload; returns the result line and the detailed report.

    ``corrupt(cmd, outcome)`` may alter an outcome before it is checked; the
    self-test uses it to show that a wrong output is counted.
    """
    import workloads as wl
    from tracer import Tracer

    size = size or wl.FULL
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    runner = wl.Runner()
    try:
        warm = wl.warmup_command(workload, seed, str(workdir))
        argv_path = workdir / "warmup-argv.json"
        argv_path.write_text(json.dumps(warm.argv), encoding="utf-8")
        # Set-up probes run before the first pass and after every pass, so
        # their median spans the run rather than one moment of the host.
        setup_times = [] if trace else [probe_setup(argv_path)]
        wrong = []
        warm_verdict = wl.check(warm, runner.invoke(warm.argv))
        wrong += [f"warm-up: {w}" for w in warm_verdict.wrong]

        tracer = Tracer() if trace else None
        latencies, pass_walls, traced_walls = [], [], []
        work = collections.Counter()
        attempted, defects, failures = 0, 0, collections.Counter()
        verify_failed_checks = riccati_failed = 0
        residual_max = 0.0
        digest_numbers = None
        busy = longest = 0.0
        n_pass = 0
        while True:
            t_iter = time.perf_counter()
            cmds = wl.build_pass(workload, seed, n_pass, str(workdir), size)
            outcomes = [runner.invoke(c.argv) for c in cmds]
            if trace:
                tracer.install()
                try:
                    traced = []
                    for k, c in enumerate(cmds):
                        tracer.invocation = n_pass * 1000 + k
                        traced.append(runner.invoke(c.argv))
                finally:
                    tracer.uninstall()
                traced_walls.append(sum(o.latency for o in traced))
                for c, o, t in zip(cmds, outcomes, traced):
                    if (o.code, o.stdout) != (t.code, t.stdout):
                        wrong.append(f"{c.kind}: traced output differs from untraced output")
            pass_numbers = []
            for c, o in zip(cmds, outcomes):
                if corrupt is not None:
                    corrupt(c, o)
                v = wl.check(c, o)
                latencies.append(o.latency)
                work[c.kind] += c.work
                work[f"{c.kind}_s"] += o.latency
                attempted += c.ops
                failures.update(v.failed)
                defects += v.defects
                wrong += v.wrong
                verify_failed_checks += v.verify_failed_checks
                riccati_failed += v.riccati_failed_points
                residual_max = max(residual_max, v.residual_max)
                pass_numbers.append([c.kind, [repr(x) for x in v.numbers]])
            if digest_numbers is None:
                digest_numbers = pass_numbers
            pass_walls.append(sum(o.latency for o in outcomes))
            n_pass += 1
            iteration = time.perf_counter() - t_iter
            busy += iteration
            longest = max(longest, iteration)
            if not trace:
                setup_times.append(probe_setup(argv_path))
            if busy + longest > seconds:
                break
        while not trace and len(setup_times) < setup_repeats:
            setup_times.append(probe_setup(argv_path))
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(failures.values())
    total_s = sum(latencies)
    total_work = sum(work[k] for k in ("verify", "frontier", "riccati"))
    tail, tail_pct, beyond, n_lat = tail_latency(latencies)
    digest = hashlib.sha256(json.dumps(digest_numbers).encode()).hexdigest()[:16]

    if trace:
        metrics = tracer.layer_metrics(n_pass, work["verify"], work["riccati"], sum(traced_walls))
        metrics.update({
            "cli.verify_failed_checks": (verify_failed_checks / n_pass, "count"),
            "riccati.failed_points": (riccati_failed / n_pass, "count"),
            "riccati.residual_max": (residual_max, "1"),
            "trace.overhead_s": ((sum(traced_walls) - sum(pass_walls)) / n_pass, "s"),
        })
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_walls),
            "work_per_s": total_work / total_s,
            "cmd_p50_s": statistics.median(latencies),
            "cmd_tail_s": tail,
            "ok_rate": 1.0 - (failed + defects) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    per_kind = {}
    if work["verify"]:
        per_kind["path_steps_per_s"] = (work["verify"] / work["verify_s"], "1/s")
    if work["frontier"]:
        per_kind["targets_per_s"] = (work["frontier"] / work["frontier_s"], "1/s")
    if work["riccati"]:
        per_kind["riccati_points_per_s"] = (work["riccati"] / work["riccati_s"], "1/s")
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": n_pass,
        "invocations": n_lat,
        "setup_s_samples": setup_times,
        "pass_wall_s": pass_walls,
        "traced_pass_wall_s": traced_walls,
        "workload_rates": {k: v for k, (v, _) in per_kind.items()},
        "error_rate": (failed + defects) / attempted,
        "bracket_failure_rate": defects / attempted,
        "failures_by_reason": dict(failures.most_common()),
        "wrong_outputs": wrong[:50],
        "cmd_tail": {"value_s": tail, "percentile": tail_pct, "beyond": beyond,
                     "samples": n_lat},
        "output_digest": digest,
        "machine": machine_facts(),
        "working_set_per_step": working_set(workload, size),
        "missing_wrapped_functions": tracer.missing if trace else [],
    }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"report-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    if trace:
        tracer.dump(str(OUT / f"spans-{workload}-seed{seed}.json"),
                    {"workload": workload, "seed": seed, "passes": n_pass})
    return {"result": result, "report": report, "per_kind": per_kind}


def print_human(out: dict) -> None:
    result, report = out["result"], out["report"]
    machine = report["machine"]
    print(f"# workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"passes={report['passes']} invocations={report['invocations']}")
    print(f"# machine nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"caches={machine['cache_bytes_per_instance']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']!r} threads={machine['thread_env']}")
    ws = report["working_set_per_step"]
    if ws:
        l2 = machine["cache_bytes_per_instance"].get("L2", 0)
        ratio = f"{ws['bytes'] / l2:.2f}" if l2 else "n/a"
        print(f"# working_set_per_step={ws['bytes']} B (n_paths={ws['n_paths']}, q={ws['q']}, "
              f"m={ws['m']}) L2={l2} B ratio={ratio}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in out["per_kind"].items():
        print(f"{name} {value!r} {unit}")
    tail = report["cmd_tail"]
    print(f"# cmd_tail percentile={tail['percentile']:.4f} beyond={tail['beyond']} "
          f"samples={tail['samples']}")
    print(f"error_rate {report['error_rate']!r} fraction")
    print(f"# bracket_failure_rate={report['bracket_failure_rate']!r} "
          f"failures={report['failures_by_reason']}")
    print(f"# output_digest={report['output_digest']}")
    for line in report["wrong_outputs"][:10]:
        print(f"# WRONG {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_bs", "verify_factor", "solve_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
