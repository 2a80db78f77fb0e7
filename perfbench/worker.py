"""One workload in one process: set up, measure, check, print one JSON line.

Started by run.py, which caps the BLAS threads and puts the checkout's
`src` first on the module path before this process imports numpy. With
`--setup-only` it times the import of azqsl plus building the workload's
inputs and prints that time alone. Times are in reference seconds, which
take out the shared host's changes of speed (hostspeed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("fig2_depol", "fig4_ad", "points_mixed")

PER_LAYER_SPANS = {
    "entropy.renyi_az": ("calls", "self_s", "per_row"),
    "linalg.mat_pow": ("calls", "self_s"),
    "states.DensityMatrix": ("calls", "self_s", "per_row"),
    "linalg.eigh": ("calls", "self_s"),
    "dynamics.evolve_kraus": ("calls", "s"),
    "dynamics.evolve_unitary": ("calls", "s"),
    "dynamics.kraus_speed_term_stacks": ("calls", "s"),
    "qsl.integrate_bounds": ("calls", "self_s"),
    "qsl.nonunitary_qsl_from_terms": ("calls", "self_s"),
    "qsl.qsl_general": ("calls", "self_s"),
    "qsl.qsl_nonunitary": ("calls", "self_s"),
    "qsl.qsl_unitary": ("calls", "self_s"),
    "cli.sweep_rows": ("self_s",),
    "cli.rows_to_csv": ("s",),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "per_row": "count"}
PER_LAYER_COUNTS = {
    "dynamics.samples": "count",
    "dynamics.evolve.per_eval": "count",
    "cli.csv_bytes": "bytes",
    "fail_frac": "fraction",
    "fail.qsl.SupportViolationError": "count",
    "fail.other": "count",
    "trace_overhead_frac": "fraction",
}
END_TO_END_UNITS = {
    "rows_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{span}.{stat}", STAT_UNITS[stat])
             for span, stats in PER_LAYER_SPANS.items() for stat in stats]
    return names + list(PER_LAYER_COUNTS.items())


# --- set-up --------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import azqsl from the checkout and build the workload's inputs."""
    import azqsl
    import azqsl.errors
    import azqsl.oracles
    import workloads

    src = (HERE.parent / "src").resolve()
    if Path(azqsl.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported azqsl from {azqsl.__file__}, not from {src}")
    if workload in workloads.SWEEPS:
        return azqsl, workloads.SWEEPS[workload](azqsl, OUT_DIR / workload)
    if workload == "points_mixed":
        return azqsl, workloads.request_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --- sweeps --------------------------------------------------------------------

class SweepTally:
    """Checks every pass; a pass identical to the first is not re-parsed."""

    def __init__(self, work):
        self.work = work
        self.first_text = None
        self.first = None
        self.units = self.wrong = self.groups_attempted = 0
        self.failures: Counter = Counter()
        self.reasons: list[str] = []

    def add(self, text: str) -> None:
        if text != self.first_text:
            report = self.work.check(text)
            if self.first is None:
                self.first_text, self.first = text, report
        else:
            report = self.first
        self.units += report["rows"]
        self.wrong += len(report["wrong"])
        self.groups_attempted += report["groups_attempted"]
        self.failures.update(report["failures"])
        for idx, why in list(report["wrong"].items())[:5]:
            self.reasons.append(f"row {idx}: {'; '.join(why)}")


def measure_sweep(work, seconds: float) -> tuple[list[tuple[float, float]], SweepTally]:
    """Figure passes until `seconds` have gone by; returns the
    (start, end) clock readings of each pass."""
    tally = SweepTally(work)
    spans = []
    start = time.perf_counter()
    while not spans or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        work.run_pass()
        spans.append((t0, time.perf_counter()))
        tally.add(work.read_output())
    return spans, tally


# --- point evaluations -----------------------------------------------------------

class PointTally:
    def __init__(self, az):
        self.az = az
        self.units = self.wrong = self.groups_attempted = 0
        self.failures: Counter = Counter()
        self.reasons: list[str] = []

    def add(self, req: dict, result: dict) -> None:
        import workloads

        self.units += 1
        self.groups_attempted += len(workloads.groups_of(req))
        self.failures.update(result["failures"].items())
        bad = workloads.check_evaluation(self.az, req, result)
        if bad:
            self.wrong += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"request {req}: {'; '.join(bad)}")


def run_points(az, requests, tally, deadline=None, tracer=None):
    """Closed loop over `requests` until exhausted or, at the end of a
    cycle of the request mix, past `deadline` seconds.
    Returns ((start, end) clock readings per request, requests done, results)."""
    import workloads

    spans, done, results = [], [], []
    start = time.perf_counter()
    for k, req in enumerate(requests):
        if (deadline is not None and k and k % workloads.MIX_CYCLE == 0
                and time.perf_counter() - start >= deadline):
            break
        if tracer is not None:
            tracer.current_request = k
        with tracer.span("bench.request") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = workloads.evaluate(az, req)
            spans.append((t0, time.perf_counter()))
        done.append(req)
        results.append(result)
        tally.add(req, result)
    return spans, done, results


def check_point_reference(az) -> list[str]:
    import workloads

    results = [workloads.evaluate(az, req) for req in workloads.reference_requests()]
    return workloads.compare_reference(results)


# --- metrics --------------------------------------------------------------------

def fail_counts(failures: Counter, groups_attempted: int) -> dict:
    total = sum(failures.values())
    svc = failures.get(("qsl", "SupportViolationError"), 0)
    return {
        "fail_frac": total / groups_attempted if groups_attempted else 0.0,
        "fail.qsl.SupportViolationError": svc,
        "fail.other": total - svc,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, az, work, seconds) -> tuple[dict, object, dict]:
    """Throughput is taken per window, a stretch of requests that always
    holds the same work (one figure pass, or one cycle of the request mix),
    and reported as the median window's rate; latencies are per request.
    Every time is in reference seconds (hostspeed.py)."""
    import stats
    import workloads
    from hostspeed import HostSpeed

    host = HostSpeed()
    with host:
        if workload == "points_mixed":
            tally = PointTally(az)
            spans, _, _ = run_points(az, work, tally, deadline=seconds)
            window = workloads.MIX_CYCLE
        else:
            spans, tally = measure_sweep(work, seconds)
            window = 1
    latencies = [host.ref_s(a, b) for a, b in spans]
    work_wall = sum(b - a - host.ticks_s(a, b) for a, b in spans)
    units = tally.units
    windows = [sum(latencies[i:i + window])
               for i in range(0, len(latencies) - window + 1, window)]
    tail_value, tail_pct, n = stats.tail(latencies)
    metrics = {
        "rows_per_s": window * units / len(latencies) / stats.median(windows),
        "request_p50_ms": 1e3 * stats.median(latencies),
        "request_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"tail_percentile": tail_pct, "requests": n, "units": units,
            "work_wall_s": work_wall, "ref_per_wall_s": sum(latencies) / work_wall,
            "host_samples": len(host.kernel_s)}
    return metrics, tally, info


def traced(workload, az, work, seconds) -> tuple[dict, object, dict]:
    """One untraced and one traced run of the same work; per-layer metrics
    come from the traced one, the wall-time ratio gives the overhead."""
    from tracing import Tracer

    tracer = Tracer()
    hooks = {
        "dynamics.evolve_kraus": _count_samples,
        "dynamics.evolve_unitary": _count_samples,
        "cli.rows_to_csv": lambda tr, text: tr.count("cli.csv_bytes", len(text)),
    }
    if workload == "points_mixed":
        t0 = time.perf_counter()
        _, done, plain = run_points(az, work, PointTally(az), deadline=seconds / 2)
        plain_wall = time.perf_counter() - t0
        tally = PointTally(az)
        tracer.install(az, hooks)
        t0 = time.perf_counter()
        try:
            _, _, results = run_points(az, done, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - t0
        rows = trajectories = tally.units
        if [_fingerprint(r) for r in results] != [_fingerprint(r) for r in plain]:
            tally.wrong += 1
            tally.reasons.append("traced results differ from untraced ones")
    else:
        t0 = time.perf_counter()
        work.run_pass()
        plain_wall = time.perf_counter() - t0
        plain_text = work.read_output()
        tracer.install(az, hooks)
        t0 = time.perf_counter()
        try:
            tracer.current_request = 0
            with tracer.span("bench.pass"):
                work.run_pass()
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - t0
        text = work.read_output()
        tally = SweepTally(work)
        tally.add(text)
        if text != plain_text:
            tally.wrong += 1
            tally.reasons.append("traced CSV differs from untraced CSV")
        rows = tally.units
        trajectories = work.trajectories_per_pass()
    summary = tracer.summary()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"trace_{workload}.npz")

    metrics = {}
    for span, stat_names in PER_LAYER_SPANS.items():
        s = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stat_names:
            metrics[f"{span}.{stat}"] = s["calls"] / rows if stat == "per_row" else s[stat]
    evolves = sum(summary.get(f"dynamics.{f}", {"calls": 0})["calls"]
                  for f in ("evolve_kraus", "evolve_unitary"))
    metrics["dynamics.samples"] = tracer.counts.get("dynamics.samples", 0)
    metrics["dynamics.evolve.per_eval"] = evolves / trajectories
    metrics["cli.csv_bytes"] = tracer.counts.get("cli.csv_bytes", 0)
    metrics.update(fail_counts(tally.failures, tally.groups_attempted))
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    info = {"units": rows, "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "spans": len(tracer.start)}
    return metrics, tally, info


def _count_samples(tracer, traj) -> None:
    tracer.count("dynamics.samples", len(traj.times))


def _fingerprint(result: dict) -> str:
    return json.dumps(result, sort_keys=True, default=repr)


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        # On the tuning machine, set-ups free to run on either CPU took about
        # 30 % longer, in CPU time too, than set-ups kept on one CPU, in
        # phases of minutes.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    az, work = setup(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - t0
    if args.setup_only:
        from hostspeed import TOUCH_REF_S, touch_s
        setup_s = setup_wall_s * TOUCH_REF_S / touch_s()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    reasons_ref: list[str] = []
    if args.workload == "points_mixed":
        reasons_ref = check_point_reference(az)
    else:
        work.warmup()
    measure = traced if args.trace else end_to_end
    metrics, tally, info = measure(args.workload, az, work, args.seconds)
    wrong = tally.wrong + (1 if reasons_ref else 0)
    attempted = tally.units
    fails = fail_counts(tally.failures, tally.groups_attempted)
    result = {
        "setup_wall_s": setup_wall_s,
        "metrics": metrics,
        "attempted": attempted,
        "wrong": wrong,
        "wrong_frac": wrong / attempted,
        "fail_frac": fails["fail_frac"],
        "failures": {f"fail.{g}.{c}": n for (g, c), n in sorted(tally.failures.items())},
        "reasons": reasons_ref[:5] + tally.reasons[:5],
        "info": info,
        "env": environment(),
    }
    if getattr(work, "depolarizing", False) and tally.first is not None:
        result["info"]["oracle_worst_rel"] = tally.first["oracle_worst_rel"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
