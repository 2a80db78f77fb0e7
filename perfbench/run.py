"""azqsl benchmark launcher.

    python3 perfbench/run.py --workload fig2_depol --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout. Each workload runs in a process of its own
(worker.py) with the BLAS thread count capped at the number of usable CPUs;
set-up time is the median over several fresh processes, half of them
started before the measuring one and half after it. Every time is in
reference seconds (hostspeed.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics from a traced run
with --trace 1. The lines before it give the environment,
every metric with its unit, failure counts per output group and the result
of the output check. Exits non-zero without a result when the checkout has
no azqsl sources or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
# Time a workload may take beyond --seconds: the set-up probes, the warmup,
# the output checks and the pass that overshoots the deadline.
RUN_MARGIN_S = 140
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from worker import END_TO_END_UNITS, WORKLOADS, per_layer_names  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = cap
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py and parse the JSON on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes before and after the measuring process, so the set-up
    median samples the machine over the whole run, not one moment of it."""
    env = child_env()
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    common = ["--workload", workload, "--seed", str(seed)]

    def remaining(cap: float = math.inf) -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"{workload} ran past {seconds + RUN_MARGIN_S:g} s")
        return min(left, cap)

    def probes(count: int) -> list[float]:
        return [run_worker(common + ["--setup-only"], env, remaining(PROBE_TIMEOUT_S))["setup_s"]
                for _ in range(count)]

    setups = probes(SETUP_PROBES // 2)
    result = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                        env, remaining())
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    result["setup_samples"] = setups
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def units_for(trace: int) -> dict:
    if trace:
        return dict(per_layer_names())
    return {"setup_s": "s", **END_TO_END_UNITS}


def report(workload: str, result: dict, trace: int) -> dict:
    """Print the human-readable lines for one workload; return the metrics
    in the result format."""
    units = units_for(trace)
    info = result["info"]
    print(f"== {workload}  env {json.dumps(result['env'], sort_keys=True)}")
    metrics = {}
    for name, unit in units.items():
        value = float(result["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "request_tail_ms":
            note = f"  (p{info['tail_percentile']:.4g} of {info['requests']} requests)"
        print(f"   {name:40s} {value:14.6g} {unit}{note}")
    if "fail_frac" not in units:
        print(f"   {'fail_frac':40s} {result['fail_frac']:14.6g} fraction"
              " (groups ending in an azqsl error)")
    print(f"   {'wrong_frac':40s} {result['wrong_frac']:14.6g} fraction (outputs failing the check)")
    for name, count in result["failures"].items():
        if name not in units:
            print(f"   {name:40s} {count:14d} count")
    print(f"   info {json.dumps(info, sort_keys=True)}")
    for reason in result["reasons"]:
        print(f"   WRONG {reason}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "azqsl" / "__init__.py").is_file():
        print(f"no azqsl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            shown = report(name, result, args.trace)
            correct = correct and result["wrong"] == 0
            attempted += result["attempted"]
            failed += result["wrong"]
            if len(names) == 1:
                metrics = shown
            else:
                metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
