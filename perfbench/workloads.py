"""The benchmark's workloads.

`fig2_depol` and `fig4_ad` drive figure sweeps through the command-line
entry point, the way a user runs `azqsl figure` / `azqsl sweep`, and read
the written CSV back for the output check. `points_mixed` is a closed loop
of independent single evaluations through the library's public functions,
one caller, each request drawn from a seeded stream.

A workload's inputs depend only on its seed: the sweeps run fixed presets
(the seed changes nothing), the point stream is drawn from the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
from pathlib import Path

import numpy as np

from checks import (
    ATOL,
    INEQ_RTOL,
    check_sweep,
    close,
    load_reference,
    rel_dev,
)

N_STEPS = 1001


# --- figure sweeps -----------------------------------------------------------

class SweepWorkload:
    """One figure pass = every CLI invocation of the figure, each writing
    its CSV; a request is the whole pass."""

    depolarizing = False

    def __init__(self, name: str, azqsl, workdir: Path):
        self.name = name
        self.azqsl = azqsl
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.invocations: list[tuple[list[str], Path]] = []

    def run_pass(self) -> None:
        sink = io.StringIO()
        for argv, _ in self.invocations:
            with contextlib.redirect_stdout(sink):
                code = self.azqsl.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"azqsl {' '.join(argv)} exited with {code}")

    def read_output(self) -> str:
        """The pass's CSV files joined under one header."""
        texts = [out.read_text() for _, out in self.invocations]
        header = texts[0].split("\n", 1)[0]
        body = []
        for text in texts:
            first, rest = text.split("\n", 1)
            if first != header:
                raise ValueError(f"CSV headers differ: {first!r} vs {header!r}")
            body.append(rest)
        return header + "\n" + "".join(body)

    def check(self, text: str) -> dict:
        return check_sweep(text, self.name, self.azqsl.oracles, self.depolarizing)

    def warmup(self) -> None:
        """A one-row sweep, so lazy imports and first-call costs are paid
        before timing."""
        out = self.workdir / "warmup.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            self.azqsl.cli.main([
                "sweep", "--set", "alpha_grid=0.5", "--set", "time_grid=1",
                "--out", str(out),
            ])

    def trajectories_per_pass(self) -> int:
        """Distinct (panel, t > 0) pairs: the trajectories a pass needs."""
        return sum(self._nonzero_times)


class Fig2Depol(SweepWorkload):
    """The `fig2` preset as `azqsl figure fig2 --out <file>` runs it."""

    depolarizing = True

    def __init__(self, azqsl, workdir: Path):
        super().__init__("fig2_depol", azqsl, workdir)
        out = workdir / "fig2.csv"
        self.invocations = [(["figure", "fig2", "--out", str(out)], out)]
        panels = azqsl.cli.figure_panels("fig2")
        self._nonzero_times = [_nonzero_times(cfg.time_grid) for cfg in panels]


# fig4 panels on a coarser grid than the preset's 100 alphas x 100 times.
# The horizon and the 1001-sample trajectories stay, and 40 of the 99
# nonzero time columns: a panel keeps one trajectory per time column in
# memory, so trajectory memory stays a sizeable share of peak_rss_mb, and
# the oscillating s = 10 panel keeps its failing rows.
FIG4_ALPHA_GRID = "0.01,0.99,25"
FIG4_TIME_GRID = "0,20,41"


class Fig4AD(SweepWorkload):
    """The four two-qubit amplitude-damping panels of `fig4`, each run as
    `azqsl sweep --config <panel.cfg> --out <panel.csv>`."""

    def __init__(self, azqsl, workdir: Path):
        super().__init__("fig4_ad", azqsl, workdir)
        self._nonzero_times = []
        for cfg in azqsl.cli.figure_panels("fig4"):
            tag = f"s{cfg.s:g}_p{cfg.p:g}"
            cfg_path = workdir / f"fig4_{tag}.cfg"
            out = workdir / f"fig4_{tag}.csv"
            cfg_path.write_text(
                "model = amplitude_damping\n"
                f"lambda = {cfg.lam!r}\ns = {cfg.s!r}\np = {cfg.p!r}\n"
                f"alpha_grid = {FIG4_ALPHA_GRID}\nz_grid = 1\n"
                f"time_grid = {FIG4_TIME_GRID}\nn_steps = {N_STEPS}\n"
                "outputs = entropy,bounds,qsl\n"
            )
            self.invocations.append((["sweep", "--config", str(cfg_path), "--out", str(out)], out))
            self._nonzero_times.append(_nonzero_times(azqsl.cli.parse_grid(FIG4_TIME_GRID)))


def _nonzero_times(grid) -> int:
    lo, hi, count = grid
    return int((np.linspace(lo, hi, count) > 0).sum())


# --- independent point evaluations ---------------------------------------------

MODELS = ("unitary_qubit", "depolarizing", "amplitude_damping")
REFERENCE_SEED = 271828
REFERENCE_REQUESTS = 24
# One cycle of the request mix: every model, inside and outside the region.
MIX_CYCLE = 2 * len(MODELS)


def draw_request(rng: random.Random, k: int) -> dict:
    """Request k of a stream. Models rotate and the (alpha, z) pair
    alternates between inside and outside the data-processing region, so
    every stream has the same mix; the parameters are random."""
    model = MODELS[k % len(MODELS)]
    alpha = rng.uniform(0.05, 0.95)
    edge = max(alpha, 1.0 - alpha)
    inside = k % MIX_CYCLE < len(MODELS)
    z = rng.uniform(edge, 1.0) if inside else rng.uniform(0.3, edge)
    req = {"model": model, "alpha": alpha, "z": z, "dpi_valid": inside}
    if model == "amplitude_damping":
        req.update(s=rng.uniform(0.2, 10.0), p=rng.uniform(0.05, 0.9),
                   tau=rng.uniform(0.2, 20.0))
        return req
    req.update(r=rng.uniform(0.1, 0.85), theta=rng.uniform(0.2, math.pi - 0.2),
               phi=rng.uniform(0.0, 2.0 * math.pi))
    if model == "unitary_qubit":
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in direction))
        length = rng.uniform(0.5, 2.0)
        req.update(n=[length * c / norm for c in direction], tau=rng.uniform(0.2, 3.0))
    else:
        req.update(gamma=rng.uniform(0.2, 2.0))
        req.update(tau=rng.uniform(0.2, 10.0) / req["gamma"])
    return req


def request_stream(seed: int):
    rng = random.Random(seed)
    k = 0
    while True:
        yield draw_request(rng, k)
        k += 1


def groups_of(req: dict) -> tuple[str, ...]:
    base = ("entropy", "bounds", "qsl")
    return base + ("qsl_unitary",) if req["model"] == "unitary_qubit" else base


def evaluate(az, req: dict) -> dict:
    """One single evaluation as a user of the library writes it.

    Returns {"values": {group: {...}}, "failures": {group: error class}}.
    An azqsl error ends only its own group; the trajectory failing ends
    every group."""
    p = az.EntropyParams(req["alpha"], req["z"])
    tau = req["tau"]
    values: dict = {}
    failures: dict = {}
    try:
        if req["model"] == "amplitude_damping":
            fam = az.amplitude_damping_family(az.AmplitudeDampingParams(1.0, req["s"]))
            rho0 = az.ghz_mixed(az.GHZMixedParams(req["p"]))
        else:
            rho0 = az.bloch_state(az.BlochVector(req["r"], req["theta"], req["phi"]))
        if req["model"] == "unitary_qubit":
            hmod = az.HamiltonianModel.qubit(req["n"])
            traj = az.evolve_unitary(hmod, rho0, tau, N_STEPS)
        else:
            if req["model"] == "depolarizing":
                fam = az.depolarizing_family(az.DepolarizingParams(req["gamma"]))
            traj = az.evolve_kraus(fam, rho0, tau, N_STEPS)
        rho_tau = traj.final_state
    except az.errors.AzqslError as exc:
        return {"values": values,
                "failures": {g: type(exc).__name__ for g in groups_of(req)}}

    def attempt(group, fn):
        try:
            values[group] = fn()
        except az.errors.AzqslError as exc:
            failures[group] = type(exc).__name__

    attempt("entropy", lambda: {"d_fwd": az.renyi_az(rho_tau, rho0, p),
                                "d_bwd": az.renyi_az(rho0, rho_tau, p)})
    attempt("bounds", lambda: _report(az.integrate_bounds(traj, p)))
    if req["model"] == "unitary_qubit":
        attempt("qsl", lambda: _report(az.qsl_general(traj, p)))
        attempt("qsl_unitary", lambda: _report(az.qsl_unitary(hmod, rho0, rho_tau, p, tau)))
    else:
        attempt("qsl", lambda: _report(az.qsl_nonunitary(fam, rho0, tau, p, n_steps=N_STEPS)))
    return {"values": values, "failures": failures}


def _report(rep) -> dict:
    out = dataclasses.asdict(rep)
    out["warnings"] = ";".join(rep.warnings)
    return out


def check_evaluation(az, req: dict, result: dict) -> list[str]:
    """Reasons an evaluation's outputs are wrong; empty when correct."""
    bad: list[str] = []
    vals, fails = result["values"], result["failures"]
    ent = vals.get("entropy")
    if ent is not None:
        for key in ("d_fwd", "d_bwd"):
            if ent[key] < -ATOL:
                bad.append(f"{key} = {ent[key]!r} is negative")
        oracle = _entropy_oracle(az, req)
        if oracle is not None and not close(ent["d_fwd"], oracle):
            bad.append(f"d_fwd deviates from the oracle by {rel_dev(ent['d_fwd'], oracle):.3e}")
    bnd = vals.get("bounds")
    if bnd is not None:
        if ent is not None:
            for key in ("d_fwd", "d_bwd"):
                if not close(bnd[key], ent[key]):
                    bad.append(f"integrate_bounds {key} {bnd[key]!r} != renyi_az {ent[key]!r}")
        if math.isfinite(bnd["d_sym"]) and not _le(bnd["d_sym"], bnd["rhs_sym"]):
            bad.append(f"D_sym {bnd['d_sym']!r} > rhs_sym {bnd['rhs_sym']!r}")
    for group in ("qsl", "qsl_unitary"):
        rep = vals.get(group)
        if rep is not None and not (0.0 <= rep["tau_qsl"] and _le(rep["tau_qsl"], req["tau"])):
            bad.append(f"{group} tau_qsl {rep['tau_qsl']!r} outside [0, tau = {req['tau']!r}]")
    if "qsl" in vals and "qsl_unitary" in vals:
        if not _le(vals["qsl_unitary"]["tau_qsl"], vals["qsl"]["tau_qsl"]):
            bad.append("closed-form unitary tau_qsl exceeds the trajectory one")
    for group, cls in fails.items():
        if cls == "SupportViolationError":
            if ent is None or all(math.isfinite(ent[k]) for k in ("d_fwd", "d_bwd")):
                bad.append(f"{group} raised SupportViolationError with finite entropies")
        else:
            bad.append(f"{group} raised {cls}")
    return bad


def _le(a: float, b: float) -> bool:
    return a <= b + INEQ_RTOL * abs(b) + ATOL


def _entropy_oracle(az, req: dict) -> float | None:
    """Closed-form forward entropy for the qubit models."""
    oracles = az.oracles
    if req["model"] == "depolarizing":
        case = oracles.DepolarizingCase(req["r"], req["gamma"] * req["tau"])
        return oracles.depolarizing_entropy(case, req["alpha"])
    if req["model"] == "unitary_qubit":
        case = oracles.QubitUnitaryCase(req["r"], req["theta"], req["phi"],
                                        tuple(req["n"]), req["tau"])
        g = oracles.unitary_purity(case, az.EntropyParams(req["alpha"], req["z"]))
        return math.log(g) / (req["alpha"] - 1.0)
    return None


def compare_reference(results: list[dict]) -> list[str]:
    """Mismatches between evaluations of the reference stream and the
    stored outputs: numbers at RTOL/ATOL, warnings and failures exactly."""
    stored = load_reference("points_mixed")["results"]
    bad = []
    if len(stored) != len(results):
        return [f"{len(results)} reference results, {len(stored)} stored"]
    for k, (got, want) in enumerate(zip(results, stored)):
        if got["failures"] != want["failures"]:
            bad.append(f"request {k}: failures {got['failures']} != {want['failures']}")
        for group, wvals in want["values"].items():
            gvals = got["values"].get(group)
            if gvals is None:
                bad.append(f"request {k}: {group} missing")
                continue
            for key, w in wvals.items():
                g = gvals.get(key)
                same = g == w if key == "warnings" else _same_number(g, w)
                if not same:
                    bad.append(f"request {k}: {group}.{key} {g!r} != {w!r}")
    return bad


def _same_number(got, want) -> bool:
    if got is None:
        return False
    if isinstance(want, str):  # JSON has no inf/nan: stored as text
        return repr(float(got)) == want
    return close(float(got), float(want))


def jsonable(result: dict) -> dict:
    """Result with non-finite floats spelled as text, for JSON storage."""
    def conv(v):
        if isinstance(v, float) and not math.isfinite(v):
            return repr(v)
        return v
    return {
        "values": {g: {k: conv(v) for k, v in vals.items()}
                   for g, vals in result["values"].items()},
        "failures": dict(result["failures"]),
    }


def reference_requests() -> list[dict]:
    stream = request_stream(REFERENCE_SEED)
    return [next(stream) for _ in range(REFERENCE_REQUESTS)]


SWEEPS = {"fig2_depol": Fig2Depol, "fig4_ad": Fig4AD}
