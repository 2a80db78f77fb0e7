"""The order in which one cell's errors win.

`integrate_bounds` and `qsl_general` evaluate a whole column of cells with
array arithmetic, but a cell must fail with the error that the sequential
evaluation meets first: probe state, h, the I1 gate, the I2 gate, final
state, entropies, then (speed limits only) the ratios fwd, bwd, sym, each
route failing on a diverging entropy before a vanishing rate integral.
`sequential_errors` below evaluates one cell in that order, one scalar step
at a time, and the entry points must raise the first error it meets,
class and message. Every case but the clean one fails in at least two of
these places at once.
"""

import math

import numpy as np
import pytest

from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    AzqslError,
    QuadratureTooCoarseError,
    SupportViolationError,
    ZeroSpeedError,
)
from azqsl.states import BlochVector, bloch_state

ENTRIES = {"bounds": qsl.integrate_bounds, "qsl": qsl.qsl_general}


def describe(exc: AzqslError | None) -> str | None:
    return None if exc is None else f"{type(exc).__name__}: {exc}"


def gated_integral(times: np.ndarray, vals: np.ndarray, gated: bool) -> float:
    """Simpson integral, rejected when it differs from the half-grid one."""
    full = float(qsl._quad(times, vals))
    if gated:
        half = float(qsl._quad(times[::2], vals[::2]))
        if abs(full - half) > qsl.RICHARDSON_REL_TOL * max(abs(full), 1e-12):
            raise QuadratureTooCoarseError(
                f"half-grid check differs by {abs(full - half):.3e} vs {full:.3e}")
    return full


def sequential_errors(traj: dyn.Trajectory, p: EntropyParams, group: str) -> list:
    """Every error one cell of `group` meets, in the order of the sequential
    evaluation; a step that needs the result of a failed one is skipped."""
    found = []

    def step(fn):
        try:
            return fn()
        except AzqslError as exc:
            found.append(exc)
            return None

    a = p.alpha
    kraus = group == "qsl" and traj.rates is not None
    rates = traj.rates if kraus else traj.speeds
    kc = np.maximum(traj.kmins, qsl.KMIN_CLAMP)
    n = len(traj.times) - 1
    gated = float(traj.kmins.min()) >= qsl.LOOSE_KMIN_TOL and n % 4 == 0 and n >= 8

    rho0 = step(lambda: traj.initial_state)
    hs = rho0 and step(lambda: (qsl.h_func(rho0, p), qsl.h_func(rho0, p.swapped)))
    i1 = step(lambda: gated_integral(traj.times, kc ** (a - 1.0) * rates, gated))
    i2 = step(lambda: gated_integral(traj.times, kc ** (-a) * rates, gated))
    rho_t = step(lambda: traj.final_state)
    ds = rho0 and rho_t and step(lambda: (ent.renyi_az(rho_t, rho0, p),
                                          ent.renyi_az(rho0, rho_t, p)))
    if group == "bounds" or None in (hs, i1, i2, ds):
        return found

    (h_a, h_b), (d_fwd, d_bwd) = hs, ds
    scale = 2.0 if kraus else 1.0
    rhs_fwd = scale * a * h_a * i1 / abs(1.0 - a)
    rhs_bwd = scale * h_b * i2
    routes = ((d_fwd, rhs_fwd), (d_bwd, rhs_bwd), (d_fwd + d_bwd, rhs_fwd + rhs_bwd))
    for d, rhs in routes:
        if not math.isfinite(d):
            found.append(SupportViolationError(
                "entropy between the endpoints diverges (support mismatch)"))
        if rhs <= qsl.ZERO_TOL and d > qsl.ENTROPY_NOISE_TOL:
            found.append(ZeroSpeedError(
                f"rate integral {rhs:.3e} vanishes while entropy is {d:.3e}"))
    return found


def depolarizing(r: float, t: float, n_steps: int) -> dyn.Trajectory:
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    return dyn.evolve_kraus(fam, bloch_state(BlochVector(r, 1.0, 0.3)), t, n_steps, rates=True)


def handmade(first, last, speeds, kmin: float = 0.2) -> dyn.Trajectory:
    """Nine samples on [0, 1]: `first` for every state but the last, which
    is `last`, with the given Schatten speeds and a constant k_min."""
    states = np.array([first] * 8 + [last], dtype=complex)
    return dyn.Trajectory(
        times=np.linspace(0.0, 1.0, 9), states=states,
        speeds=np.asarray(speeds, dtype=float), kmins=np.full(9, kmin))


MIXED = np.diag([0.7, 0.3])
OTHER = np.diag([0.4, 0.6])
PURE = np.diag([1.0, 0.0])
NOT_PSD = np.diag([1.1, -0.1])
NOT_PSD_EITHER = np.diag([1.2, -0.2])
JAGGED = [0.0, 5.0] * 4 + [0.0]

# name -> (trajectory, params, the least number of errors each group meets)
CASES = {
    # 8 intervals keep the half-grid gate: I1 and I2 both fail it
    "both_gates": (lambda: depolarizing(0.75, 8.0, 9), EntropyParams(0.3, 0.9), (2, 2)),
    # k_min = e^-2 zeroes 1 + (1 - alpha) ln k_min at alpha = 1/2
    "h_and_gates": (lambda: depolarizing(1.0 - 2.0 * math.exp(-2.0), 8.0, 9),
                    EntropyParams(0.5, 1.0), (3, 3)),
    "probe_gates_final": (lambda: handmade(NOT_PSD, NOT_PSD_EITHER, JAGGED),
                          EntropyParams(0.4, 1.0), (4, 4)),
    "gates_and_final": (lambda: handmade(MIXED, NOT_PSD, JAGGED), EntropyParams(0.4, 1.0), (3, 3)),
    # no motion at all: every route's rate vanishes under a nonzero entropy
    "all_routes_stall": (lambda: handmade(MIXED, OTHER, np.zeros(9)),
                         EntropyParams(0.4, 1.0), (0, 3)),
    "fwd_stalls_bwd_diverges": (lambda: handmade(MIXED, PURE, np.zeros(9)),
                                EntropyParams(0.4, 1.0), (0, 5)),
    # a crawl: the forward rate stays above the vanishing threshold, the
    # swapped one falls below it where the entropy diverges
    "bwd_diverges_and_stalls": (lambda: handmade(MIXED, PURE, np.full(9, 5e-17), kmin=1e-4),
                                EntropyParams(0.2, 1.0), (0, 3)),
    "clean": (lambda: depolarizing(0.75, 2.0, 401), EntropyParams(0.3, 0.9), (0, 0)),
}


@pytest.mark.parametrize("group", sorted(ENTRIES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_point_raises_first_sequential_error(name, group):
    make, p, least = CASES[name]
    traj = make()
    found = sequential_errors(traj, p, group)
    assert len(found) >= least[0 if group == "bounds" else 1]
    try:
        ENTRIES[group](traj, p)
    except AzqslError as exc:
        got = exc
    else:
        got = None
    assert describe(got) == describe(found[0] if found else None)
