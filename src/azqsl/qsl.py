"""Dynamical upper bounds on the two-parameter relative entropies and the
entropic quantum-speed-limit times built from them.

Everything rests on two trajectory integrals,

    I1 = ∫ k_min(rho_t)^(alpha-1) ||drho_t/dt||_1 dt,
    I2 = ∫ k_min(rho_t)^(-alpha)  ||drho_t/dt||_1 dt,

weighted by the time-independent auxiliary function

    h(rho_0) = (k_max k_min^(z-1))^((1-alpha)/z) / |1 + (1-alpha) ln k_min|.

The forward bound is (alpha h / |1-alpha|) I1, the swapped bound is
h(alpha -> 1-alpha) I2, and the symmetrized bound is their sum. QSL times
are the entropies divided by the corresponding time-averaged rates; the
reported speed limit is the max over the three routes and never exceeds the
physical horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from . import dynamics as dyn
from .entropy import EntropyParams
from .errors import (
    AzqslError,
    DenominatorNearZeroError,
    DegenerateRangeError,
    QuadratureTooCoarseError,
    SingularStateError,
    SpectrumMismatchError,
    SupportViolationError,
    ZeroSpeedError,
    ZeroVarianceError,
)
from .states import DensityMatrix

KMIN_CLAMP = 1e-12          # floor for k_min(rho_t) inside integrands
LOOSE_KMIN_TOL = 1e-6       # below this the negative k_min powers spike
H_DENOM_TOL = 1e-9          # |1 + (1-alpha) ln k_min| below this is an error
RICHARDSON_REL_TOL = 1e-4   # half-grid vs full-grid relative gate
ZERO_TOL = 1e-15            # "vanishing" threshold for rate integrals
ENTROPY_NOISE_TOL = 1e-12   # entropies below this count as zero (rounding)

WARN_KMIN_CLAMPED = "kmin_clamped"
WARN_LOOSE_BOUND = "loose_bound"
WARN_CHAIN_SIGN = "chain_sign"
WARN_QUAD_UNGATED = "quad_ungated"


@dataclass(frozen=True)
class BoundReport:
    """Entropies between the trajectory endpoints and the integrated
    right-hand sides that bound them."""

    d_fwd: float
    d_bwd: float
    d_sym: float
    rhs_fwd: float
    rhs_bwd: float
    rhs_sym: float
    delta_bound: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class QSLReport:
    """Speed-limit times for one (probe, trajectory, alpha, z) instance."""

    tau: float
    tau_fwd: float
    tau_bwd: float
    tau_sym: float
    tau_qsl: float
    delta_qsl: float
    warnings: tuple[str, ...] = ()


# report fields per group, in the order the warnings rule visits the groups
_GROUP_FIELDS = {
    "bounds": ("d_fwd", "d_bwd", "d_sym", "rhs_fwd", "rhs_bwd", "rhs_sym", "delta_bound"),
    "qsl": ("tau", "tau_fwd", "tau_bwd", "tau_sym", "tau_qsl", "delta_qsl"),
}


class Panel:
    """Bound ("bounds") and speed-limit ("qsl") reports over an
    (alpha, z, t) grid, filled one time column at a time.

    `values` maps each report field of the groups held to an
    (n_alpha, n_z, n_t) float array, nan where that cell's group failed;
    `errors` maps each group held to an object array of the AzqslError that
    ended each failed cell, None elsewhere; `warnings` holds the warnings
    cell of every row as text. C order is the (alpha, z, t) row order.
    `h_tables` keeps the h and chain_sign tables of the (alpha, z) grid by
    probe spectrum, for the next trajectory from the same probe."""

    def __init__(self, alphas, zs, times, groups):
        self.alphas, self.zs, self.times = (np.asarray(g, dtype=float) for g in (alphas, zs, times))
        shape = (len(self.alphas), len(self.zs), len(self.times))
        groups = [g for g in _GROUP_FIELDS if g in groups]
        self.values = {name: np.full(shape, math.nan) for g in groups for name in _GROUP_FIELDS[g]}
        self.errors = {g: np.full(shape, None, dtype=object) for g in groups}
        self.warnings = np.full(shape, "", dtype=object)
        self.h_tables: dict = {}


def h_func(rho0: DensityMatrix, p: EntropyParams) -> float:
    """(k_max k_min^(z-1))^((1-alpha)/z) / |1 + (1-alpha) ln k_min|."""
    if not rho0.full_rank:
        raise SingularStateError("auxiliary function needs a full-rank probe")
    denom = abs(1.0 + (1.0 - p.alpha) * math.log(rho0.k_min))
    if denom <= H_DENOM_TOL:
        raise DenominatorNearZeroError(
            f"|1 + (1-alpha) ln k_min| = {denom:.3e} at alpha={p.alpha}"
        )
    num = (rho0.k_max * rho0.k_min ** (p.z - 1.0)) ** ((1.0 - p.alpha) / p.z)
    return num / denom


def chain_sign_negative(rho0: DensityMatrix, alpha: float) -> bool:
    """True when 1 + (1-alpha) ln k_min(rho_0) < 0, the regime where the
    absolute value in h changes the sign of the underlying chain of
    inequalities (the bound is still evaluated as written)."""
    return 1.0 + (1.0 - alpha) * math.log(rho0.k_min) < 0.0


def phi_func(rho0: DensityMatrix, rho_t: DensityMatrix, p: EntropyParams) -> float:
    """alpha h k_min(rho_t)^(alpha-1) + (1-alpha) h' k_min(rho_t)^(-alpha);
    symmetric under alpha -> 1 - alpha."""
    if not rho_t.full_rank:
        raise SingularStateError("instantaneous state is rank-deficient")
    h_a = h_func(rho0, p)
    h_b = h_func(rho0, p.swapped)
    k = rho_t.k_min
    a = p.alpha
    return a * h_a * k ** (a - 1.0) + (1.0 - a) * h_b * k ** (-a)


def _quad(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Integral of each row of `vals`: composite Simpson when the interval
    count is even, trapezoid otherwise."""
    n = len(times) - 1
    if n >= 2 and n % 2 == 0:
        h = times[1] - times[0]
        return h / 3.0 * (
            vals[..., 0] + vals[..., -1]
            + 4.0 * vals[..., 1:-1:2].sum(axis=-1) + 2.0 * vals[..., 2:-1:2].sum(axis=-1)
        )
    # np.trapezoid needs numpy >= 2.0; scipy.integrate takes ~0.3 s to
    # import, so only grids that need the trapezoid rule load it
    from scipy.integrate import trapezoid

    return trapezoid(vals, times, axis=-1)


def _gated_quads(
    times: np.ndarray, vals: np.ndarray, gate: bool
) -> tuple[np.ndarray, dict[int, QuadratureTooCoarseError]]:
    """Integrate each row of `vals` and, when `gate` is set, cross-check it
    against the half grid: the integrals, and the error that rejects each
    row whose relative disagreement exceeds tolerance, by row index."""
    full = _quad(times, vals)
    if not gate:
        return full, {}
    half = _quad(times[::2], vals[:, ::2])
    # NaN rows pass, and infinities compare, as in float arithmetic
    with np.errstate(invalid="ignore", over="ignore"):
        failed = np.abs(full - half) > RICHARDSON_REL_TOL * np.maximum(np.abs(full), 1e-12)
    errors = {}
    for i in np.flatnonzero(failed).tolist():
        f, h = float(full[i]), float(half[i])
        errors[i] = QuadratureTooCoarseError(f"half-grid check differs by {abs(f - h):.3e} vs {f:.3e}")
    return full, errors


def _h_pair(rho0: DensityMatrix, p: EntropyParams) -> tuple[float, float, bool]:
    """h at alpha and at 1 - alpha, and whether chain_sign applies."""
    h_a, h_b = h_func(rho0, p), h_func(rho0, p.swapped)
    chain = chain_sign_negative(rho0, p.alpha) or chain_sign_negative(rho0, 1.0 - p.alpha)
    return h_a, h_b, chain


def _weighted_integrals(
    times: np.ndarray, kmins: np.ndarray, rate_sets: list[np.ndarray], alphas: list[float]
) -> tuple[list[tuple[tuple, tuple]], tuple[str, ...]]:
    """Integrals I1 of k_min^(alpha-1) and I2 of k_min^(-alpha) against each
    rate, for every alpha: one (I1, I2) pair per rate set, each the
    `_gated_quads` pair of integrals and gate errors over the alpha grid.

    When k_min dips toward zero along the trajectory (amplitude damping at
    late times, zero crossings of the decoherence amplitude) the negative
    powers spike and the right-hand sides blow up: the bound is then loose
    by construction, the half-grid gate is meaningless, and the result is
    flagged instead of rejected.

    The gate needs Simpson on both grids, so an interval count divisible by
    4 and at least 8. Any other grid, the trapezoid fallback of an odd
    count included, is integrated without it and flagged `quad_ungated`.
    """
    clamped = bool(np.any(kmins < KMIN_CLAMP))
    kc = np.maximum(kmins, KMIN_CLAMP)
    loose = bool(float(kmins.min()) < LOOSE_KMIN_TOL)
    n = len(times) - 1
    gate = not loose and n % 4 == 0 and n >= 8
    a = np.asarray(alphas)[:, None]
    w1 = kc ** (a - 1.0)
    w2 = kc ** (-a)
    tables = [
        (_gated_quads(times, w1 * rates, gate), _gated_quads(times, w2 * rates, gate))
        for rates in rate_sets
    ]
    warns: tuple[str, ...] = ()
    if clamped:
        warns += (WARN_KMIN_CLAMPED,)
    if loose:
        warns += (WARN_LOOSE_BOUND,)
    elif not gate:
        warns += (WARN_QUAD_UNGATED,)
    return tables, warns


def _route_rhs(a, h_a, h_b, i1, i2, kraus: bool):
    """Forward and swapped right-hand sides of one route, elementwise. Each
    formula keeps its own operation order: another order moves the last
    bits of the outputs."""
    if kraus:
        return 2.0 * a * h_a * i1 / abs(1.0 - a), 2.0 * h_b * i2
    return a * h_a / abs(1.0 - a) * i1, h_b * i2


def _attempt(fn, *args):
    """fn(*args), or the AzqslError it raised, without its traceback.

    A kept error's traceback frames link back to the frame that keeps the
    error, a reference cycle that would hold the trajectory and its arrays
    alive until the next garbage collection."""
    try:
        return fn(*args)
    except AzqslError as exc:
        return exc.with_traceback(None)


def _h_table(rho0: DensityMatrix, alphas: list[float], zs: list[float]) -> tuple:
    """`_h_pair` over an (alpha, z) grid as arrays (h_a, h_b, chain), and
    the error of each failed entry by index."""
    shape = (len(alphas), len(zs))
    h_a, h_b = np.full(shape, math.nan), np.full(shape, math.nan)
    chain, errors = np.zeros(shape, bool), {}
    for (i, a), (j, z) in itertools.product(enumerate(alphas), enumerate(zs)):
        pair = _attempt(_h_pair, rho0, EntropyParams(a, z))
        if isinstance(pair, AzqslError):
            errors[i, j] = pair
        else:
            h_a[i, j], h_b[i, j], chain[i, j] = pair
    return h_a, h_b, chain, errors


def _endpoint_entropy_grid(
    traj: dyn.Trajectory, rho0: DensityMatrix, alphas: list[float], zs: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """D(rho_t||rho_0) and D(rho_0||rho_t) over the (alpha, z) grid."""
    rho_tau = traj.final_state
    fwd = [ent._renyi_az_values(rho_tau, rho0, alphas, z) for z in zs]
    bwd = [ent._renyi_az_values(rho0, rho_tau, alphas, z) for z in zs]
    return np.array(fwd).T, np.array(bwd).T


def _tau_ratios(d, rhs, tau: float, pending: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """QSL times tau * D / RHS of the routes stacked along axis 0 (fwd, bwd,
    sym), with guards for vanishing rates. A route fails where its entropy
    diverges, or else where its rate integral vanishes under a nonzero
    entropy; a pending cell gets the error of its first failing route and
    stops pending."""
    stalled = rhs <= ZERO_TOL
    out = np.where(stalled, 0.0, tau * d / rhs)
    diverged = ~np.isfinite(d)
    stalled &= ~diverged & (d > ENTROPY_NOISE_TOL)
    fails = diverged | stalled
    first = fails.argmax(axis=0)
    failed = pending & fails.any(axis=0)
    for idx in zip(*np.nonzero(failed)):
        route = (first[idx], *idx)
        errors[idx] = (
            SupportViolationError("entropy between the endpoints diverges (support mismatch)")
            if diverged[route] else ZeroSpeedError(
                f"rate integral {rhs[route]:.3e} vanishes while entropy is {d[route]:.3e}")
        )
    pending &= ~failed
    return out


def _warning_cells(flags: tuple[str, ...], chain: np.ndarray, errors: list) -> np.ndarray:
    """The warnings cell of each (alpha, z) row: per group, its error tag or
    the trajectory's quadrature flags then chain_sign, each tag once."""
    texts = ";".join(flags), ";".join(flags + (WARN_CHAIN_SIGN,))
    out = np.where(chain, texts[1], texts[0]).astype(object)
    failed = np.logical_or.reduce([np.not_equal(err, None) for err in errors])
    for idx in zip(*np.nonzero(failed)):
        tags: list[str] = []
        for err in errors:
            exc = err[idx]
            if exc is not None:
                own = (f"error:{type(exc).__name__}",)
            else:
                own = flags + ((WARN_CHAIN_SIGN,) if chain[idx] else ())
            tags += [w for w in own if w not in tags]
        out[idx] = ";".join(tags)
    return out


def _fill_column(panel: Panel, k: int, traj: dyn.Trajectory) -> None:
    """Fill time column k of `panel` from one trajectory to that horizon:
    the values, errors and warnings of every (alpha, z) cell, in place.

    The endpoint states are validated once, the weighted integrals are taken
    once per alpha (they do not depend on z), and both endpoint entropies
    once per (alpha, z), shared by the two report groups. h and chain_sign
    depend only on the probe's extreme eigenvalues, so their tables are
    built once per probe spectrum for the panel. The bounds use the
    Schatten speed; the speed limits use the trajectory's summed Kraus rates
    when it carries them, the Schatten speed otherwise.

    Errors take the precedence of the sequential evaluation: probe state,
    h, I1, I2, final state, entropies, then the speed-limit ratios fwd, bwd,
    sym. The arithmetic runs elementwise in the operation order of the
    scalar formulas, so every value keeps its bits.
    """
    groups = list(panel.errors)
    if not groups:
        return
    rho0 = _attempt(getattr, traj, "initial_state")
    if isinstance(rho0, AzqslError):
        _fill_failed(panel, k, rho0)
        return
    alphas, zs = panel.alphas.tolist(), panel.zs.tolist()
    shape = (len(alphas), len(zs))
    if (rho0.k_min, rho0.k_max) not in panel.h_tables:
        panel.h_tables[rho0.k_min, rho0.k_max] = _h_table(rho0, alphas, zs)
    h_a, h_b, chain, h_errors = panel.h_tables[rho0.k_min, rho0.k_max]
    kraus = traj.rates is not None
    rate_sets = [traj.speeds] if "bounds" in groups or not kraus else []
    if "qsl" in groups and kraus:
        rate_sets.append(traj.rates)
    tables, flags = _weighted_integrals(traj.times, traj.kmins, rate_sets, alphas)
    integrals = {"bounds": tables[0], "qsl": tables[-1]}

    errors = {g: panel.errors[g][:, :, k] for g in groups}
    pending = {}
    for g in groups:
        ok = pending[g] = np.ones(shape, bool)
        for idx, exc in h_errors.items():
            errors[g][idx], ok[idx] = exc, False
        for _, gate_errors in integrals[g]:  # I1, then I2
            for i, exc in gate_errors.items():
                errors[g][i, ok[i]] = exc
                ok[i] = False
    entropies = None
    if any(ok.any() for ok in pending.values()):
        entropies = _attempt(_endpoint_entropy_grid, traj, rho0, alphas, zs)
    if isinstance(entropies, AzqslError):
        for g in groups:
            errors[g][pending[g]] = entropies
    elif entropies is not None:
        d_fwd, d_bwd = entropies
        d_sym = d_fwd + d_bwd
        a = np.array(alphas)[:, None]
        with np.errstate(all="ignore"):
            for g in groups:
                (i1, _), (i2, _) = integrals[g]
                rhs_fwd, rhs_bwd = _route_rhs(
                    a, h_a, h_b, i1[:, None], i2[:, None], kraus and g == "qsl")
                rhs_sym = rhs_fwd + rhs_bwd
                if g == "bounds":
                    idle = np.where(np.abs(d_sym) <= ZERO_TOL, 0.0, math.nan)
                    delta = np.where(rhs_sym > ZERO_TOL, 1.0 - d_sym / rhs_sym, idle)
                    report = (d_fwd, d_bwd, d_sym, rhs_fwd, rhs_bwd, rhs_sym, delta)
                else:
                    taus = _tau_ratios(
                        np.stack((d_fwd, d_bwd, d_sym)), np.stack((rhs_fwd, rhs_bwd, rhs_sym)),
                        traj.tau, pending[g], errors[g])
                    # max(tau_fwd, tau_bwd, tau_sym) as Python's max takes it
                    tau_qsl = taus[0]
                    for later in taus[1:]:
                        tau_qsl = np.where(later > tau_qsl, later, tau_qsl)
                    report = (traj.tau, *taus, tau_qsl, 1.0 - tau_qsl / traj.tau)
                for name, arr in zip(_GROUP_FIELDS[g], report):
                    np.copyto(panel.values[name][:, :, k], arr, where=pending[g])
    panel.warnings[:, :, k] = _warning_cells(flags, chain, list(errors.values()))


def _fill_stationary(panel: Panel, k: int) -> None:
    """Time column k at a zero horizon, the stationary limit: all entropies
    and rates are zero, the bound saturates, and the speed limit is the
    trivial tau >= 0."""
    for name, arr in panel.values.items():
        arr[:, :, k] = 1.0 if name == "delta_qsl" else 0.0


def _fill_failed(panel: Panel, k: int, exc: AzqslError) -> None:
    """Time column k when its trajectory or probe state failed: every group
    of every cell ends in `exc`."""
    exc = exc.with_traceback(None)
    for err in panel.errors.values():
        err[:, :, k] = exc
    panel.warnings[:, :, k] = f"error:{type(exc).__name__}"


def _point_report(traj: dyn.Trajectory, p: EntropyParams, group: str, report):
    """The `report` of one group at (p.alpha, p.z) along `traj`: the one
    cell of a one-point panel, raising its error."""
    panel = Panel([p.alpha], [p.z], [traj.tau], [group])
    _fill_column(panel, 0, traj)
    exc = panel.errors[group][0, 0, 0]
    if exc is not None:
        try:
            raise exc
        finally:
            # this frame is on the error's traceback: drop its references
            # to the error so the two do not form a cycle
            exc = panel = None
    values = {name: float(panel.values[name][0, 0, 0]) for name in _GROUP_FIELDS[group]}
    return report(**values, warnings=tuple(filter(None, panel.warnings[0, 0, 0].split(";"))))


def integrate_bounds(traj: dyn.Trajectory, p: EntropyParams) -> BoundReport:
    """Evaluate the three entropy bounds along a trajectory.

    The symmetrized relative error compares the symmetrized entropy to its
    integrated bound; 0 means saturation, 1 means the entropy is negligible
    against the rate integral.
    """
    return _point_report(traj, p, "bounds", BoundReport)


def qsl_general(traj: dyn.Trajectory, p: EntropyParams) -> QSLReport:
    """Speed-limit times along a sampled trajectory.

    A trajectory that carries its summed Kraus rates ||K_l rho_0 dK_l†/dt||_1
    uses them in place of the Schatten speed (they bound speed/2 from above,
    so these times never exceed the Schatten-speed ones); any other uses the
    Schatten speed."""
    return _point_report(traj, p, "qsl", QSLReport)


def qsl_unitary(
    h: dyn.HamiltonianModel,
    rho0: DensityMatrix,
    rho_tau: DensityMatrix,
    p: EntropyParams,
    tau: float | None = None,
) -> QSLReport:
    """Closed-form speed limits for unitary dynamics.

    Uses the speed bound ||drho/dt||_1 <= 2 Delta H and the invariance of the
    spectrum, so no trajectory integration is involved. rho_tau must share
    the probe's spectrum; a vanishing Delta H means the probe is stationary
    and no finite bound exists.
    """
    if np.max(np.abs(rho0.eigenvalues - rho_tau.eigenvalues)) > 1e-8:
        raise SpectrumMismatchError("rho_tau is not unitarily reachable from rho0")
    dh = dyn.energy_fluctuation(h, rho0)
    if dh <= 1e-12:
        raise ZeroVarianceError("Delta H vanishes; the probe does not evolve")
    h_a, h_b, chain = _h_pair(rho0, p)
    a = p.alpha
    k = rho0.k_min
    d_fwd = ent.renyi_az(rho_tau, rho0, p)
    d_bwd = ent.renyi_az(rho0, rho_tau, p)
    d_sym = d_fwd + d_bwd
    den_fwd = 2.0 * a * h_a * k ** (a - 1.0) * dh
    den_bwd = 2.0 * h_b * k ** (-a) * dh
    den_sym = 2.0 * (a * h_a * k ** (2.0 * a - 1.0) + abs(1.0 - a) * h_b) * dh / k**a
    tau_fwd = abs(1.0 - a) * d_fwd / den_fwd
    tau_bwd = d_bwd / den_bwd
    tau_sym = abs(1.0 - a) * d_sym / den_sym
    tau_qsl = max(tau_fwd, tau_bwd, tau_sym)
    horizon = math.nan if tau is None else tau
    delta = math.nan if tau is None else 1.0 - tau_qsl / tau
    return QSLReport(
        tau=horizon,
        tau_fwd=tau_fwd,
        tau_bwd=tau_bwd,
        tau_sym=tau_sym,
        tau_qsl=tau_qsl,
        delta_qsl=delta,
        warnings=(WARN_CHAIN_SIGN,) if chain else (),
    )


def tau_unitary_petz(
    rho0: DensityMatrix, rho_tau: DensityMatrix, alpha: float, delta_h: float
) -> float:
    """Fast path of the forward unitary speed limit at z = 1, written in
    terms of the Petz entropy and the probe's extreme eigenvalues."""
    if delta_h <= 1e-12:
        raise ZeroVarianceError("Delta H vanishes")
    r_alpha = ent.petz(rho_tau, rho0, alpha)
    k_min, k_max = rho0.k_min, rho0.k_max
    num = abs(1.0 - alpha) * abs(1.0 + (1.0 - alpha) * math.log(k_min)) * r_alpha
    den = 2.0 * alpha * k_max ** (1.0 - alpha) * k_min ** (alpha - 1.0) * delta_h
    return num / den


def tau_unitary_fidelity(
    rho0: DensityMatrix, rho_tau: DensityMatrix, delta_h: float
) -> float:
    """Fast path at alpha = z = 1/2: a positive bound proportional to
    -ln of the Uhlmann fidelity."""
    if delta_h <= 1e-12:
        raise ZeroVarianceError("Delta H vanishes")
    f = ent.fidelity(rho_tau, rho0)
    k_min, k_max = rho0.k_min, rho0.k_max
    return -abs(2.0 + math.log(k_min)) * k_min * math.log(f) / (2.0 * k_max * delta_h)


def qsl_nonunitary(
    fam: dyn.KrausFamily,
    rho0: DensityMatrix,
    tau: float,
    p: EntropyParams,
    n_steps: int = 1001,
) -> QSLReport:
    """Evolve the channel with its Kraus rates and evaluate the speed limits."""
    return qsl_general(dyn.evolve_kraus(fam, rho0, tau, n_steps, rates=True), p)


def normalize_series(values) -> np.ndarray:
    """Affine rescale of a series onto [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DegenerateRangeError("need at least two values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-15:
        raise DegenerateRangeError(f"range {hi - lo:.3e} too small to normalize")
    return (arr - lo) / (hi - lo)
