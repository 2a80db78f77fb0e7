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
    _attempt,
    DenominatorNearZeroError,
    DegenerateRangeError,
    DimMismatchError,
    InvalidParamsError,
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
    (alpha, z, t) grid, filled by `_fill` in one call.

    `values` maps each report field of the groups held to an
    (n_alpha, n_z, n_t) float array, nan where that cell's group failed;
    `errors` maps each group held to an object array of the AzqslError that
    ended each failed cell, None elsewhere; `warnings` holds the warnings
    cell of every row as text. C order is the (alpha, z, t) row order."""

    def __init__(self, alphas, zs, times, groups):
        self.alphas, self.zs, self.times = (np.asarray(g, dtype=float) for g in (alphas, zs, times))
        shape = (len(self.alphas), len(self.zs), len(self.times))
        groups = [g for g in _GROUP_FIELDS if g in groups]
        self.values = {name: np.full(shape, math.nan) for g in groups for name in _GROUP_FIELDS[g]}
        self.errors = {g: np.full(shape, None, dtype=object) for g in groups}
        self.warnings = np.full(shape, "", dtype=object)


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
    # scipy.integrate.trapezoid's arithmetic, which keeps its bits
    return (np.diff(times) * (vals[..., 1:] + vals[..., :-1]) / 2.0).sum(axis=-1)


def _gated_quads(times: np.ndarray, vals: np.ndarray, gate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Integrate each row of `vals` and, when `gate` is set, cross-check it
    against the half grid: the integrals, and an object array of the error
    that rejects each row whose relative disagreement exceeds tolerance,
    None for every other row."""
    full = _quad(times, vals)
    errors = np.full(full.shape, None, dtype=object)
    if not gate:
        return full, errors
    half = _quad(times[::2], vals[:, ::2])
    # NaN rows pass, and infinities compare, as in float arithmetic
    with np.errstate(invalid="ignore", over="ignore"):
        failed = np.abs(full - half) > RICHARDSON_REL_TOL * np.maximum(np.abs(full), 1e-12)
    for i in np.flatnonzero(failed).tolist():
        f, h = float(full[i]), float(half[i])
        errors[i] = QuadratureTooCoarseError(f"half-grid check differs by {abs(f - h):.3e} vs {f:.3e}")
    return full, errors


def _h_pair(rho0: DensityMatrix, p: EntropyParams) -> tuple[float, float, bool]:
    """h at alpha and at 1 - alpha, and whether chain_sign applies."""
    h_a, h_b = h_func(rho0, p), h_func(rho0, p.swapped)
    chain = chain_sign_negative(rho0, p.alpha) or chain_sign_negative(rho0, 1.0 - p.alpha)
    return h_a, h_b, chain


# The endpoint entropies of a batch of columns hold at most this many core
# entries at once, so batching adds nothing to peak memory; a batch holds
# one column at least.
_BATCH_ELEMENTS = 1 << 14


def _chunks(n: int, size: int):
    """Slices of at most `size` (at least one) of range(n)."""
    size = max(1, size)
    return (slice(start, start + size) for start in range(0, n, size))


def _integrator(alphas: list[float]):
    """integrate(times, kmins, (speeds, rates)): one trajectory's integrals
    I1 of k_min^(alpha-1) and I2 of k_min^(-alpha) against its Schatten
    speeds, then its summed Kraus rates unless `rates` is None, for every
    alpha, as an (n_rates, 2, n_alpha) array, I1 first; an object array of
    the same shape of the gate error of each, None where the gate passes or
    does not run; and the trajectory's quadrature flags.

    When k_min dips toward zero along the trajectory (amplitude damping at
    late times, zero crossings of the decoherence amplitude) the negative
    powers spike and the right-hand sides blow up: the bound is then loose
    by construction, the half-grid gate is meaningless, and the result is
    flagged instead of rejected.

    The gate needs Simpson on both grids, so an interval count divisible by
    4 and at least 8. Any other grid, the trapezoid fallback of an odd
    count included, is integrated without it and flagged `quad_ungated`.

    The integrals are taken once per distinct exponent: alpha - 1 at one
    alpha is -alpha at 1 - alpha, so grids symmetric about 1/2 share most
    of them. The weights hold one row of samples per distinct exponent, at
    most 2 n_alpha, and every (integral, alpha) reading a row gets its
    integral and its gate error.
    """
    exponents, shared = np.unique(
        [alpha - 1.0 for alpha in alphas] + [-alpha for alpha in alphas], return_inverse=True)
    shared = shared.reshape(2, len(alphas))  # (integral, alpha) -> exponent row

    def integrate(times: np.ndarray, kmins: np.ndarray, rates: tuple):
        rates = [rate for rate in rates if rate is not None]
        low = float(kmins.min())
        loose = low < LOOSE_KMIN_TOL
        n = len(times) - 1
        gate = not loose and n % 4 == 0 and n >= 8
        # (exponent, sample)
        weights = np.maximum(kmins, KMIN_CLAMP) ** exponents[:, None]
        integrals = np.empty((len(rates), *shared.shape))
        errors = np.empty(integrals.shape, dtype=object)
        for r, rate in enumerate(rates):
            full, failed = _gated_quads(times, weights * rate, gate)
            integrals[r], errors[r] = full[shared], failed[shared]
        flags = (WARN_KMIN_CLAMPED,) if low < KMIN_CLAMP else ()
        if loose:
            flags += (WARN_LOOSE_BOUND,)
        elif not gate:
            flags += (WARN_QUAD_UNGATED,)
        return integrals, errors, flags

    return integrate


def _route_rhs(a, h_a, h_b, i1, i2, kraus: bool):
    """Forward and swapped right-hand sides of one route, elementwise. Each
    formula keeps its own operation order: another order moves the last
    bits of the outputs."""
    if kraus:
        return 2.0 * a * h_a * i1 / abs(1.0 - a), 2.0 * h_b * i2
    return a * h_a / abs(1.0 - a) * i1, h_b * i2


def _h_table(rho0: DensityMatrix, alphas: list[float], zs: list[float]) -> tuple:
    """`_h_pair` over an (alpha, z) grid as arrays (h_a, h_b, chain), and
    an object array of the error of each failed entry, None elsewhere."""
    shape = (len(alphas), len(zs))
    h_a, h_b = np.full(shape, math.nan), np.full(shape, math.nan)
    chain, errors = np.zeros(shape, bool), np.full(shape, None, dtype=object)
    for (i, a), (j, z) in itertools.product(enumerate(alphas), enumerate(zs)):
        pair = _attempt(_h_pair, rho0, EntropyParams(a, z))
        if isinstance(pair, AzqslError):
            errors[i, j] = pair
        else:
            h_a[i, j], h_b[i, j], chain[i, j] = pair
    return h_a, h_b, chain, errors


def _endpoint_entropies(
    rho0: DensityMatrix, finals: list, alphas: list[float], zs: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """D(rho_t||rho_0) and D(rho_0||rho_t) over the (alpha, z) grid for each
    column with a final state rho_t (None elsewhere, left nan), shape
    (n_alpha, n_z, n_columns). Per z, both orders of the columns' pairs go
    through one `_renyi_az_grid` call, in batches of at most
    `_BATCH_ELEMENTS` core entries, so the probe's powers are taken once
    per batch."""
    shape = (len(alphas), len(zs), len(finals))
    d_fwd, d_bwd = np.full(shape, math.nan), np.full(shape, math.nan)
    held = [c for c, state in enumerate(finals) if state is not None]
    for batch in _chunks(len(held), _BATCH_ELEMENTS // (2 * len(alphas) * rho0.dim**2)):
        cs = held[batch]
        states, starts = [finals[c] for c in cs], [rho0] * len(cs)
        for j, z in enumerate(zs):
            both = ent._renyi_az_grid(states + starts, starts + states, alphas, z)
            d_fwd[:, j, cs], d_bwd[:, j, cs] = both[:len(cs)].T, both[len(cs):].T
    return d_fwd, d_bwd


def _tau_ratios(d, rhs, tau, errors: np.ndarray) -> np.ndarray:
    """QSL times tau * D / RHS of the routes stacked along axis 0 (fwd, bwd,
    sym), the horizons `tau` broadcasting against them, with guards for
    vanishing rates. An entropy below zero is rounding at a fixed point,
    and its time is zero. A route fails where its entropy diverges, or else
    where its rate integral vanishes under a nonzero entropy; a cell whose
    entry of `errors` is still None takes the error of its first failing
    route there."""
    stalled = rhs <= ZERO_TOL
    out = np.where(stalled | (d < 0.0), 0.0, tau * d / rhs)
    diverged = ~np.isfinite(d)
    stalled &= ~diverged & (d > ENTROPY_NOISE_TOL)
    fails = diverged | stalled
    first = fails.argmax(axis=0)
    failed = np.equal(errors, None) & fails.any(axis=0)
    for idx in zip(*np.nonzero(failed)):
        route = (first[idx], *idx)
        errors[idx] = (
            SupportViolationError("entropy between the endpoints diverges (support mismatch)")
            if diverged[route] else ZeroSpeedError(
                f"rate integral {rhs[route]:.3e} vanishes while entropy is {d[route]:.3e}")
        )
    return out


def _warning_cells(flags: list[tuple[str, ...]], chain: np.ndarray, errors: list) -> np.ndarray:
    """The warnings cell of each (alpha, z, column) cell: per group, its
    error tag or its column's quadrature flags then chain_sign, each tag
    once. `chain` broadcasts against the cells, and each group's errors
    are an array of the cells' shape. A failed cell's text depends only on
    its column's flags, its chain_sign and each group's error class, so it
    is built once per such combination and scattered to its cells."""
    plain = np.array([";".join(f) for f in flags], dtype=object)
    chained = np.array([";".join(f + (WARN_CHAIN_SIGN,)) for f in flags], dtype=object)
    out = np.where(chain, chained, plain)
    failed = np.not_equal(errors[0], None)
    for err in errors[1:]:
        failed |= np.not_equal(err, None)
    if not failed.any():
        return out
    cells = failed.nonzero()
    # one integer per failed cell: its column's flags, its chain_sign, then
    # per group its error class, 0 for none
    kinds: dict = {}
    kind = np.array([kinds.setdefault(f, len(kinds)) for f in flags])
    classes = {type(None): 0}
    codes = [[classes.setdefault(type(exc), len(classes)) for exc in err[cells].tolist()]
             for err in errors]
    key = 2 * kind[cells[-1]] + np.broadcast_to(chain, failed.shape)[cells]
    for group in codes:
        key = key * len(classes) + group
    _, first, combination = np.unique(key, return_index=True, return_inverse=True)
    texts = []
    for i in first.tolist():
        idx = tuple(axis[i] for axis in cells)
        # a group without an error tags the cell as the flags and chain_sign do
        own = tuple(filter(None, out[idx].split(";")))
        tags: list[str] = []
        for err in errors:
            exc = err[idx]
            tags += [w for w in ((f"error:{type(exc).__name__}",) if exc is not None else own)
                     if w not in tags]
        texts.append(";".join(tags))
    out[cells] = np.array(texts, dtype=object)[combination]
    return out


def _fill_failed(panel: Panel, k: int, exc: AzqslError) -> None:
    """Time column k when its trajectory or probe state failed: every group
    of every cell ends in `exc`."""
    exc = exc.with_traceback(None)
    for err in panel.errors.values():
        err[:, :, k] = exc
    panel.warnings[:, :, k] = f"error:{type(exc).__name__}"


def _fill(panel: Panel, columns: list, live: np.ndarray) -> None:
    """Fill every time column of `panel` in place: the values, errors and
    warnings of every (alpha, z) cell. A column where `live` is False is at
    a zero horizon, the stationary limit: all entropies and rates are zero,
    the bound saturates, and the speed limit is the trivial tau >= 0. The
    live columns are `columns`, in order: each a `dynamics._Column`, whose
    table `_integrator` of the panel's alphas made, or the AzqslError that
    fails every group of every cell of its column, as an error of the probe
    state does. A column's horizon is its time value.

    Every column starts from the probe state, the first column's initial
    state; the h and chain_sign tables depend only on it and are built
    once. The endpoint entropies are taken once per (alpha, z, column),
    shared by the two report groups. The bounds read the integrals against
    the Schatten speed, the first row of a table; the speed limits read
    its last row, the summed Kraus rates when the columns carry them.

    Each group keeps the first error of each cell in one object array,
    None while no step has failed, and values where it stays None.
    Errors take the precedence of the sequential evaluation: probe state,
    h, I1, I2, final state, entropies, then the speed-limit ratios fwd,
    bwd, sym. The arithmetic runs elementwise over (alpha, z, column)
    arrays in the operation order of the scalar formulas, so every value
    keeps its bits.
    """
    if not live.all():
        for name, arr in panel.values.items():
            arr[:, :, ~live] = 1.0 if name == "delta_qsl" else 0.0
    ks = live.nonzero()[0]
    groups = list(panel.errors)
    held = [c for c, col in enumerate(columns) if not isinstance(col, AzqslError)]
    probe = columns[held[0]].initial_state if held else None
    if groups and isinstance(probe, AzqslError):
        columns = [col if isinstance(col, AzqslError) else probe for col in columns]
        held = []
    for c, col in enumerate(columns):
        if isinstance(col, AzqslError):
            _fill_failed(panel, ks[c], col)
    if not groups or not held:
        return
    cols, at = [columns[c] for c in held], ks[held]
    alphas, zs = panel.alphas.tolist(), panel.zs.tolist()
    h_a, h_b, chain, h_errors = _h_table(probe, alphas, zs)
    h_a, h_b, chain = h_a[..., None], h_b[..., None], chain[..., None]
    integrals, gate_errors, flags = zip(*(col.table for col in cols))
    # (rate, integral, alpha, column)
    integrals, gate_errors = np.stack(integrals, axis=-1), np.stack(gate_errors, axis=-1)
    kraus = len(integrals) == 2
    rate_of = {"bounds": 0, "qsl": -1}

    # each later step's errors broadcast against a group's, which keep the
    # first error of each cell
    errs = {}
    for g in groups:
        err = h_errors[..., None]
        for later in gate_errors[rate_of[g]]:  # I1, then I2
            err = np.where(np.equal(err, None), later[:, None, :], err)
        errs[g] = err
    finals = [col.final_state for col in cols]
    failed = np.full(len(cols), None, dtype=object)
    for c, state in enumerate(finals):
        if isinstance(state, AzqslError):
            failed[c], finals[c] = state, None
    errs = {g: np.where(np.equal(err, None), failed, err) for g, err in errs.items()}
    if any(state is not None for state in finals):
        d_fwd, d_bwd = _endpoint_entropies(probe, finals, alphas, zs)
        d_sym = d_fwd + d_bwd
        a = np.array(alphas)[:, None, None]
        tau = panel.times[at]
        with np.errstate(all="ignore"):
            for g in groups:
                i1, i2 = integrals[rate_of[g]]
                rhs_fwd, rhs_bwd = _route_rhs(
                    a, h_a, h_b, i1[:, None, :], i2[:, None, :], kraus and g == "qsl")
                rhs_sym = rhs_fwd + rhs_bwd
                if g == "bounds":
                    idle = np.where(np.abs(d_sym) <= ZERO_TOL, 0.0, math.nan)
                    delta = np.where(rhs_sym > ZERO_TOL, 1.0 - d_sym / rhs_sym, idle)
                    report = (d_fwd, d_bwd, d_sym, rhs_fwd, rhs_bwd, rhs_sym, delta)
                else:
                    taus = _tau_ratios(
                        np.stack((d_fwd, d_bwd, d_sym)), np.stack((rhs_fwd, rhs_bwd, rhs_sym)),
                        tau, errs[g])
                    # max(tau_fwd, tau_bwd, tau_sym) as Python's max takes it
                    tau_qsl = taus[0]
                    for later in taus[1:]:
                        tau_qsl = np.where(later > tau_qsl, later, tau_qsl)
                    report = (tau, *taus, tau_qsl, 1.0 - tau_qsl / tau)
                ok = np.equal(errs[g], None)
                for name, arr in zip(_GROUP_FIELDS[g], report):
                    panel.values[name][:, :, at] = np.where(ok, arr, math.nan)
    for g in groups:
        panel.errors[g][:, :, at] = errs[g]
    panel.warnings[:, :, at] = _warning_cells(flags, chain, list(errs.values()))


def _trajectory_column(traj: dyn.Trajectory, integrate) -> dyn._Column:
    """The `dynamics._Column` of a trajectory: `integrate` of its samples,
    and its end states or the errors their validation raised."""
    return dyn._Column(integrate(traj.times, traj.kmins, (traj.speeds, traj.rates)),
                       *(_attempt(getattr, traj, end) for end in ("initial_state", "final_state")))


def _point_report(traj: dyn.Trajectory, p: EntropyParams, group: str, report):
    """The `report` of one group at (p.alpha, p.z) along `traj`: the one
    cell of a one-point panel, raising its error."""
    panel = Panel([p.alpha], [p.z], [traj.tau], [group])
    _fill(panel, [_trajectory_column(traj, _integrator([p.alpha]))], np.ones(1, dtype=bool))
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
    and no finite bound exists. A horizon `tau`, when given, is positive and
    finite.
    """
    if tau is not None and not 0.0 < tau < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {tau}")
    if rho_tau.dim != rho0.dim:
        raise DimMismatchError(f"rho_tau dim {rho_tau.dim} vs rho0 dim {rho0.dim}")
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
    # an entropy below zero is rounding at a fixed point: its time is zero
    tau_fwd = abs(1.0 - a) * max(d_fwd, 0.0) / den_fwd
    tau_bwd = max(d_bwd, 0.0) / den_bwd
    tau_sym = abs(1.0 - a) * max(d_sym, 0.0) / den_sym
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
    terms of the Petz entropy and the probe's extreme eigenvalues. A Petz
    entropy below zero is rounding at a fixed point, and its time is zero."""
    if not math.isfinite(delta_h):
        raise InvalidParamsError(f"Delta H must be finite, got {delta_h}")
    if delta_h <= 1e-12:
        raise ZeroVarianceError("Delta H vanishes")
    if not rho0.full_rank:
        raise SingularStateError("auxiliary function needs a full-rank probe")
    r_alpha = max(ent.petz(rho_tau, rho0, alpha), 0.0)
    k_min, k_max = rho0.k_min, rho0.k_max
    num = abs(1.0 - alpha) * abs(1.0 + (1.0 - alpha) * math.log(k_min)) * r_alpha
    den = 2.0 * alpha * k_max ** (1.0 - alpha) * k_min ** (alpha - 1.0) * delta_h
    return num / den


def tau_unitary_fidelity(
    rho0: DensityMatrix, rho_tau: DensityMatrix, delta_h: float
) -> float:
    """Fast path at alpha = z = 1/2: a positive bound proportional to
    -ln of the Uhlmann fidelity. A fidelity of 1 or more is rounding at a
    fixed point, and its time is zero."""
    if not math.isfinite(delta_h):
        raise InvalidParamsError(f"Delta H must be finite, got {delta_h}")
    if delta_h <= 1e-12:
        raise ZeroVarianceError("Delta H vanishes")
    if not rho0.full_rank:
        raise SingularStateError("auxiliary function needs a full-rank probe")
    f = ent.fidelity(rho_tau, rho0)
    if f >= 1.0:
        return 0.0
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
    """Affine rescale of a finite series onto [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DegenerateRangeError("need at least two values")
    if not np.all(np.isfinite(arr)):
        raise DegenerateRangeError("cannot normalize a series with a non-finite value")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-15:
        raise DegenerateRangeError(f"range {hi - lo:.3e} too small to normalize")
    return (arr - lo) / (hi - lo)
