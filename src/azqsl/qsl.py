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


# report fields per group: bounds, then speed limits
_FIELDS = (
    ("d_fwd", "d_bwd", "d_sym", "rhs_fwd", "rhs_bwd", "rhs_sym", "delta_bound"),
    ("tau", "tau_fwd", "tau_bwd", "tau_sym", "tau_qsl", "delta_qsl"),
)


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
    half = _quad(times[::2], vals[:, ::2]).tolist()
    return full, {
        i: QuadratureTooCoarseError(f"half-grid check differs by {abs(f - h):.3e} vs {f:.3e}")
        for i, (f, h) in enumerate(zip(full.tolist(), half))
        if abs(f - h) > RICHARDSON_REL_TOL * max(abs(f), 1e-12)
    }


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


@dataclass(frozen=True)
class _Cells:
    """Bound (group 0) and speed-limit (group 1) reports along one trajectory
    over an (alpha, z) grid, as arrays indexed [alpha, z].

    `values` maps each report field of an asked-for group to its floats,
    nan where that group failed. `errors[group]` is an object array of the
    AzqslError that ended each failed cell, None elsewhere, or None for a
    group not asked for. A cell that did not fail carries the trajectory's
    quadrature `flags`, then chain_sign where `chain` is set."""

    values: dict[str, np.ndarray]
    errors: list[np.ndarray | None]
    flags: tuple[str, ...]
    chain: np.ndarray

    def warnings(self, i: int, j: int) -> tuple[str, ...]:
        return self.flags + ((WARN_CHAIN_SIGN,) if self.chain[i, j] else ())


def _endpoint_entropy_grid(
    traj: dyn.Trajectory, rho0: DensityMatrix, alphas: list[float], zs: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """D(rho_t||rho_0) and D(rho_0||rho_t) over the (alpha, z) grid."""
    rho_tau = traj.final_state
    fwd = [ent._renyi_az_values(rho_tau, rho0, alphas, z) for z in zs]
    bwd = [ent._renyi_az_values(rho0, rho_tau, alphas, z) for z in zs]
    return np.array(fwd).T, np.array(bwd).T


def _tau_ratios(d, rhs, tau: float, pending: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """QSL times tau * D / RHS with guards for vanishing rates. A pending
    cell whose entropy diverges, or whose rate integral vanishes under a
    nonzero entropy, gets that error instead and stops pending."""
    stalled = rhs <= ZERO_TOL
    out = np.where(stalled, 0.0, tau * d / rhs)
    diverged = pending & ~np.isfinite(d)
    stalled &= pending & ~diverged & (d > ENTROPY_NOISE_TOL)
    for idx in zip(*np.nonzero(diverged)):
        errors[idx] = SupportViolationError(
            "entropy between the endpoints diverges (support mismatch)")
    for idx in zip(*np.nonzero(stalled)):
        errors[idx] = ZeroSpeedError(
            f"rate integral {rhs[idx]:.3e} vanishes while entropy is {d[idx]:.3e}")
    pending &= ~(diverged | stalled)
    return out


def _trajectory_cells(
    traj: dyn.Trajectory, alphas, zs, bounds: bool = True, qsl: bool = False,
    heads: dict | None = None,
) -> _Cells:
    """Bound and speed-limit reports along one trajectory for a whole
    (alpha, z) grid.

    The endpoint states are validated once, the weighted integrals are taken
    once per alpha (they do not depend on z), and both endpoint entropies
    once per (alpha, z), shared by the two report groups. h and chain_sign
    depend only on the probe's extreme eigenvalues: a `heads` dict keeps
    their tables by probe spectrum for the next trajectory on the same grid.
    The bounds use the Schatten speed; the speed limits use the trajectory's
    summed Kraus rates when it carries them, the Schatten speed otherwise.

    Errors take the precedence of the sequential evaluation: probe state,
    h, I1, I2, final state, entropies, then the speed-limit ratios. The
    arithmetic runs elementwise in the operation order of the scalar
    formulas, so every value keeps its bits.
    """
    alphas = [float(a) for a in alphas]
    zs = [float(z) for z in zs]
    shape = (len(alphas), len(zs))
    kraus = traj.rates is not None
    wanted = [g for g, want in enumerate((bounds, qsl)) if want]
    errors = [np.full(shape, None, dtype=object) if g in wanted else None for g in (0, 1)]
    values = {name: np.full(shape, math.nan) for g in wanted for name in _FIELDS[g]}

    rho0 = _attempt(getattr, traj, "initial_state")
    if isinstance(rho0, AzqslError):
        for g in wanted:
            errors[g].fill(rho0)
        return _Cells(values, errors, (), np.zeros(shape, bool))
    heads = {} if heads is None else heads
    if (rho0.k_min, rho0.k_max) not in heads:
        heads[rho0.k_min, rho0.k_max] = _h_table(rho0, alphas, zs)
    h_a, h_b, chain, h_errors = heads[rho0.k_min, rho0.k_max]
    rate_sets = [traj.speeds] if bounds or not kraus else []
    if qsl and kraus:
        rate_sets.append(traj.rates)
    tables, flags = _weighted_integrals(traj.times, traj.kmins, rate_sets, alphas)
    integrals = (tables[0], tables[-1])
    cells = _Cells(values, errors, flags, chain)

    pending = {}
    for g in wanted:
        ok = pending[g] = np.ones(shape, bool)
        for idx, exc in h_errors.items():
            errors[g][idx], ok[idx] = exc, False
        for _, gate_errors in integrals[g]:  # I1, then I2
            for i, exc in gate_errors.items():
                errors[g][i, ok[i]] = exc
                ok[i] = False
    if not any(ok.any() for ok in pending.values()):
        return cells
    entropies = _attempt(_endpoint_entropy_grid, traj, rho0, alphas, zs)
    if isinstance(entropies, AzqslError):
        for g in wanted:
            errors[g][pending[g]] = entropies
        return cells

    d_fwd, d_bwd = entropies
    d_sym = d_fwd + d_bwd
    a = np.array(alphas)[:, None]
    with np.errstate(all="ignore"):
        for g in wanted:
            (i1, _), (i2, _) = integrals[g]
            rhs_fwd, rhs_bwd = _route_rhs(
                a, h_a, h_b, i1[:, None], i2[:, None], kraus and g == 1)
            rhs_sym = rhs_fwd + rhs_bwd
            if g == 0:
                idle = np.where(np.abs(d_sym) <= ZERO_TOL, 0.0, math.nan)
                delta = np.where(rhs_sym > ZERO_TOL, 1.0 - d_sym / rhs_sym, idle)
                group = (d_fwd, d_bwd, d_sym, rhs_fwd, rhs_bwd, rhs_sym, delta)
            else:
                taus = [
                    _tau_ratios(d, rhs, traj.tau, pending[1], errors[1])
                    for d, rhs in ((d_fwd, rhs_fwd), (d_bwd, rhs_bwd), (d_sym, rhs_sym))
                ]
                # max(tau_fwd, tau_bwd, tau_sym) as Python's max takes it
                tau_qsl = taus[0]
                for later in taus[1:]:
                    tau_qsl = np.where(later > tau_qsl, later, tau_qsl)
                group = (np.full(shape, traj.tau), *taus, tau_qsl, 1.0 - tau_qsl / traj.tau)
            for name, arr in zip(_FIELDS[g], group):
                np.copyto(values[name], arr, where=pending[g])
    return cells


def _single(cells: _Cells, group: int, report):
    """The one cell of a single-point grid as a `report`, raising its error."""
    exc = cells.errors[group][0, 0]
    if exc is not None:
        try:
            raise exc
        finally:
            # this frame is on the error's traceback: drop its references
            # to the error so the two do not form a cycle
            exc = cells = None
    values = {name: float(cells.values[name][0, 0]) for name in _FIELDS[group]}
    return report(**values, warnings=cells.warnings(0, 0))


def integrate_bounds(traj: dyn.Trajectory, p: EntropyParams) -> BoundReport:
    """Evaluate the three entropy bounds along a trajectory.

    The symmetrized relative error compares the symmetrized entropy to its
    integrated bound; 0 means saturation, 1 means the entropy is negligible
    against the rate integral.
    """
    return _single(_trajectory_cells(traj, [p.alpha], [p.z]), 0, BoundReport)


def qsl_general(traj: dyn.Trajectory, p: EntropyParams) -> QSLReport:
    """Speed-limit times along a sampled trajectory.

    A trajectory that carries its summed Kraus rates ||K_l rho_0 dK_l†/dt||_1
    uses them in place of the Schatten speed (they bound speed/2 from above,
    so these times never exceed the Schatten-speed ones); any other uses the
    Schatten speed."""
    # no local for the cells: they keep the raised error, whose traceback
    # holds this frame and its trajectory
    return _single(
        _trajectory_cells(traj, [p.alpha], [p.z], bounds=False, qsl=True), 1, QSLReport)


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
