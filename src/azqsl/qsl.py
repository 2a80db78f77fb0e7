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
) -> list[float | QuadratureTooCoarseError]:
    """Integrate each row of `vals` and cross-check it against the half grid
    when both grids admit the same rule; a row whose relative disagreement
    exceeds tolerance gets the error that rejects it instead of a value."""
    full = _quad(times, vals).tolist()
    n = len(times) - 1
    if not (gate and n % 4 == 0 and n >= 8):
        return full
    half = _quad(times[::2], vals[:, ::2]).tolist()
    return [
        QuadratureTooCoarseError(f"half-grid check differs by {abs(f - h):.3e} vs {f:.3e}")
        if abs(f - h) > RICHARDSON_REL_TOL * max(abs(f), 1e-12) else f
        for f, h in zip(full, half)
    ]


def _clamped_kmins(kmins: np.ndarray) -> tuple[np.ndarray, bool]:
    clamped = bool(np.any(kmins < KMIN_CLAMP))
    return np.maximum(kmins, KMIN_CLAMP), clamped


def _h_pair(rho0: DensityMatrix, p: EntropyParams) -> tuple[float, float, tuple[str, ...]]:
    h_a = h_func(rho0, p)
    h_b = h_func(rho0, p.swapped)
    warns: tuple[str, ...] = ()
    if chain_sign_negative(rho0, p.alpha) or chain_sign_negative(rho0, 1.0 - p.alpha):
        warns = (WARN_CHAIN_SIGN,)
    return h_a, h_b, warns


def _endpoint_entropies(
    rho0: DensityMatrix, rho_tau: DensityMatrix, p: EntropyParams
) -> tuple[float, float, float]:
    d_fwd = ent.renyi_az(rho_tau, rho0, p)
    d_bwd = ent.renyi_az(rho0, rho_tau, p)
    return d_fwd, d_bwd, d_fwd + d_bwd


def _weighted_integrals(
    times: np.ndarray, kmins: np.ndarray, rate_sets: list[np.ndarray], alphas: list[float]
) -> tuple[list[tuple[list, list]], tuple[str, ...]]:
    """Integrals I1 of k_min^(alpha-1) and I2 of k_min^(-alpha) against each
    rate, for every alpha: one (I1 list, I2 list) pair per rate set, each
    entry a value or the gate error that rejected it.

    When k_min dips toward zero along the trajectory (amplitude damping at
    late times, zero crossings of the decoherence amplitude) the negative
    powers spike and the right-hand sides blow up: the bound is then loose
    by construction, the half-grid gate is meaningless, and the result is
    flagged instead of rejected.
    """
    kc, clamped = _clamped_kmins(kmins)
    loose = bool(float(kmins.min()) < LOOSE_KMIN_TOL)
    a = np.asarray(alphas)[:, None]
    w1 = kc ** (a - 1.0)
    w2 = kc ** (-a)
    tables = [
        (_gated_quads(times, w1 * rates, not loose), _gated_quads(times, w2 * rates, not loose))
        for rates in rate_sets
    ]
    warns: tuple[str, ...] = ()
    if clamped:
        warns += (WARN_KMIN_CLAMPED,)
    if loose:
        warns += (WARN_LOOSE_BOUND,)
    return tables, warns


def _route_rhs(
    a: float, h_a: float, h_b: float, i1: float, i2: float, kraus: bool
) -> tuple[float, float]:
    """Forward and swapped right-hand sides of one route. Each formula keeps
    its own operation order: another order moves the last bits of the
    outputs."""
    if kraus:
        return 2.0 * a * h_a * i1 / abs(1.0 - a), 2.0 * h_b * i2
    return a * h_a / abs(1.0 - a) * i1, h_b * i2


def _bound_report(
    d_fwd: float, d_bwd: float, rhs_fwd: float, rhs_bwd: float, warnings: tuple[str, ...]
) -> BoundReport:
    d_sym = d_fwd + d_bwd
    rhs_sym = rhs_fwd + rhs_bwd
    if rhs_sym > ZERO_TOL:
        delta = 1.0 - d_sym / rhs_sym
    else:
        delta = 0.0 if abs(d_sym) <= ZERO_TOL else math.nan
    return BoundReport(
        d_fwd=d_fwd,
        d_bwd=d_bwd,
        d_sym=d_sym,
        rhs_fwd=rhs_fwd,
        rhs_bwd=rhs_bwd,
        rhs_sym=rhs_sym,
        delta_bound=delta,
        warnings=warnings,
    )


def _attempt(fn, *args):
    """fn(*args), or the AzqslError it raised, without its traceback.

    A kept error's traceback frames link back to the frame that keeps the
    error, a reference cycle that would hold the trajectory and its arrays
    alive until the next garbage collection."""
    try:
        return fn(*args)
    except AzqslError as exc:
        return exc.with_traceback(None)


def _endpoint_entropy_grid(
    traj: dyn.Trajectory, rho0: DensityMatrix, alphas: list[float], zs: list[float]
) -> list[tuple[list[float], list[float]]]:
    """(D(rho_t||rho_0), D(rho_0||rho_t)) over the alpha grid, per z."""
    rho_tau = traj.final_state
    return [
        (ent._renyi_az_values(rho_tau, rho0, alphas, z),
         ent._renyi_az_values(rho0, rho_tau, alphas, z))
        for z in zs
    ]


def _trajectory_reports(
    traj: dyn.Trajectory,
    alphas,
    zs,
    bounds: bool = True,
    qsl: bool = False,
    terms: np.ndarray | None = None,
) -> tuple[list[list], list[list]]:
    """Bound and speed-limit reports along one trajectory for a whole
    (alpha, z) grid.

    The endpoint states are validated once, the weighted integrals are taken
    once per alpha (they do not depend on z), and both endpoint entropies
    once per (alpha, z), shared by the two report groups. The bounds use the
    Schatten speed; the speed limits use the summed Kraus rates `terms` when
    given, the Schatten speed otherwise.

    Returns (bound reports, speed-limit reports), each indexed [alpha][z].
    An entry is the report, the AzqslError that ended it, or None when its
    group was not asked for. Errors take the precedence of the sequential
    evaluation: probe state, h, I1, I2, final state, entropies, then the
    speed-limit ratios.
    """
    alphas = [float(a) for a in alphas]
    zs = [float(z) for z in zs]
    kraus = terms is not None
    wanted = (bounds, qsl)
    out = tuple([[None] * len(zs) for _ in alphas] for _ in wanted)

    def fail(i: int, j: int, exc: AzqslError) -> None:
        for g in (0, 1):
            if wanted[g]:
                out[g][i][j] = exc

    rho0 = _attempt(getattr, traj, "initial_state")
    if isinstance(rho0, AzqslError):
        for i in range(len(alphas)):
            for j in range(len(zs)):
                fail(i, j, rho0)
        return out
    rate_sets = [traj.speeds] if bounds or not kraus else []
    if qsl and kraus:
        rate_sets.append(terms)
    tables, clamp_warns = _weighted_integrals(traj.times, traj.kmins, rate_sets, alphas)
    integrals = (tables[0], tables[-1])

    pending = []
    for i, a in enumerate(alphas):
        for j, z in enumerate(zs):
            head = _attempt(_h_pair, rho0, EntropyParams(a, z))
            if isinstance(head, AzqslError):
                fail(i, j, head)
                continue
            h_a, h_b, chain = head
            for g in (0, 1):
                if not wanted[g]:
                    continue
                i1, i2 = integrals[g][0][i], integrals[g][1][i]
                for step in (i1, i2):
                    if isinstance(step, AzqslError):
                        out[g][i][j] = step
                        break
                else:
                    pending.append((g, i, j, h_a, h_b, i1, i2, clamp_warns + chain))
    if not pending:
        return out

    entropies = _attempt(_endpoint_entropy_grid, traj, rho0, alphas, zs)
    if isinstance(entropies, AzqslError):
        for g, i, j, *_ in pending:
            out[g][i][j] = entropies
        return out
    for g, i, j, h_a, h_b, i1, i2, warns in pending:
        a = alphas[i]
        d_fwd, d_bwd = entropies[j][0][i], entropies[j][1][i]
        den_fwd, den_bwd = _route_rhs(a, h_a, h_b, i1, i2, kraus and g == 1)
        if g == 0:
            out[0][i][j] = _bound_report(d_fwd, d_bwd, den_fwd, den_bwd, warns)
            continue
        out[1][i][j] = _attempt(
            _qsl_from_integrals,
            traj.tau, d_fwd, d_bwd, d_fwd + d_bwd, den_fwd, den_bwd, den_fwd + den_bwd, warns,
        )
    return out


def _single(reports: list[list]):
    """The one entry of a single-point report grid, raising its error."""
    value = reports[0][0]
    if isinstance(value, AzqslError):
        try:
            raise value
        finally:
            # this frame is on the error's traceback: drop its references
            # to the error so the two do not form a cycle
            value = reports = None
    return value


def integrate_bounds(traj: dyn.Trajectory, p: EntropyParams) -> BoundReport:
    """Evaluate the three entropy bounds along a trajectory.

    The symmetrized relative error compares the symmetrized entropy to its
    integrated bound; 0 means saturation, 1 means the entropy is negligible
    against the rate integral.
    """
    return _single(_trajectory_reports(traj, [p.alpha], [p.z])[0])


def _tau_ratio(d: float, rhs: float, tau: float) -> float:
    """QSL time tau * D / RHS with guards for vanishing rates."""
    if not math.isfinite(d):
        raise SupportViolationError(
            "entropy between the endpoints diverges (support mismatch)"
        )
    if rhs <= ZERO_TOL:
        if d > ENTROPY_NOISE_TOL:
            raise ZeroSpeedError(
                f"rate integral {rhs:.3e} vanishes while entropy is {d:.3e}"
            )
        return 0.0
    return tau * d / rhs


def _qsl_from_integrals(
    tau: float,
    d_fwd: float,
    d_bwd: float,
    d_sym: float,
    den_fwd: float,
    den_bwd: float,
    den_sym: float,
    warnings: tuple[str, ...],
) -> QSLReport:
    tau_fwd = _tau_ratio(d_fwd, den_fwd, tau)
    tau_bwd = _tau_ratio(d_bwd, den_bwd, tau)
    tau_sym = _tau_ratio(d_sym, den_sym, tau)
    tau_qsl = max(tau_fwd, tau_bwd, tau_sym)
    delta = 1.0 - tau_qsl / tau
    return QSLReport(
        tau=tau,
        tau_fwd=tau_fwd,
        tau_bwd=tau_bwd,
        tau_sym=tau_sym,
        tau_qsl=tau_qsl,
        delta_qsl=delta,
        warnings=warnings,
    )


def qsl_general(traj: dyn.Trajectory, p: EntropyParams) -> QSLReport:
    """Speed-limit times from the Schatten speed of the sampled trajectory."""
    return _single(_trajectory_reports(traj, [p.alpha], [p.z], bounds=False, qsl=True)[1])


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
    h_a, h_b, warns = _h_pair(rho0, p)
    a = p.alpha
    k = rho0.k_min
    d_fwd, d_bwd, d_sym = _endpoint_entropies(rho0, rho_tau, p)
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
        warnings=warns,
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


def nonunitary_qsl_from_terms(
    traj: dyn.Trajectory, term_sums: np.ndarray, p: EntropyParams
) -> QSLReport:
    """Speed limits with the summed Kraus rate ||K_l rho_0 dK_l†/dt||_1 in
    place of the Schatten speed (an upper bound on speed/2, so these times
    never exceed the general ones)."""
    return _single(
        _trajectory_reports(traj, [p.alpha], [p.z], bounds=False, qsl=True, terms=term_sums)[1]
    )


def qsl_nonunitary(
    fam: dyn.KrausFamily,
    rho0: DensityMatrix,
    tau: float,
    p: EntropyParams,
    n_steps: int = 1001,
) -> QSLReport:
    """Evolve the channel and evaluate the Kraus-rate speed limits."""
    traj, term_sums = dyn._evolve_kraus(fam, rho0, tau, n_steps, terms=True)
    return nonunitary_qsl_from_terms(traj, term_sums, p)


def normalize_series(values) -> np.ndarray:
    """Affine rescale of a series onto [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DegenerateRangeError("need at least two values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-15:
        raise DegenerateRangeError(f"range {hi - lo:.3e} too small to normalize")
    return (arr - lo) / (hi - lo)
