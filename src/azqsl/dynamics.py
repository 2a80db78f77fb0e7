"""Dynamics models producing time-sampled trajectories with analytic
derivatives: unitary evolution under a fixed Hamiltonian, generic
time-dependent Kraus families, a single-qubit depolarizing channel, and the
two-qubit amplitude-damping channel with independent reservoirs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import (
    AzqslError,
    CompletenessViolationError,
    DimMismatchError,
    InvalidParamsError,
    InvalidStateError,
    NotHermitianError,
    _attempt,
)
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-9

# Floor keeping the per-operator depolarizing derivative finite at t = 0;
# the products K rho dK† it enters are continuous there, so clamping the
# evaluation point changes them only at O(t_floor).
DEPOLARIZING_T_FLOOR = 1e-9

# Below this, 1 - gamma^2 is evaluated by its t -> 0 series instead of
# directly (catastrophic cancellation near gamma = 1).
_AD_SERIES_TOL = 1e-12


class HamiltonianModel:
    """Time-independent Hamiltonian, optionally built in qubit form n·sigma."""

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if not np.all(np.isfinite(mat)):
            raise InvalidParamsError("Hamiltonian has a non-finite entry")
        if linalg.asymmetry(mat) > linalg.HERMITIAN_TOL:
            raise NotHermitianError(
                f"Hamiltonian asymmetry {linalg.asymmetry(mat):.3e}"
            )
        self.mat = linalg.hermitian_part(mat)

    @classmethod
    def qubit(cls, n: Sequence[float]) -> "HamiltonianModel":
        n = np.asarray(n, dtype=float)
        if not np.all(np.isfinite(n)):
            raise InvalidParamsError(f"field vector must be finite, got {n}")
        mat = n[0] * linalg.SIGMA_X + n[1] * linalg.SIGMA_Y + n[2] * linalg.SIGMA_Z
        return cls(mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DepolarizingParams:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise InvalidParamsError(f"damping rate must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class AmplitudeDampingParams:
    lam: float
    s: float
    markovian: bool = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise InvalidParamsError(f"spectral width must be positive and finite, got {self.lam}")
        if not 0.0 <= self.s < math.inf:
            raise InvalidParamsError(f"regime parameter must be >= 0 and finite, got {self.s}")
        object.__setattr__(self, "markovian", self.s <= 0.5)


def _decoherence_pair(t, lam: float, s: float):
    """(gamma_t, d gamma_t/dt) from one exp(-x) and one sin or sinh of x q.
    Each value keeps the operation order of its own closed form."""
    x = lam * np.asarray(t, dtype=float) / 2.0
    damp = np.exp(-x)
    if abs(s - 0.5) < 1e-9:
        return damp * (1.0 + x), -(lam / 2.0) * x * damp
    if s < 0.5:
        q = np.sqrt(1.0 - 2.0 * s)
        even, odd = np.cosh(x * q), np.sinh(x * q)
    else:
        q = np.sqrt(2.0 * s - 1.0)
        even, odd = np.cos(x * q), np.sin(x * q)
    return damp * (even + odd / q), -(lam * s / q) * damp * odd


def decoherence_gamma(t, lam: float, s: float):
    """Resonant-regime decoherence amplitude.

    Decays monotonically for s <= 1/2 and oscillates for s > 1/2; the
    s = 1/2 degeneracy is handled by its closed limit on |s - 1/2| < 1e-9.
    Accepts scalars or arrays of times.
    """
    return _decoherence_pair(t, lam, s)[0]


def decoherence_gamma_dt(t, lam: float, s: float):
    """Time derivative of decoherence_gamma."""
    return _decoherence_pair(t, lam, s)[1]


class _Gathered(NamedTuple):
    """A sparse operator stack, held by its entries that can be nonzero at
    some sample, one per (operator, row, column), in that order: the values
    of each, shape (n_entries, n_times), and its operator, row and column,
    each (n_entries,)."""

    values: np.ndarray
    ops: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


class _Pair(NamedTuple):
    """What a trajectory reads from a family: the gathered (K, dK) pair; the
    samples at which the pair is regularized (sampled away from the exact
    time); and the exact-time operators at those samples, gathered, None
    when there are none."""

    K: _Gathered
    dK: _Gathered
    regularized: np.ndarray
    exact: _Gathered | None


class KrausFamily:
    """Time-dependent Kraus family {K_l(t)} with derivatives {dK_l/dt}.

    A user family is read through its batched dense stacks: `op_stacks` for
    the operators at the exact sampled times and `stacks` for the
    consistent (K, dK) pair that derivative products use. It gives per-time
    functions `ops_fn(t)` and `dops_fn(t)`, each returning n_ops (dim, dim)
    matrices: the operators and their analytic derivatives. Trajectories
    and `apply_channel` read every family gathered (`_Gathered`), a user
    family's stacks through `_gather`. The built-in channels, and other
    subclasses that override the stacks, pass `ops_fn=None, dops_fn=None`;
    the built-ins hand out their stacks already gathered from their closed
    forms, and their dense `op_stacks` and `stacks` scatter those values.
    Every call returns new arrays, which trajectories overwrite.
    """

    def __init__(
        self,
        dim: int,
        n_ops: int,
        ops_fn: Callable[[float], Sequence[np.ndarray]] | None,
        dops_fn: Callable[[float], Sequence[np.ndarray]] | None,
    ):
        self.dim = dim
        self.n_ops = n_ops
        self._ops_fn = ops_fn
        self._dops_fn = dops_fn

    def _per_time(self, fn, times: np.ndarray) -> np.ndarray:
        out = np.empty((len(times), self.n_ops, self.dim, self.dim), dtype=complex)
        for i, t in enumerate(times):
            out[i] = [np.asarray(k, dtype=complex) for k in fn(float(t))]
        return out

    def op_stacks(self, times: np.ndarray) -> np.ndarray:
        """Operators at the exact sampled times, shape (n_times, n_ops, dim, dim).

        Used to build states; never regularized."""
        return self._per_time(self._ops_fn, np.asarray(times, dtype=float))

    def stacks(self, times: np.ndarray):
        """Consistent (K, dK) pair for derivative products.

        Products like K rho dK† may have finite limits where each factor is
        separately singular or vanishing; channels with such points sample
        both factors at the same regularized time."""
        times = np.asarray(times, dtype=float)
        return self.op_stacks(times), self._per_time(self._dops_fn, times)

    def _exact_ops(self, times: np.ndarray) -> _Gathered:
        """The exact-time operators that `apply_channel` reads."""
        return _gather(self.op_stacks(times))

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        """The pair that `evolve_kraus` reads. The pair of `stacks` is
        sampled at the exact times, so no sample is regularized."""
        K, dK = self.stacks(times)
        return _Pair(_gather(K), _gather(dK), np.zeros(len(times), dtype=bool), None)


class _ClosedFormFamily(KrausFamily):
    """A built-in channel. Its `_exact_ops` and `_trajectory_pair` gather
    the operators straight from their closed forms, and its dense stacks
    are the scatter of those values."""

    def op_stacks(self, times: np.ndarray) -> np.ndarray:
        return _scatter(self._exact_ops(np.asarray(times, dtype=float)), self.n_ops, self.dim)

    def stacks(self, times: np.ndarray):
        K, dK, _, _ = self._trajectory_pair(np.asarray(times, dtype=float))
        return _scatter(K, self.n_ops, self.dim), _scatter(dK, self.n_ops, self.dim)


# I, sigma_x, sigma_y, sigma_z gathered: every row of each holds one
# nonzero; its column, shape (4, 2), and its entry
_DEPOLARIZING_BASIS = np.stack([np.eye(2, dtype=complex), *linalg.PAULIS])
_DEPOLARIZING_COLUMNS = np.abs(_DEPOLARIZING_BASIS).argmax(axis=2)
_DEPOLARIZING_ENTRIES = np.take_along_axis(
    _DEPOLARIZING_BASIS, _DEPOLARIZING_COLUMNS[..., None], axis=2
)[..., 0]
_DEPOLARIZING_OPS, _DEPOLARIZING_ROWS = np.divmod(np.arange(8), 2)


class DepolarizingFamily(_ClosedFormFamily):
    """K_0 = (1/2) sqrt(1 + 3 e^(-G t)) I and K_j = (1/2) sqrt(1 - e^(-G t)) sigma_j.

    The per-operator derivative of K_{1,2,3} diverges like (1 - e^(-G t))^(-1/2)
    at t = 0, so the (K, dK) pair is evaluated at t clamped to t_floor.
    """

    def __init__(self, params: DepolarizingParams):
        self.params = params
        super().__init__(dim=2, n_ops=4, ops_fn=None, dops_fn=None)

    @staticmethod
    def _scaled_basis(identity: np.ndarray, pauli: np.ndarray) -> _Gathered:
        """c_0 I and c sigma_j for j = 1, 2, 3 from the coefficients c_0 and
        c of each sample."""
        coefs = np.stack([identity, pauli, pauli, pauli])
        values = coefs[:, None, :] * _DEPOLARIZING_ENTRIES[:, :, None]
        return _Gathered(values.reshape(8, -1), _DEPOLARIZING_OPS, _DEPOLARIZING_ROWS,
                         _DEPOLARIZING_COLUMNS.ravel())

    def _ops_at(self, e: np.ndarray) -> _Gathered:
        """The operators where e^(-G t) is e."""
        return self._scaled_basis(0.5 * np.sqrt(1.0 + 3.0 * e),
                                  0.5 * np.sqrt(np.maximum(1.0 - e, 0.0)))

    def _exact_ops(self, times: np.ndarray) -> _Gathered:
        return self._ops_at(np.exp(-self.params.gamma * times))

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        # K and dK must be sampled at the same clamped time: the products
        # K_j rho dK_j† have a finite t -> 0 limit only because the sqrt(t)
        # zero of K_j cancels the 1/sqrt(t) pole of dK_j. The operators are
        # elementwise in time, so the pair's K is the exact-time one outside
        # the clamped samples.
        g = self.params.gamma
        tc = np.maximum(times, DEPOLARIZING_T_FLOOR / g)
        clamped = tc != times
        e = np.exp(-g * tc)
        dK = self._scaled_basis(-(3.0 * g * e / 4.0) / np.sqrt(1.0 + 3.0 * e),
                                (g * e / 4.0) / np.sqrt(1.0 - e))
        return _Pair(self._ops_at(e), dK, clamped, self._exact_ops(times[clamped]))


# (a, i, j) for the support of the single-qubit S_1 = diag(1, gamma) and
# S_2 = sqrt(1 - gamma^2) |0><1|, which also holds that of their derivatives.
# Operator 2a + b is S_a ⊗ S_b, whose entry (2i + k, 2j + l) is
# S_a[i, j] S_b[k, l]: the operator, row and column of each product of two
# support entries, in (operator, row) order, and its factors _AD_FIRST and
# _AD_SECOND.
_AD_SUPPORT = np.array([(0, 0, 0), (0, 1, 1), (1, 0, 1)])
_AD_OPS, _AD_ROWS, _AD_COLS, _AD_FIRST, _AD_SECOND = np.array(sorted(
    (*(2 * _AD_SUPPORT[a] + _AD_SUPPORT[b]), a, b) for a in range(3) for b in range(3)
)).T


class AmplitudeDampingFamily(_ClosedFormFamily):
    """Two-qubit product family K_j ⊗ K_l from the single-qubit pair

        K_1 = |0><0| + gamma_t |1><1|,   K_2 = sqrt(1 - gamma_t^2) |0><1|,

    with product-rule derivatives. Near t = 0 the derivative of
    sqrt(1 - gamma^2) is an indeterminate 0/0 whose limit is lam sqrt(s/2);
    that branch is taken whenever 1 - gamma^2 falls below the series
    threshold."""

    def __init__(self, params: AmplitudeDampingParams):
        self.params = params
        super().__init__(dim=4, n_ops=4, ops_fn=None, dops_fn=None)

    def _pair_stacks(self, times: np.ndarray):
        """(S, dS), shape (3, n_times): the entries of the single-qubit K_1,
        K_2 on `_AD_SUPPORT` and their derivatives, as complex numbers."""
        lam, s = self.params.lam, self.params.s
        g, dg = _decoherence_pair(times, lam, s)
        one_m_g2 = np.maximum(1.0 - g * g, 0.0)
        e2 = np.sqrt(one_m_g2)
        safe = np.where(one_m_g2 > _AD_SERIES_TOL, e2, 1.0)
        de2 = np.where(one_m_g2 > _AD_SERIES_TOL, -g * dg / safe, lam * np.sqrt(s / 2.0))
        S = np.zeros((3, len(times)), dtype=complex)
        S[0] = 1.0
        S[1] = g
        S[2] = e2
        dS = np.zeros_like(S)
        dS[1] = dg
        dS[2] = de2
        return S, dS

    def _exact_ops(self, times: np.ndarray) -> _Gathered:
        return self._trajectory_pair(times).K

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        S, dS = self._pair_stacks(times)
        a, b = S[_AD_FIRST], S[_AD_SECOND]
        # complex factors keep the signed zeros of the dense Kronecker
        # entries: the product of two negative reals has imaginary part -0
        K = _Gathered(a * b, _AD_OPS, _AD_ROWS, _AD_COLS)
        dK = _Gathered(dS[_AD_FIRST] * b + a * dS[_AD_SECOND], _AD_OPS, _AD_ROWS, _AD_COLS)
        return _Pair(K, dK, np.zeros(len(times), dtype=bool), None)


def depolarizing_family(params: DepolarizingParams) -> DepolarizingFamily:
    return DepolarizingFamily(params)


def amplitude_damping_family(params: AmplitudeDampingParams) -> AmplitudeDampingFamily:
    return AmplitudeDampingFamily(params)


@dataclass
class Trajectory:
    """Time-sampled evolution: states rho_t, Schatten speeds ||drho/dt||_1,
    the smallest eigenvalue of each sample and, for a Kraus channel evolved
    with them, the summed Kraus rates sum_l ||K_l rho_0 dK_l†/dt||_1.

    The times start at 0, increase strictly and end finite (so none is
    NaN or infinite), else InvalidParamsError.
    The states hold one (dim, dim) matrix per sample, and speeds, k_min
    values and rates one finite, non-negative value per sample; anything
    else raises InvalidStateError."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim)
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None = None

    def __post_init__(self):
        _check_times(self.times)
        shape = self.states.shape
        if len(shape) != 3 or shape[0] != len(self.times) or shape[1] != shape[2]:
            raise InvalidStateError(f"{shape} states for {len(self.times)} samples")
        deviations = _state_deviations(*_entries(self.states), shape[1])
        drift, asym = (float(np.max(x)) for x in deviations)
        if not drift <= TRACE_DRIFT_TOL:
            raise InvalidStateError(f"trace drift {drift:.3e} along trajectory")
        if not asym <= linalg.HERMITIAN_TOL:
            raise InvalidStateError(f"non-Hermitian sample, asymmetry {asym:.3e}")
        if self.speeds.shape != self.times.shape:
            raise InvalidStateError(f"{self.speeds.shape} speeds for {len(self.times)} samples")
        if not np.all(np.isfinite(self.speeds)):
            raise InvalidStateError("non-finite Schatten speed")
        if np.any(self.speeds < 0):
            raise InvalidStateError("negative Schatten speed")
        if self.kmins.shape != self.times.shape:
            raise InvalidStateError(f"{self.kmins.shape} k_min values for {len(self.times)} samples")
        if not np.all(np.isfinite(self.kmins)):
            raise InvalidStateError("non-finite k_min")
        if np.any(self.kmins < 0):
            raise InvalidStateError("negative k_min")
        if self.rates is not None and self.rates.shape != self.times.shape:
            raise InvalidStateError(f"{self.rates.shape} rates for {len(self.times)} samples")
        if self.rates is not None and not np.all(np.isfinite(self.rates)):
            raise InvalidStateError("non-finite Kraus rate")
        if self.rates is not None and np.any(self.rates < 0):
            raise InvalidStateError("negative Kraus rate")

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def state(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.states[i])

    @cached_property
    def initial_state(self) -> DensityMatrix:
        """Validated once, then reused."""
        return self.state(0)

    @cached_property
    def final_state(self) -> DensityMatrix:
        """Validated once, then reused."""
        return self.state(-1)


def _check_times(times: np.ndarray) -> None:
    # a step is positive, not merely not <= 0: a NaN step fails it
    if (not len(times) or times[0] != 0.0 or not np.all(np.diff(times) > 0)
            or not math.isfinite(times[-1])):
        raise InvalidParamsError("times must start at 0 and increase strictly")


def _state_deviations(positions: np.ndarray, values: np.ndarray, dim: int):
    """Per sample of a state given by its flat positions and entry-major
    values (every other entry +0), |Tr rho - 1| and the largest entry of
    |rho - rho†|, NaN where one is NaN. The trace sums the diagonal in index
    order from +0; an absent entry adds nothing, as +0 would. Entries (i, j)
    and (j, i) of |rho - rho†| are equal, so the upper triangle is read, one
    entry at a time (a reduction over a few entries per sample is slower);
    against an absent mirror entry the deviation is |rho_ij| itself."""
    slot = np.full(dim * dim, -1)
    slot[positions] = np.arange(len(positions))
    trace = np.zeros(values.shape[1], dtype=complex)
    for k in slot[::dim + 1]:
        if k >= 0:
            trace += values[k]
    asym = np.zeros(values.shape[1])
    for i in range(dim):
        for j in range(i, dim):
            a, b = slot[i * dim + j], slot[j * dim + i]
            if a >= 0 and b >= 0:
                np.maximum(asym, np.abs(values[a] - np.conj(values[b])), out=asym)
            elif max(a, b) >= 0:
                np.maximum(asym, np.abs(values[max(a, b)]), out=asym)
    return np.abs(trace - 1.0), asym


def _failing_samples(samples: _Samples, dim: int) -> np.ndarray:
    """Per sample, whether it fails a `Trajectory` check: samples that all
    pass them pass the checks together."""
    drift, asym = _state_deviations(*samples.state, dim)
    ok = (drift <= TRACE_DRIFT_TOL) & (asym <= linalg.HERMITIAN_TOL)
    speeds, kmins, rates = samples[1:]
    for values in (speeds, kmins) if rates is None else (speeds, kmins, rates):
        ok &= np.isfinite(values) & ~(values < 0)
    return ~ok


def _batch_kmin(state: tuple, dim: int) -> np.ndarray:
    """Smallest eigenvalue of each sample of a state given by its entries,
    from the entries of its lower triangle (`linalg._sample_spectra`, as
    `linalg.min_eigenvalues` reads a dense stack), clamped at zero; one
    below -1e-10 raises InvalidStateError."""
    positions, values = state
    lower = positions % dim <= positions // dim
    vals = linalg._sample_spectra(positions[lower], values[lower], dim, dim, hermitian=True)
    if float(vals.min()) < -1e-10:
        raise InvalidStateError(f"sample eigenvalue {vals.min():.3e} below -1e-10")
    return np.maximum(vals, 0.0)


def _time_grid(tau: float, n_steps: int) -> np.ndarray:
    if n_steps < 2:
        raise InvalidParamsError(f"need at least 2 samples, got {n_steps}")
    if not 0.0 < tau < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {tau}")
    return np.linspace(0.0, tau, n_steps)


def evolve_unitary(
    h: HamiltonianModel, rho0: DensityMatrix, tau: float, n_steps: int = 1001
) -> Trajectory:
    """rho_t = U_t rho_0 U_t† with U_t = e^(-i t H).

    The spectrum is invariant along the orbit, and the Schatten speed
    ||-i[H, rho_t]||_1 is time-constant; both are still computed per sample
    as a consistency check, by `linalg._sample_spectra`: a sample with a
    zero entry, such as the zero commutator of an eigenstate probe, is
    evaluated again on its own pattern. The samples are evaluated in one
    run, as a sweep's runs evaluate them (`_outcomes`), without its
    store."""
    return _evolve(h, rho0, tau, n_steps, rates=False)


def _unitary_sampler(h: HamiltonianModel, rho0: DensityMatrix):
    """The per-sample work of `evolve_unitary` on a run of sample times."""
    w, v = linalg.eigh(h.mat)

    def sample(times: np.ndarray) -> _Samples:
        phases = np.exp(-1j * np.outer(times, w))
        u = np.einsum("ab,tb,cb->tac", v, phases, v.conj())
        states = np.einsum("tab,bc,tdc->tad", u, rho0.mat, u.conj())
        states = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
        comm = h.mat[None] @ states - states @ h.mat[None]
        dstates = -1j * comm
        dstates = (dstates + np.conj(np.swapaxes(dstates, 1, 2))) / 2
        speeds = _schatten_speeds(_entries(dstates), h.dim)
        state = _entries(states)
        return _Samples(state, speeds, _batch_kmin(state, h.dim), None)

    return sample


def energy_fluctuation(h: HamiltonianModel, rho0: DensityMatrix) -> float:
    """Delta H = sqrt(Tr(rho H^2) - Tr(rho H)^2), clipped at zero."""
    if h.dim != rho0.dim:
        raise DimMismatchError(f"H dim {h.dim} vs state dim {rho0.dim}")
    mean = float(np.real(np.trace(rho0.mat @ h.mat)))
    second = float(np.real(np.trace(rho0.mat @ h.mat @ h.mat)))
    return float(np.sqrt(max(second - mean * mean, 0.0)))


def coherence_measure(h: HamiltonianModel, rho0: DensityMatrix) -> float:
    """-(1/4) Tr([rho_0, H]^2); zero iff rho_0 commutes with H."""
    if h.dim != rho0.dim:
        raise DimMismatchError(f"H dim {h.dim} vs state dim {rho0.dim}")
    comm = rho0.mat @ h.mat - h.mat @ rho0.mat
    return max(float(np.real(-0.25 * np.trace(comm @ comm))), 0.0)


def _check_gathered_completeness(G: _Gathered, dim: int, samples=slice(None)) -> None:
    """Raise CompletenessViolationError unless sum_l K_l†K_l is the
    identity at the samples `samples` of a gathered stack. Entry (c, c')
    sums conj(K_l[i, c]) K_l[i, c'] over the pairs of entries that share
    an operator row (`_gram_pairs`); an entry without pairs is 0. Only the
    largest deviation is read, so the order of the sums is free."""
    x = G.values[:, samples]
    pairs, diagonal, n = _gram_pairs(*(tuple(a.tolist()) for a in (G.ops, G.rows, G.cols)), dim)
    deviation = np.zeros((n, x.shape[1]), dtype=complex)
    for k, left, right in pairs:
        deviation[k] = (np.conj(x[left]) * x[right]).sum(axis=0)
    deviation[diagonal] -= 1.0
    _require_identity(deviation)


@lru_cache(maxsize=256)
def _gram_pairs(ops, rows, cols, dim: int):
    """The entries of K†K that `_check_gathered_completeness` holds, for a
    stack of the entries given as tuples: the flat positions that have
    pairs and the diagonal ones, ascending, n of them. Per position with
    pairs, its index there and the left and right entries (e, f) of its
    pairs, which share an operator row and add to position
    cols[e] dim + cols[f]; and the index of each diagonal position. A
    channel holds the same entries from run to run, so these are cached by
    them; their arrays are shared by every call, so they are read-only."""
    ops, rows, cols = (np.array(a, dtype=np.int64) for a in (ops, rows, cols))
    key = ops * dim + rows
    e, f = np.nonzero(key[:, None] == key)
    slot = cols[e] * dim + cols[f]
    diagonal = np.arange(dim) * (dim + 1)
    held = np.union1d(slot, diagonal)
    pairs = tuple((int(np.searchsorted(held, p)), e[slot == p], f[slot == p])
                  for p in np.unique(slot).tolist())
    diagonal = np.searchsorted(held, diagonal)
    for a in (diagonal, *(a for _, left, right in pairs for a in (left, right))):
        a.setflags(write=False)
    return pairs, diagonal, len(held)


def _require_identity(deviation: np.ndarray) -> None:
    dev = float(np.max(np.abs(deviation), initial=0.0))
    if not dev <= COMPLETENESS_TOL:
        raise CompletenessViolationError(
            f"sum K†K deviates from identity by {dev:.3e}"
        )


# Trajectories form the products X_l rho_0 Y_l† of two operator stacks:
# the states K rho_0 K†, the speeds dK rho_0 K† and the rates K rho_0 dK†.
# Every stack is held gathered (`_Gathered`), one time vector per entry
# that can be nonzero: the built-in channels write their entries straight
# from their closed forms, and `_gather` reads any other family's dense
# stacks. A product is contracted in two stages over a shared index,
# A = X rho_0 and then A Y†, each planned from the entries of its factors
# and the pattern of rho_0 alone (`_plan`); a channel keeps those from run
# to run, so the plans are cached by them. An entry sums its terms in index
# order and takes a one-term sum as that term, with no +0 start; each term
# is rounded as einsum rounds a product (`_cmul`). Sums over operators run
# in operator order from a zero start. The states and rates share
# A = K rho_0; completeness sums cached entry pairs (`_gram_pairs`).
#
# In a monomial stack, with at most one nonzero per operator row and
# column (the built-in channels, the bit-flip file family), every entry of
# A and of a product has one term: entry (i, m) of a product is the single
# triple product (x_i rho_0[c(i), d(m)]) conj(y_m), the arithmetic of the
# three-operand einsum, so no bit moves from it. Other families, such as
# Stinespring dilations, move from it by rounding. An entry that is zero
# at a sample adds exact zeros to that sample's sums, which leave a
# nonzero sum and an operator sum's zero start as they are.
#
# The state of a run is held as entries too, the flat positions where it
# can be nonzero and one time vector per position (every other entry +0),
# the same form as the speed and rate matrices: `_batch_kmin` passes its
# lower triangle to `linalg._sample_spectra` and `_failing_samples` reads
# its trace and asymmetry. Dense stacks are written only where a caller
# reads them: `Trajectory.states`, the end states of a sweep column,
# `apply_channel` and the dense stacks of the built-in channels.
#
# The trajectories of a sweep panel share one store of samples
# (`_outcomes`): the horizons' grids are joined, each distinct sample time
# is evaluated and checked once in runs of n_steps times, and each horizon
# is its rows of the store. The store keeps what `qsl._fill` reads: per
# sample the speed, k_min and rate, and the dense states of the t = 0
# sample and of each horizon's last one, from which `_columns` reads every
# column. This work is elementwise
# in time, and `linalg._sample_spectra` gives each sample the value of its
# own pattern, so a sample gets the same bits in every run it could sit
# in, even where the run gathers entries that are zero at it
# (`TestContractions` pads monomial stacks with zero entries,
# `TestSharedSamples` runs a family that switches permutation). A run
# that fails a check raises as a whole, and each horizon that holds one of
# its samples is evaluated again on its own grid, into its rows of the
# same store; a horizon that holds a sample failing a `Trajectory` check
# takes the error of its own grid's `Trajectory`. So a bad sample fails
# only the horizons that hold it, with the error of their own call.


def _gather(stack: np.ndarray) -> _Gathered:
    """A dense (n_times, n_ops, dim, dim) stack gathered: its entries that
    are nonzero (or NaN) at some sample."""
    ops, rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    return _Gathered(np.moveaxis(stack, 0, -1)[ops, rows, cols], ops, rows, cols)


def _scatter(G: _Gathered, n_ops: int, dim: int) -> np.ndarray:
    """The dense (n_times, n_ops, dim, dim) stack of a gathered one."""
    out = np.zeros((G.values.shape[1], n_ops, dim, dim), dtype=complex)
    out[:, G.ops, G.rows, G.cols] = G.values.T
    return out


def _rho_factor(rho0: DensityMatrix) -> _Gathered:
    """rho_0 as the second factor V of X rho_0 = sum_j X_l[i, j] V[k, j],
    for every operator (`ops` is None): its nonzero entries (j, k), each
    held at (k, j), with values shape (n_entries, 1)."""
    j, k = np.nonzero(rho0.mat)
    return _Gathered(rho0.mat[j, k, None], None, k, j)


class _Plan(NamedTuple):
    """The sums sum_s U_l[i, s] V_l[m, s] of two sparse stacks over their
    shared column index s, planned from their entries: the entries
    (l, i, m) where a sum has a term, in (operator, row, column) order, and
    its terms in rounds. Round r holds the r-th term, in index order of s,
    of the entries `at[r]` that have one, formed from the entries `left[r]`
    of U and `right[r]` of V; round 0 holds the first term of every entry,
    in entry order."""

    ops: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    left: tuple
    right: tuple
    at: tuple


def _plan(U, V) -> _Plan:
    """The `_Plan` of two stacks given by their entries (`ops`, `rows`,
    `cols`); a V whose `ops` is None pairs with every operator. A channel
    holds the same entries from run to run, so plans are cached by them."""
    return _entries_plan(*(None if a is None else tuple(a.tolist())
                           for a in (U.ops, U.rows, U.cols, V.ops, V.rows, V.cols)))


@lru_cache(maxsize=256)
def _entries_plan(u_ops, u_rows, u_cols, v_ops, v_rows, v_cols) -> _Plan:
    """`_plan` of entries given as tuples. Its arrays are shared by every
    call, so they are read-only."""
    u_ops, u_rows, u_cols, v_rows, v_cols = (
        np.array(a, dtype=np.int64) for a in (u_ops, u_rows, u_cols, v_rows, v_cols))
    match = u_cols[:, None] == v_cols
    if v_ops is not None:
        match &= u_ops[:, None] == np.array(v_ops, dtype=np.int64)
    e, f = np.nonzero(match)
    # one integer per (l, i, m), and per term (l, i, m, s)
    n = 1 + max(u_rows.max(initial=0), u_cols.max(initial=0), v_rows.max(initial=0))
    key = (u_ops[e] * n + u_rows[e]) * n + v_rows[f]
    order = np.argsort(key * n + u_cols[e])
    e, f, key = e[order], f[order], key[order]
    first = np.ones(len(e), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    entry = np.cumsum(first) - 1
    rank = np.arange(len(e)) - starts[entry]
    rounds = [rank == r for r in range(1, rank.max(initial=0) + 1)]
    plan = _Plan(u_ops[e[starts]], u_rows[e[starts]], v_rows[f[starts]],
                 (e[first], *(e[r] for r in rounds)), (f[first], *(f[r] for r in rounds)),
                 (np.arange(len(starts)), *(entry[r] for r in rounds)))
    for a in (*plan[:3], *plan.left, *plan.right, *plan.at):
        a.setflags(write=False)
    return plan


def _sums(P: _Plan, U, V: np.ndarray, conj: bool = False):
    """The sums of `P` from the real and imaginary parts `U` of U's values
    and the values of V, or of conj(V) when `conj` is set, as their real
    and imaginary parts, shape (n_entries, n_times): one round of textbook
    products (`linalg._cmul`) at a time, each added to the entry it belongs
    to."""
    (ur, ui), (vr, vi) = U, (V.real, V.imag)
    out_re = out_im = None
    for left, right, at in zip(P.left, P.right, P.at):
        re, im = linalg._cmul(ur[left], ui[left], vr[right], -vi[right] if conj else vi[right])
        if out_re is None:
            out_re, out_im = re, im
        elif len(at) == len(out_re):  # every entry, in order
            out_re += re
            out_im += im
        else:
            out_re[at] += re
            out_im[at] += im
        del re, im  # before the next round's products are formed
    return out_re, out_im


def _products(P: _Plan, XR, Y: _Gathered) -> np.ndarray:
    """X_l rho_0 Y_l† at the entries of `P`, a plan of X rho_0 against Y,
    from the parts `XR` of X rho_0, shape (n_entries, n_times)."""
    return _complex(*_sums(P, XR, Y.values, conj=True))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with the given real and imaginary parts."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _operator_sums(P: _Plan, values: np.ndarray, dim: int):
    """The sum over operators of the products with the given values: the
    flat positions it can be nonzero at, ascending, and its values there,
    shape (n_positions, n_times), each summed in operator order from zero."""
    flat = P.rows * dim + P.cols
    present = np.zeros(dim * dim, dtype=bool)
    present[flat] = True
    sums = np.zeros((np.count_nonzero(present), values.shape[1]), dtype=complex)
    # the entries come in operator order; an operator without a term at a
    # position would add a zero, which leaves a sum started from zero as it is
    for k, term in zip(np.cumsum(present)[flat] - 1, values):
        sums[k] += term
    return np.flatnonzero(present), sums


def _dense(positions: np.ndarray, values: np.ndarray, dim: int) -> np.ndarray:
    """The (n_times, dim, dim) stack with the given entries, zero elsewhere."""
    out = np.zeros((values.shape[1], dim * dim), dtype=complex)
    out[:, positions] = values.T
    return out.reshape(-1, dim, dim)


def _entries(stack: np.ndarray):
    """A dense (n_times, r, c) stack as every flat position and its
    entry-major values there."""
    n, r, c = stack.shape
    return np.arange(r * c), stack.reshape(n, r * c).T


def _plus_adjoint(positions: np.ndarray, values: np.ndarray, dim: int):
    """M + M† for a stack M given by its flat positions and entry-major
    values: the positions where either term can be nonzero, and its values
    there."""
    present = np.zeros((dim, dim), dtype=bool)
    present.flat[positions] = True
    union = np.flatnonzero(present | present.T)
    # the row of M at each position, and a zero row where M has none
    slot = np.full(dim * dim, len(positions))
    slot[positions] = np.arange(len(positions))
    padded = np.concatenate([values, np.zeros((1, values.shape[1]), dtype=complex)])
    i, m = np.divmod(union, dim)
    return union, padded[slot[union]] + np.conj(padded[slot[m * dim + i]])


def _hermitian_sum(P: _Plan, values: np.ndarray, dim: int):
    """(M + M†) / 2 for M the sum over operators of the products with the
    given values: the entries of a state."""
    positions, doubled = _plus_adjoint(*_operator_sums(P, values, dim), dim)
    return positions, doubled / 2


def _state_entries(G: _Gathered, rho0: DensityMatrix):
    """sum_l K_l rho_0 K_l† of a gathered stack, as entries."""
    rho = _rho_factor(rho0)
    R = _plan(G, rho)
    P = _plan(R, G)
    KR = _sums(R, (G.values.real, G.values.imag), rho.values)
    return _hermitian_sum(P, _products(P, KR, G), rho0.dim)


def _replaced(state: tuple, samples: np.ndarray, other: tuple) -> tuple:
    """The entries `state` with the samples where `samples` is set taken
    from the entries `other`, which hold those samples only."""
    (positions, values), (other_positions, other_values) = state, other
    union = np.union1d(positions, other_positions)
    out = np.zeros((len(union), values.shape[1]), dtype=complex)
    out[np.searchsorted(union, positions)] = values
    at = np.flatnonzero(samples)
    out[:, at] = 0.0
    out[np.searchsorted(union, other_positions)[:, None], at] = other_values
    return union, out


def apply_channel(fam: KrausFamily, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Single-time channel output sum_l K_l(t) rho_0 K_l(t)†, after the
    completeness check that `evolve_kraus` makes."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    K = fam._exact_ops(np.array([float(t)]))
    _check_gathered_completeness(K, rho0.dim)
    return DensityMatrix(_dense(*_state_entries(K, rho0), rho0.dim)[0])


def evolve_kraus(
    fam: KrausFamily, rho0: DensityMatrix, tau: float, n_steps: int = 1001, rates: bool = False
) -> Trajectory:
    """Trajectory of rho_t = sum_l K_l(t) rho_0 K_l(t)† with the analytic
    derivative sum_l (dK_l rho_0 K_l† + K_l rho_0 dK_l†), carrying the summed
    Kraus rates sum_l ||K_l rho_0 dK_l†/dt||_1 when `rates` is set.

    Derivative products use the channel's consistent (possibly regularized)
    pair, built and validated once. Its K serves the states too, except at
    the samples where the family regularizes the pair; those states are
    rebuilt from the exact-time operators. The built-in channels hand out
    the pair gathered from their closed forms, so no dense stack is built,
    scanned or compared; a user family's dense pair is gathered. The
    products and the states are formed entry by entry, in two planned
    stages, at the entries that can be nonzero, and the speeds, k_min and
    rates take `linalg._sample_spectra`, which evaluates each matrix's
    blocks on every sample at once and again only where a sample is zero
    at one of its entries. A derivative stack with a NaN or an infinity raises
    InvalidStateError before any product is formed. The samples are
    evaluated in one run, as a sweep's runs evaluate them (`_outcomes`),
    without its store."""
    return _evolve(fam, rho0, tau, n_steps, rates)


def _kraus_sampler(fam: KrausFamily, rho0: DensityMatrix, rates: bool):
    """The per-sample work of `evolve_kraus` on a run of sample times. The
    run raises at the first check it fails, in `evolve_kraus` order, before
    any product is formed."""
    dim = rho0.dim
    rho = _rho_factor(rho0)

    def sample(times: np.ndarray) -> _Samples:
        K, dK, regularized, exact = fam._trajectory_pair(times)
        # the pair's K is the exact-time stack outside the regularized rows
        _check_gathered_completeness(K, dim, slice(None) if rates else ~regularized)
        if regularized.any():
            _check_gathered_completeness(exact, dim)
        if not np.all(np.isfinite(dK.values)):
            raise InvalidStateError("non-finite Kraus derivative along trajectory")
        R, dR = _plan(K, rho), _plan(dK, rho)
        KR = _sums(R, (K.values.real, K.values.imag), rho.values)
        P = _plan(R, K)
        state = _hermitian_sum(P, _products(P, KR, K), dim)
        half = _plan(dR, K)
        dKR = _sums(dR, (dK.values.real, dK.values.imag), rho.values)
        speeds = _schatten_speeds(_plus_adjoint(*_operator_sums(
            half, _products(half, dKR, K), dim), dim), dim)
        del dKR
        if rates:
            P = _plan(R, dK)
            values = _products(P, KR, dK)
            flat = P.rows * dim + P.cols
            # the entries come in operator order: each operator's are a run
            ends = np.searchsorted(P.ops, np.arange(fam.n_ops + 1))
            prods = [(flat[a:b], values[a:b]) for a, b in zip(ends[:-1], ends[1:])]
        del KR
        if regularized.any():
            state = _replaced(state, regularized, _state_entries(exact, rho0))
        rate_sums = _kraus_rates(prods, dim) if rates else None
        return _Samples(state, speeds, _batch_kmin(state, dim), rate_sums)

    return sample


class _Samples(NamedTuple):
    """The per-sample results on a run of sample times: the states as
    entries (flat positions, and entry-major values there; every other
    entry +0), Schatten speeds, k_min, and summed Kraus rates or None."""

    state: tuple
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None


class _SampleStore:
    """What a panel keeps per distinct sample time, as `qsl._fill` reads
    it: the time; the speed, k_min and rate; whether the sample fails a
    `Trajectory` check, found once per sample as it is added; whether the
    sample is missing: no run that holds it has passed; and the dense
    states of the samples `ends` (ascending), the only states a column
    reads: the t = 0 sample and each horizon's last one."""

    def __init__(self, times: np.ndarray, ends: np.ndarray, dim: int):
        n = len(times)
        self.times, self.ends, self.dim = times, ends, dim
        self.speeds, self.kmins, self.rates = np.zeros(n), np.zeros(n), None
        self.end_states = np.zeros((len(ends), dim, dim), dtype=complex)
        self.failing = np.zeros(n, dtype=bool)
        self.missing = np.ones(n, dtype=bool)

    def fill(self, sampler, rows: np.ndarray) -> _Samples | AzqslError:
        """Evaluate the samples `rows` in one run of `sampler`, hold them and
        return them, or return the error the run raised and leave the store
        as it is."""
        samples = _attempt(sampler, self.times[rows])
        if isinstance(samples, AzqslError):
            return samples
        positions, values = samples.state
        at = np.isin(rows, self.ends)
        self.end_states[np.searchsorted(self.ends, rows[at])] = _dense(
            positions, values[:, at], self.dim)
        self.speeds[rows], self.kmins[rows] = samples.speeds, samples.kmins
        if samples.rates is not None:
            if self.rates is None:
                self.rates = np.zeros(len(self.speeds))
            self.rates[rows] = samples.rates
        self.failing[rows] = _failing_samples(samples, self.dim)
        self.missing[rows] = False
        return samples

    def end_state(self, row: int) -> np.ndarray:
        """The dense state of the sample `row`, one of `ends`."""
        return self.end_states[np.searchsorted(self.ends, row)]


def _sampler(model, rho0: DensityMatrix, rates: bool):
    """The per-sample work of `evolve_unitary` (a Hamiltonian) or
    `evolve_kraus` (a Kraus family) from `rho0`."""
    if model.dim != rho0.dim:
        kind = "H" if isinstance(model, HamiltonianModel) else "channel"
        raise DimMismatchError(f"{kind} dim {model.dim} vs state dim {rho0.dim}")
    if isinstance(model, HamiltonianModel):
        return _unitary_sampler(model, rho0)
    return _kraus_sampler(model, rho0, rates)


def _outcomes(model, rho0: DensityMatrix, taus: Sequence[float], n_steps: int, rates: bool):
    """The `_SampleStore` that the horizons of `taus` share, and for each
    horizon, in order, its rows in the store or the AzqslError its
    per-horizon call raises.

    The time grids are joined, and every distinct sample time is evaluated
    once, in runs of `n_steps` times. Every per-sample quantity is
    elementwise in time and `linalg._sample_spectra` gives each sample the
    value of its own pattern, so a sample has the same bits whichever
    horizons hold it; the entries a run's other samples add to a gathered
    stack are zero at it and add only exact zeros. A run that fails a
    check raises as a whole, so each horizon that holds a sample of it is
    evaluated again on its own grid, written into its rows, and gets the
    outcome of its own call. A re-evaluation that raises leaves the store
    as it is, and a horizon whose rows earlier re-evaluations refilled is
    not evaluated again. A horizon that holds a sample failing a
    `Trajectory` check takes its error from the `Trajectory` of its own
    grid's run: its re-evaluation, or else one run of its own; so it runs
    its grid at most once."""
    sampler = _attempt(_sampler, model, rho0, rates)
    if isinstance(sampler, AzqslError):
        return _SampleStore(np.zeros(0), np.zeros(0, dtype=int), rho0.dim), [sampler] * len(taus)
    grids = [_attempt(_time_grid, tau, n_steps) for tau in taus]
    live = [grid for grid in grids if not isinstance(grid, AzqslError)]
    times = np.unique(np.concatenate(live)) if live else np.zeros(0)
    outcomes = [grid if isinstance(grid, AzqslError) else np.searchsorted(times, grid)
                for grid in grids]
    del grids, live
    ends = np.unique(np.array([rows[[0, -1]] for rows in outcomes
                               if not isinstance(rows, AzqslError)], dtype=int))
    store = _SampleStore(times, ends, rho0.dim)
    index = np.arange(len(times))
    for start in range(0, len(times), n_steps):
        store.fill(sampler, index[start:start + n_steps])
    for h, rows in enumerate(outcomes):
        if isinstance(rows, AzqslError):
            continue
        own = store.fill(sampler, rows) if store.missing[rows].any() else None
        if not isinstance(own, AzqslError):
            own = (_attempt(_run_trajectory, sampler, store.times[rows], own, rho0.dim)
                   if store.failing[rows].any() else _attempt(_check_times, store.times[rows]))
        if isinstance(own, AzqslError):
            outcomes[h] = own
    return store, outcomes


class _Columns(NamedTuple):
    """The time columns of a panel as the fill reads them: the samples
    they hold (`times`, `speeds`, `kmins`, and `rates` or None); each
    column's samples, `rows`, an index array into those; the state at
    t = 0 that every column starts from, `probe`, and each column's state
    at its horizon, `finals`, each a DensityMatrix or the error its
    validation raised (`probe` is None when no column holds samples); and
    the AzqslError each column ended in, `errors`, None for a column that
    holds samples (a failed column's rows and final state are None)."""

    times: np.ndarray
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None
    rows: list
    probe: DensityMatrix | AzqslError | None
    finals: list
    errors: list


def _columns(store: _SampleStore, outcomes: list) -> _Columns:
    """The `_Columns` of the store and outcomes of `_outcomes`, without
    building a trajectory: every column reads its rows of the one store
    and its end state there. Every grid starts at t = 0, so every column
    starts from the store's first sample, validated once as the probe
    state; each end state is validated on its own."""
    probe = None
    rows, finals, errors = [], [], []
    for outcome in outcomes:
        failed = isinstance(outcome, AzqslError)
        if not failed and probe is None:
            probe = _attempt(DensityMatrix, store.end_state(0))
        rows.append(None if failed else outcome)
        finals.append(None if failed else _attempt(DensityMatrix, store.end_state(outcome[-1])))
        errors.append(outcome if failed else None)
    return _Columns(store.times, store.speeds, store.kmins, store.rates,
                    rows, probe, finals, errors)


def _evolve(model, rho0: DensityMatrix, tau: float, n_steps: int, rates: bool) -> Trajectory:
    """The trajectory of `evolve_unitary` or `evolve_kraus`: one horizon,
    evaluated in one run without a store."""
    return _run_trajectory(_sampler(model, rho0, rates), _time_grid(tau, n_steps), None, rho0.dim)


def _run_trajectory(sampler, times: np.ndarray, samples: _Samples | None, dim: int) -> Trajectory:
    """The `Trajectory` of the run of `sampler` on `times`: `samples`, when
    that run has been made, else a new run."""
    samples = samples or sampler(times)
    return Trajectory(times, _dense(*samples.state, dim), *samples[1:])


def _schatten_speeds(speed: tuple, dim: int) -> np.ndarray:
    """||drho/dt||_1 per sample from drho/dt given by its flat positions
    and entry-major values, through `linalg._sample_spectra`."""
    return linalg._sample_spectra(*speed, dim, dim)


def _kraus_rates(prods: list, dim: int) -> np.ndarray:
    """sum_l ||K_l rho_0 dK_l†||_1 from each operator's product, given by
    its entries, shape (n_times,), summed in operator order as numpy sums
    a row of per-operator norms.

    The trace norms take `linalg._sample_spectra`, one operator at a
    time. For the built-in channels every block has at most two rows or
    columns and takes a closed form (a depolarizing product is one dense
    2x2 block, an amplitude-damping product with the GHZ probe splits into
    blocks of at most 2x1), so no built-in sweep runs an SVD for its
    rates; a family whose products are dense and at least 3x3 gets the
    LAPACK singular-value sums as before."""
    return linalg._sum_rows(np.array([linalg._sample_spectra(*p, dim, dim) for p in prods]))
