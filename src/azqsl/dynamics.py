"""Dynamics models producing time-sampled trajectories with analytic
derivatives: unitary evolution under a fixed Hamiltonian, generic
time-dependent Kraus families, a single-qubit depolarizing channel, and the
two-qubit amplitude-damping channel with independent reservoirs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

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
    """Time-independent Hamiltonian, optionally in qubit form n·sigma."""

    def __init__(self, mat: np.ndarray, n: np.ndarray | None = None):
        mat = np.asarray(mat, dtype=complex)
        if not np.all(np.isfinite(mat)):
            raise InvalidParamsError("Hamiltonian has a non-finite entry")
        if linalg.asymmetry(mat) > linalg.HERMITIAN_TOL:
            raise NotHermitianError(
                f"Hamiltonian asymmetry {linalg.asymmetry(mat):.3e}"
            )
        self.mat = linalg.hermitian_part(mat)
        self.n = None if n is None else np.asarray(n, dtype=float)

    @classmethod
    def qubit(cls, n: Sequence[float]) -> "HamiltonianModel":
        n = np.asarray(n, dtype=float)
        if not np.all(np.isfinite(n)):
            raise InvalidParamsError(f"field vector must be finite, got {n}")
        mat = n[0] * linalg.SIGMA_X + n[1] * linalg.SIGMA_Y + n[2] * linalg.SIGMA_Z
        return cls(mat, n=n)

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
    """A monomial operator stack, with at most one nonzero per operator row
    and column over all samples, held by the rows that carry an entry, in
    (operator, row) order: the values of each one's nonzero, shape
    (n_rows, n_times), and its operator, row and column, each (n_rows,)."""

    values: np.ndarray
    ops: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


class _Pair(NamedTuple):
    """What a trajectory reads from a family: the (K, dK) pair, as dense
    stacks or gathered; the samples at which the pair is regularized
    (sampled away from the exact time), which only a gathered pair has; and
    the exact-time operators at those samples, gathered, None when there
    are none."""

    K: np.ndarray | _Gathered
    dK: np.ndarray | _Gathered
    regularized: np.ndarray
    exact: _Gathered | None


class KrausFamily:
    """Time-dependent Kraus family {K_l(t)} with derivatives {dK_l/dt}.

    A user family is read through its batched dense stacks: `op_stacks` for
    the operators at the exact sampled times and `stacks` for the
    consistent (K, dK) pair that derivative products use. It gives per-time
    functions `ops_fn(t)` and `dops_fn(t)`, each returning n_ops (dim, dim)
    matrices: the operators and their analytic derivatives. Trajectories
    gather these stacks when their operators are monomial. The built-in
    channels, and other subclasses that override the stacks, pass
    `ops_fn=None, dops_fn=None`; the built-ins hand trajectories and
    `apply_channel` their stacks already gathered from their closed forms,
    and their dense `op_stacks` and `stacks` scatter those values. Every
    call returns new arrays, which trajectories overwrite.
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

    def _exact_ops(self, times: np.ndarray) -> np.ndarray | _Gathered:
        """The exact-time operators that `apply_channel` reads."""
        return self.op_stacks(times)

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        """The pair that `evolve_kraus` reads. The dense pair of `stacks`
        is sampled at the exact times, so no sample is regularized."""
        K, dK = self.stacks(times)
        return _Pair(K, dK, np.zeros(len(times), dtype=bool), None)


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

    The times start at 0 and increase strictly, else InvalidParamsError.
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
    if not len(times) or times[0] != 0.0 or np.any(np.diff(times) <= 0):
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
    evaluated again on its own pattern. The one-horizon case of
    `_outcomes`."""
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


def _check_completeness(K: np.ndarray) -> None:
    n_times, n_ops, dim, _ = K.shape
    X = K.reshape(n_times, n_ops * dim, dim)
    gram = np.swapaxes(X, 1, 2).conj() @ X
    _require_identity(gram - np.eye(dim))


def _check_gathered_completeness(G: _Gathered, samples, dim: int) -> None:
    """`_check_completeness` for the samples `samples` of a gathered stack.
    With one nonzero per operator row and column, sum_l K_l†K_l is
    diagonal, and its entry c is the sum of |x|^2 over the operator rows
    whose nonzero sits in column c, in (operator, row) order."""
    x = G.values[:, samples]
    squares = x.real ** 2 + x.imag ** 2
    diagonal = np.zeros((dim, x.shape[-1]))
    for row, c in zip(squares, G.cols):
        diagonal[c] += row
    _require_identity(diagonal - 1.0)


def _require_identity(deviation: np.ndarray) -> None:
    dev = float(np.max(np.abs(deviation), initial=0.0))
    if not dev <= COMPLETENESS_TOL:
        raise CompletenessViolationError(
            f"sum K†K deviates from identity by {dev:.3e}"
        )


# Trajectories form the products X_l rho_0 Y_l† of two (n_times, n_ops,
# dim, dim) stacks. When every operator of both stacks has at most one
# nonzero per row and per column over all samples, as in the built-in
# channels and the bit-flip file family, each stack is held gathered
# (`_Gathered`): entry-major, one time vector per operator row that carries
# a nonzero, with that row's operator, row and column. The built-in
# channels write that form straight from their closed forms (the nine
# amplitude-damping products S_a S_b, the eight depolarizing entries), and
# a dense stack is gathered once by `_gather`. A gathered trajectory is
# planned once: the entries (l, i, m) of its three products (states
# K rho_0 K†, speeds dK rho_0 K†, rates K rho_0 dK†) that can be nonzero
# follow from the rows and the pattern of rho_0 alone (`_products`), and
# each product is held entry-major too. Entry (i, m) of a product is the
# single triple product (x_i rho_0[c(i), d(m)]) conj(y_m), rounded as
# einsum rounds it (`_cmul`); sums over operators run in operator order
# from a zero start. That is the arithmetic of the three-operand einsum,
# so no bit moves. The states and rates share the first factor when K and
# dK hold the same rows, and then the three products share one plan. A
# row that is zero at every sample but carries an entry gives zeros, which
# leave the operator sums and the spectra as a detected empty row leaves
# them.
#
# The state of a run is held as entries too, the flat positions where it
# can be nonzero and one time vector per position (every other entry +0),
# the same form as the speed and rate matrices: `_batch_kmin` passes its
# lower triangle to `linalg._sample_spectra`, `_failing_samples` reads its
# trace and asymmetry, and `_SampleStore` keeps its nonzero parts. Dense
# stacks are written only where a caller reads them: `Trajectory.states`,
# the end states of a sweep column, `apply_channel`, the dense stacks of
# the built-in channels, and the contractions of a family that does not
# gather. Those form X rho_0 once per stack and contract it with conj(Y) in
# a two-operand einsum that keeps the operator sum inside it; that grouping
# moves results by about 1e-16.
#
# The trajectories of a sweep panel share their samples (`_outcomes`):
# the horizons' grids are joined, each distinct sample time is evaluated
# and checked once in runs of n_steps times, and each horizon reads its
# own samples: a sweep (`_columns`) reads their rows and the two end
# states, `_trajectories` gathers its trajectory. This work is elementwise
# in time, and `linalg._sample_spectra` gives each sample the value of its
# own pattern, so a sample gets the same bits in every run it could sit
# in. A run that fails a check raises as a whole, and each horizon that
# holds one of its samples is evaluated again on its own, so a bad sample
# fails only the horizons that hold it, with the error of their own call.
# The gathered-or-dense choice above is made per run from the samples it
# holds, so a user family's dense stacks may gather in one run and not in
# the call of a horizon that holds the same samples. That moves no bit: at
# a sample whose operators are monomial, every term of a dense einsum sum
# is a gathered triple product or an exact zero, and the sum meets its
# nonzero terms in operator order, so the dense contractions give the
# sample the gathered bits (`TestContractions` draws random monomial
# stacks with exact zeros, `TestSharedSamples` a switching permutation).


def _monomial_columns(stack: np.ndarray) -> np.ndarray | None:
    """Per operator and row, the column of the row's single nonzero over the
    union of the stack's samples, -1 for a row empty at every sample; None
    when an operator has two nonzeros in a row or a column."""
    nonzero = np.any(stack != 0, axis=0)
    if np.any(nonzero.sum(axis=2) > 1) or np.any(nonzero.sum(axis=1) > 1):
        return None
    return np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), -1)


def _gather(stack: np.ndarray) -> _Gathered | None:
    """A dense stack gathered, or None when it is not monomial: the rows
    with a column of `_monomial_columns`."""
    cols = _monomial_columns(stack)
    if cols is None:
        return None
    ops, rows = np.nonzero(cols >= 0)
    cols = cols[ops, rows]
    return _Gathered(np.moveaxis(stack, 0, -1)[ops, rows, cols], ops, rows, cols)


def _gathered(stack: np.ndarray | _Gathered) -> _Gathered | None:
    """A gathered stack as it is, a dense one through `_gather`."""
    return stack if isinstance(stack, _Gathered) else _gather(stack)


def _scatter(G: _Gathered, n_ops: int, dim: int) -> np.ndarray:
    """The dense (n_times, n_ops, dim, dim) stack of a gathered one."""
    out = np.zeros((G.values.shape[1], n_ops, dim, dim), dtype=complex)
    out[:, G.ops, G.rows, G.cols] = G.values.T
    return out


class _Products(NamedTuple):
    """A trajectory's plan of the products X_l rho_0 Y_l† of two gathered
    stacks: the entries (ops, rows, cols) that can be nonzero, in (l, i, m)
    order, where rho_0 is nonzero at the columns of X's row i and Y's row
    m; the rows of X and of Y that form each (`first`, `second`); and that
    entry of rho_0 for each, shape (n_entries, 1)."""

    ops: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    first: np.ndarray
    second: np.ndarray
    rho: np.ndarray


def _products(X: _Gathered, Y: _Gathered, rho0: DensityMatrix) -> _Products:
    rho = rho0.mat[X.cols[:, None], Y.cols[None, :]]
    e, f = np.nonzero((X.ops[:, None] == Y.ops[None, :]) & (rho != 0))
    return _Products(X.ops[e], X.rows[e], Y.rows[f], e, f, rho[e, f, None])


def _same_rows(X: _Gathered, Y: _Gathered) -> bool:
    """Whether two gathered stacks hold the same rows, so that any plan with
    one of them as a factor is the plan with the other."""
    return all(np.array_equal(a, b) for a, b in zip(X[1:], Y[1:]))


def _first_factors(P: _Products, X: _Gathered):
    """x_i rho_0[c(i), d(m)] at the entries of `P`, as its real and
    imaginary parts."""
    x = X.values
    return linalg._cmul(x.real[P.first], x.imag[P.first], P.rho.real, P.rho.imag)


def _times_conj(first, P: _Products, Y: _Gathered) -> np.ndarray:
    """The products at the entries of `P` from their first factors, shape
    (n_entries, n_times), formed on contiguous real and imaginary parts."""
    y = Y.values
    re, im = linalg._cmul(*first, y.real[P.second], -y.imag[P.second])
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _product_values(P: _Products, X: _Gathered, Y: _Gathered) -> np.ndarray:
    """The products at the entries of `P`, shape (n_entries, n_times)."""
    return _times_conj(_first_factors(P, X), P, Y)


def _operator_sums(P: _Products, values: np.ndarray, dim: int):
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


def _hermitian_sum(P: _Products, values: np.ndarray, dim: int):
    """(M + M†) / 2 for M the sum over operators of the products with the
    given values: the entries of a state."""
    positions, doubled = _plus_adjoint(*_operator_sums(P, values, dim), dim)
    return positions, doubled / 2


def _state_entries(G: _Gathered, rho0: DensityMatrix):
    """sum_l K_l rho_0 K_l† of a gathered stack, as entries."""
    P = _products(G, G, rho0)
    return _hermitian_sum(P, _product_values(P, G, G), rho0.dim)


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


def _times_rho(X: np.ndarray, rho0: DensityMatrix) -> np.ndarray:
    """X_l rho_0 for each sample and operator."""
    return np.einsum("tlij,jk->tlik", X, rho0.mat)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + np.conj(np.swapaxes(m, 1, 2))) / 2


def apply_channel(fam: KrausFamily, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Single-time channel output sum_l K_l(t) rho_0 K_l(t)†."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    K = fam._exact_ops(np.array([float(t)]))
    G = _gathered(K)
    if G is None:
        state = _hermitian(np.einsum("tlik,tlmk->tim", _times_rho(K, rho0), K.conj()))
    else:
        state = _dense(*_state_entries(G, rho0), rho0.dim)
    return DensityMatrix(state[0])


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
    scanned or compared; a user family's dense pair is gathered when its
    operators are monomial. A gathered pair is planned once: its products
    and the states are formed entry by entry at the entries that can be
    nonzero, and the speeds, k_min and rates take
    `linalg._sample_spectra`, which evaluates each matrix's blocks on every
    sample at once and again only where a sample is zero at one of its
    entries. A derivative stack with a NaN or an infinity raises
    InvalidStateError before any product is formed. The one-horizon case
    of `_outcomes`."""
    return _evolve(fam, rho0, tau, n_steps, rates)


def _kraus_sampler(fam: KrausFamily, rho0: DensityMatrix, rates: bool):
    """The per-sample work of `evolve_kraus` on a run of sample times. The
    run raises at the first check it fails, in `evolve_kraus` order, before
    any product is formed."""
    dim = rho0.dim

    def sample(times: np.ndarray) -> _Samples:
        K, dK, regularized, exact = fam._trajectory_pair(times)
        G = _gathered(K)
        if G is None:
            _check_completeness(K)
        else:
            # the pair's K is the exact-time stack outside the regularized rows
            _check_gathered_completeness(G, slice(None) if rates else ~regularized, dim)
        if regularized.any():
            _check_completeness(_scatter(exact, fam.n_ops, dim))
        if not np.all(np.isfinite(dK.values if isinstance(dK, _Gathered) else dK)):
            raise InvalidStateError("non-finite Kraus derivative along trajectory")
        dG = None if G is None else _gathered(dK)
        if dG is not None:
            del K, dK
            # when K and dK hold the same rows, the three products share one
            # plan, and the states and rates their first factor
            P = _products(G, G, rho0)
            same = _same_rows(G, dG)
            half = P if same else _products(dG, G, rho0)
            speeds = _schatten_speeds(_plus_adjoint(*_operator_sums(
                half, _product_values(half, dG, G), dim), dim), dim)
            first = _first_factors(P, G)
            state = _hermitian_sum(P, _times_conj(first, P, G), dim)
            if rates:
                if not same:
                    P = _products(G, dG, rho0)
                    first = _first_factors(P, G)
                values = _times_conj(first, P, dG)
                del first
                flat = P.rows * dim + P.cols
                # the entries come in operator order: each operator's are a run
                ends = np.searchsorted(P.ops, np.arange(fam.n_ops + 1))
                prods = [(flat[a:b], values[a:b]) for a, b in zip(ends[:-1], ends[1:])]
        else:
            # Conjugating in place and dropping each stack once no product
            # needs it keeps at most four dense stacks alive at once.
            KR = _times_rho(K, rho0)
            Kc = np.conjugate(K, out=K)
            del K
            half = np.einsum("tlik,tlmk->tim", _times_rho(dK, rho0), Kc)
            speeds = _schatten_speeds(_entries(half + np.conj(np.swapaxes(half, 1, 2))), dim)
            del half
            state = _entries(_hermitian(np.einsum("tlik,tlmk->tim", KR, Kc)))
            del Kc
            if rates:
                dense = np.einsum("tlik,tlmk->tlim", KR, np.conjugate(dK, out=dK))
                prods = [_entries(dense[:, l]) for l in range(fam.n_ops)]
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
    """What a panel keeps per distinct sample time: the time; the real and
    imaginary parts of the state entries that are not +0 at some sample
    (`parts`, by flat float position, 2 p for the real and 2 p + 1 for the
    imaginary part of flat position p; every other part is +0), held
    entry-major; the speed, k_min and rate; whether the sample fails a
    `Trajectory` check, found once per sample as it is added; and whether
    the sample lies in a run that raised."""

    def __init__(self, times: np.ndarray, dim: int):
        n = len(times)
        self.times, self.dim = times, dim
        self.speeds, self.kmins, self.rates = np.zeros(n), np.zeros(n), None
        self.held = np.zeros(2 * dim * dim, dtype=bool)
        self.parts = np.flatnonzero(self.held)
        self.entries = np.zeros((0, n))
        self.failing = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)

    def add(self, rows: slice, samples: _Samples) -> None:
        positions, values = samples.state
        # the float positions of the real and imaginary parts, and their
        # values; int64 tells -0.0 from +0
        parts = [(2 * positions, values.real), (2 * positions + 1, values.imag)]
        self._widen(np.concatenate(
            [at[(part.view(np.int64) != 0).any(axis=1)] for at, part in parts]))
        slot = np.cumsum(self.held) - 1
        for at, part in parts:
            held = self.held[at]
            self.entries[slot[at[held]], rows] = part[held]
        self.speeds[rows], self.kmins[rows] = samples.speeds, samples.kmins
        if samples.rates is not None:
            if self.rates is None:
                self.rates = np.zeros(len(self.speeds))
            self.rates[rows] = samples.rates
        self.failing[rows] = _failing_samples(samples, self.dim)

    def _widen(self, parts: np.ndarray) -> None:
        """Make room for the state parts `parts` (flat float positions); the
        samples held so far are +0 there."""
        if self.held[parts].all():
            return
        held = self.held.copy()
        held[parts] = True
        entries = np.zeros((np.count_nonzero(held), len(self.times)))
        entries[self.held[held]] = self.entries
        self.held, self.parts, self.entries = held, np.flatnonzero(held), entries

    def states(self, rows: np.ndarray) -> np.ndarray:
        """The dense (len(rows), dim, dim) states of the samples `rows`."""
        states = np.zeros((len(rows), 2 * self.dim * self.dim))
        states[:, self.parts] = self.entries[:, rows].T
        return states.view(complex).reshape(-1, self.dim, self.dim)

    def trajectory(self, times: np.ndarray, rows: np.ndarray) -> Trajectory | AzqslError:
        """The trajectory at `times`, held as the samples `rows`, or the
        error `Trajectory` raises for it."""
        return _attempt(Trajectory, times, self.states(rows), self.speeds[rows],
                        self.kmins[rows], None if self.rates is None else self.rates[rows])

    def error(self, times: np.ndarray, rows: np.ndarray) -> AzqslError | None:
        """The error `Trajectory` raises for the samples `rows` at `times`,
        or None, without the dense states of a horizon whose samples all
        passed their checks."""
        if self.failing[rows].any():
            outcome = self.trajectory(times, rows)
            return outcome if isinstance(outcome, AzqslError) else None
        return _attempt(_check_times, times)


def _alone(sampler, times: np.ndarray, dim: int) -> Trajectory | AzqslError:
    """The trajectory at `times` evaluated on its own, in one run, or the
    error it ends in."""
    samples = _attempt(sampler, times)
    if isinstance(samples, AzqslError):
        return samples
    return _attempt(Trajectory, times, _dense(*samples.state, dim), *samples[1:])


def _trajectories(
    model: HamiltonianModel | KrausFamily, rho0: DensityMatrix, taus: Sequence[float],
    n_steps: int, rates: bool = False,
) -> Iterator[Trajectory | AzqslError]:
    """For each horizon of `taus`, in order, the trajectory of `evolve_unitary`
    (a Hamiltonian) or `evolve_kraus` (a Kraus family) to it, or the
    AzqslError that call raises, built from the samples of `_outcomes`."""
    for outcome in _outcomes(model, rho0, taus, n_steps, rates):
        yield outcome[0].trajectory(*outcome[1:]) if isinstance(outcome, tuple) else outcome


def _outcomes(model, rho0: DensityMatrix, taus: Sequence[float], n_steps: int, rates: bool):
    """For each horizon of `taus`, in order: the AzqslError its
    per-horizon call raises before any sample passes, its trajectory
    evaluated on its own, or (store, times, rows), its samples in a
    `_SampleStore` that the horizons share.

    The time grids are joined, and every distinct sample time is evaluated
    once, in runs of `n_steps` times. Every per-sample quantity is
    elementwise in time and `linalg._sample_spectra` gives each sample the
    value of its own pattern, so a sample has the same bits whichever
    horizons hold it; at a monomial sample the dense contractions give the
    gathered bits, so a run may gather where a horizon's own call does not.
    A run that fails a check raises as a whole, so each horizon that holds
    a sample of it is evaluated again on its own and gets the outcome of
    its own call. The outcomes are made one at a time as the caller asks
    for them."""
    if model.dim != rho0.dim:
        kind = "H" if isinstance(model, HamiltonianModel) else "channel"
        exc = DimMismatchError(f"{kind} dim {model.dim} vs state dim {rho0.dim}")
        yield from (exc for _ in taus)
        return
    if isinstance(model, HamiltonianModel):
        sampler = _unitary_sampler(model, rho0)
    else:
        sampler = _kraus_sampler(model, rho0, rates)
    grids, errors = {}, {}
    for h, tau in enumerate(taus):
        grids[h] = _attempt(_time_grid, tau, n_steps)
        if isinstance(grids[h], AzqslError):
            errors[h] = grids.pop(h)
    if len(grids) <= 1:  # a lone grid is one run of its own
        for h in range(len(taus)):
            yield errors[h] if h in errors else _alone(sampler, grids.pop(h), rho0.dim)
        return
    times = np.unique(np.concatenate(list(grids.values())))
    del grids
    store = _SampleStore(times, rho0.dim)
    for start in range(0, len(times), n_steps):
        rows = slice(start, start + n_steps)
        try:
            store.add(rows, sampler(times[rows]))
        except AzqslError:
            store.failed[rows] = True
    for h, tau in enumerate(taus):
        if h in errors:
            yield errors[h]
            continue
        grid = _time_grid(tau, n_steps)
        rows = np.searchsorted(times, grid)
        if store.failed[rows].any():
            yield _alone(sampler, grid, rho0.dim)
        else:
            yield store, grid, rows


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


def _columns(outcomes) -> _Columns:
    """The `_Columns` of the outcomes of `_outcomes`, or of trajectories and
    errors, in order, without building a trajectory: a store's samples are
    held once for all its columns, a trajectory's for its own column (all
    hold equally many samples, and carry rates or none do). Every column
    starts from the same t = 0 sample, validated once as the probe state;
    a column whose t = 0 sample differs from the first one fails. Each end
    state is validated on its own; a trajectory's are its cached states."""
    pools, offsets = [], {}
    start = probe = None
    rows, finals, errors = [], [], []
    for outcome in outcomes:
        exc = outcome if isinstance(outcome, AzqslError) else None
        if isinstance(outcome, tuple):
            pool, grid, held = outcome
            exc = pool.error(grid, held)
            if exc is None:
                initial, final = pool.states(held[[0, -1]])
                final = _attempt(DensityMatrix, final)
        elif exc is None:
            pool, held = outcome, np.arange(outcome.n_samples)
            initial, final = outcome.states[0], _attempt(getattr, outcome, "final_state")
        if exc is None and start is None:
            start = initial.tobytes()
            probe = (_attempt(getattr, outcome, "initial_state") if pool is outcome
                     else _attempt(DensityMatrix, initial))
        elif exc is None and initial.tobytes() != start:
            exc = InvalidStateError("state at t = 0 differs from the probe state of the panel")
        if exc is None:
            if id(pool) not in offsets:
                offsets[id(pool)] = sum(len(p.times) for p in pools)
                pools.append(pool)
            rows.append(held + offsets[id(pool)] if offsets[id(pool)] else held)
            finals.append(final)
        else:
            rows.append(None)
            finals.append(None)
        errors.append(exc)
    samples = []
    for name in ("times", "speeds", "kmins", "rates"):
        parts = [getattr(pool, name) for pool in pools]
        if name == "rates" and (not parts or any(part is None for part in parts)):
            samples.append(None)
        else:
            samples.append(parts[0] if len(parts) == 1 else np.concatenate(parts or [np.zeros(0)]))
    return _Columns(*samples, rows, probe, finals, errors)


def _evolve(model, rho0: DensityMatrix, tau: float, n_steps: int, rates: bool) -> Trajectory:
    """The one-horizon case of `_outcomes`, raising its error."""
    (outcome,) = _outcomes(model, rho0, [tau], n_steps, rates)
    if isinstance(outcome, AzqslError):
        raise outcome
    return outcome


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
