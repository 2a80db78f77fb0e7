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


def decoherence_gamma(t, lam: float, s: float):
    """Resonant-regime decoherence amplitude.

    Decays monotonically for s <= 1/2 and oscillates for s > 1/2; the
    s = 1/2 degeneracy is handled by its closed limit on |s - 1/2| < 1e-9.
    Accepts scalars or arrays of times.
    """
    x = lam * np.asarray(t, dtype=float) / 2.0
    damp = np.exp(-x)
    if abs(s - 0.5) < 1e-9:
        return damp * (1.0 + x)
    if s < 0.5:
        q = np.sqrt(1.0 - 2.0 * s)
        return damp * (np.cosh(x * q) + np.sinh(x * q) / q)
    q = np.sqrt(2.0 * s - 1.0)
    return damp * (np.cos(x * q) + np.sin(x * q) / q)


def decoherence_gamma_dt(t, lam: float, s: float):
    """Time derivative of decoherence_gamma."""
    x = lam * np.asarray(t, dtype=float) / 2.0
    damp = np.exp(-x)
    if abs(s - 0.5) < 1e-9:
        return -(lam / 2.0) * x * damp
    if s < 0.5:
        q = np.sqrt(1.0 - 2.0 * s)
        return -(lam * s / q) * damp * np.sinh(x * q)
    q = np.sqrt(2.0 * s - 1.0)
    return -(lam * s / q) * damp * np.sin(x * q)


class _Gathered(NamedTuple):
    """A monomial operator stack, with at most one nonzero per operator row
    and column over all samples: the value of each row's nonzero, shape
    (n_ops, dim, n_times), and its column, shape (n_ops, dim), -1 for a row
    that holds no entry (its values are zero)."""

    values: np.ndarray
    columns: np.ndarray


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
        return _scatter(self._exact_ops(np.asarray(times, dtype=float)))

    def stacks(self, times: np.ndarray):
        K, dK, _, _ = self._trajectory_pair(np.asarray(times, dtype=float))
        return _scatter(K), _scatter(dK)


# I, sigma_x, sigma_y, sigma_z gathered: the column and the entry of each
# row's single nonzero
_DEPOLARIZING_BASIS = np.stack([np.eye(2, dtype=complex), *linalg.PAULIS])
_DEPOLARIZING_COLUMNS = np.abs(_DEPOLARIZING_BASIS).argmax(axis=2)
_DEPOLARIZING_ENTRIES = np.take_along_axis(
    _DEPOLARIZING_BASIS, _DEPOLARIZING_COLUMNS[..., None], axis=2
)[..., 0]


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
        return _Gathered(coefs[:, None, :] * _DEPOLARIZING_ENTRIES[:, :, None],
                         _DEPOLARIZING_COLUMNS)

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
# S_a[i, j] S_b[k, l]: per product of the support entries _AD_FIRST and
# _AD_SECOND, its operator, row and column.
_AD_SUPPORT = np.array([(0, 0, 0), (0, 1, 1), (1, 0, 1)])
_AD_FIRST, _AD_SECOND = np.divmod(np.arange(9), 3)
_AD_OPS, _AD_ROWS, _AD_COLS = (2 * _AD_SUPPORT[_AD_FIRST] + _AD_SUPPORT[_AD_SECOND]).T
_AD_COLUMNS = np.full((4, 4), -1)
_AD_COLUMNS[_AD_OPS, _AD_ROWS] = _AD_COLS


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
        g = np.asarray(decoherence_gamma(times, lam, s), dtype=float)
        dg = np.asarray(decoherence_gamma_dt(times, lam, s), dtype=float)
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
        K = np.zeros((4, 4, len(times)), dtype=complex)
        dK = np.zeros_like(K)
        a, b = _AD_FIRST, _AD_SECOND
        # complex factors keep the signed zeros of the dense Kronecker
        # entries: the product of two negative reals has imaginary part -0
        K[_AD_OPS, _AD_ROWS] = S[a] * S[b]
        dK[_AD_OPS, _AD_ROWS] = dS[a] * S[b] + S[a] * dS[b]
        return _Pair(_Gathered(K, _AD_COLUMNS), _Gathered(dK, _AD_COLUMNS),
                     np.zeros(len(times), dtype=bool), None)


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
        drift, asym = (float(np.max(x)) for x in _state_deviations(self.states))
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


def _state_deviations(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample of a (n, dim, dim) state stack, |Tr rho - 1| and the
    largest entry of |rho - rho†|, NaN where one is NaN. Entries (i, j) and
    (j, i) of |rho - rho†| are equal, so the upper triangle is read, one
    entry at a time (a reduction over a few entries per sample is slower)."""
    drift = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    dim = states.shape[-1]
    asym = np.zeros(len(states))
    for i in range(dim):
        for j in range(i, dim):
            np.maximum(asym, np.abs(states[:, i, j] - np.conj(states[:, j, i])), out=asym)
    return drift, asym


def _failing_samples(states, speeds, kmins, rates) -> np.ndarray:
    """Per sample, whether it fails a `Trajectory` check: samples that all
    pass them pass the checks together."""
    drift, asym = _state_deviations(states)
    ok = (drift <= TRACE_DRIFT_TOL) & (asym <= linalg.HERMITIAN_TOL)
    for values in (speeds, kmins) if rates is None else (speeds, kmins, rates):
        ok &= np.isfinite(values) & ~(values < 0)
    return ~ok


def _batch_kmin(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each sample, from `linalg.min_eigenvalues`,
    clamped at zero; one below -1e-10 raises InvalidStateError."""
    vals = linalg.min_eigenvalues(stack)
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
        return _Samples(states, speeds, _batch_kmin(states), None)

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


def _check_gathered_completeness(G, rows) -> None:
    """`_check_completeness` for the samples `rows` of a gathered stack.
    With one nonzero per operator row and column, sum_l K_l†K_l is
    diagonal, and its entry c is the sum of |x|^2 over the operator rows
    whose nonzero sits in column c."""
    x, cols = G
    x = x[..., rows]
    diagonal = np.zeros((cols.shape[1], x.shape[-1]))
    for l, i in zip(*np.nonzero(cols >= 0)):
        diagonal[cols[l, i]] += x[l, i].real ** 2 + x[l, i].imag ** 2
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
# (`_Gathered`) as the values and columns of those nonzeros: the built-in
# channels hand out that form from their closed forms, and a dense stack is
# gathered once by `_gather`. A gathered trajectory is planned once: the
# entries (l, i, m) of its three products (states K rho_0 K†, speeds
# dK rho_0 K†, rates K rho_0 dK†) that can be nonzero follow from the
# columns and the pattern of rho_0 alone (`_products`), and each product
# is held entry-major, one time vector per entry. Entry (i, m) of a product
# is the single triple product (x_i rho_0[c(i), d(m)]) conj(y_m), rounded
# as einsum rounds it (`_cmul`); sums over operators run in operator order
# from a zero start. That is the arithmetic of the three-operand einsum,
# so no bit moves. Only the states are written as dense (n_times, dim,
# dim) arrays; the speed and rate matrices go to
# `linalg._sample_spectra` as their entries. A row that is zero at
# every sample but has a column gives zeros, which leave the operator sums
# and the spectra as a detected empty row leaves them. Dense families form
# X rho_0 once per stack and contract it with conj(Y) in a two-operand
# einsum that keeps the operator sum inside it; that grouping moves
# results by about 1e-16.
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
    """A dense stack gathered, or None when it is not monomial: the columns
    are those of `_monomial_columns`, and an empty row reads its last
    column, which is zero at every sample."""
    cols = _monomial_columns(stack)
    if cols is None:
        return None
    n_ops, dim = cols.shape
    return _Gathered(
        np.moveaxis(stack, 0, -1)[np.arange(n_ops)[:, None], np.arange(dim), cols], cols
    )


def _gathered(stack: np.ndarray | _Gathered) -> _Gathered | None:
    """A gathered stack as it is, a dense one through `_gather`."""
    return stack if isinstance(stack, _Gathered) else _gather(stack)


def _scatter(G: _Gathered) -> np.ndarray:
    """The dense (n_times, n_ops, dim, dim) stack of a gathered one."""
    x, cols = G
    n_ops, dim, n_times = x.shape
    out = np.zeros((n_times, n_ops, dim, dim), dtype=complex)
    l, i = np.nonzero(cols >= 0)
    out[:, l, i, cols[l, i]] = x[l, i].T
    return out


class _Products(NamedTuple):
    """A trajectory's plan of the products X_l rho_0 Y_l† of two gathered
    stacks: the entries (ops, rows, cols) that can be nonzero, in (l, i, m)
    order, where both rows have a column and rho_0 is nonzero at the two
    columns. `rho` holds that entry of rho_0 for each, shape
    (n_entries, 1)."""

    ops: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    rho: np.ndarray
    n_ops: int


def _products(X: _Gathered, Y: _Gathered, rho0: DensityMatrix) -> _Products:
    cx, cy = X.columns, Y.columns
    rho = rho0.mat[cx[:, :, None], cy[:, None, :]]
    l, i, m = np.nonzero((cx[:, :, None] >= 0) & (cy[:, None, :] >= 0) & (rho != 0))
    return _Products(l, i, m, rho[l, i, m, None], len(cx))


def _product_values(P: _Products, X: _Gathered, Y: _Gathered) -> np.ndarray:
    """The products at the entries of `P`, shape (n_entries, n_times),
    formed on contiguous real and imaginary parts."""
    x, y = X.values, Y.values
    re, im = linalg._cmul(x.real[P.ops, P.rows], x.imag[P.ops, P.rows], P.rho.real, P.rho.imag)
    # times conj(y)
    re, im = linalg._cmul(re, im, y.real[P.ops, P.cols], -y.imag[P.ops, P.cols])
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _operator_sums(P: _Products, values: np.ndarray, dim: int):
    """The sum over operators of the products with the given values: the
    flat positions it can be nonzero at, ascending, and its values there,
    shape (n_positions, n_times), each summed in operator order from zero."""
    flat = P.rows * dim + P.cols
    present = np.zeros(dim * dim, dtype=bool)
    present[flat] = True
    # each operator's terms at every position, zero where it has none: a
    # zero term leaves a sum that started from zero as it is
    terms = np.zeros((P.n_ops, np.count_nonzero(present), values.shape[1]), dtype=complex)
    terms[P.ops, np.cumsum(present)[flat] - 1] = values
    sums = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        sums += term
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


def _times_rho(X: np.ndarray, rho0: DensityMatrix) -> np.ndarray:
    """X_l rho_0 for each sample and operator."""
    return np.einsum("tlij,jk->tlik", X, rho0.mat)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + np.conj(np.swapaxes(m, 1, 2))) / 2


def _channel_states(K: np.ndarray | _Gathered, rho0: DensityMatrix) -> np.ndarray:
    """sum_l K_l rho_0 K_l† for each sample of an operator stack, dense or
    gathered."""
    G = _gathered(K)
    if G is None:
        return _hermitian(np.einsum("tlik,tlmk->tim", _times_rho(K, rho0), K.conj()))
    P = _products(G, G, rho0)
    dim = rho0.dim
    positions, doubled = _plus_adjoint(*_operator_sums(P, _product_values(P, G, G), dim), dim)
    return _dense(positions, doubled / 2, dim)


def apply_channel(fam: KrausFamily, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Single-time channel output sum_l K_l(t) rho_0 K_l(t)†."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    return DensityMatrix(_channel_states(fam._exact_ops(np.array([float(t)])), rho0)[0])


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
    are formed at the entries that can be nonzero, and only the states are
    written densely; the speeds, k_min and rates take
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
            _check_gathered_completeness(G, slice(None) if rates else ~regularized)
        if regularized.any():
            _check_completeness(_scatter(exact))
        if not np.all(np.isfinite(dK.values if isinstance(dK, _Gathered) else dK)):
            raise InvalidStateError("non-finite Kraus derivative along trajectory")
        dG = None if G is None else _gathered(dK)
        if dG is not None:
            del K, dK
            half = _products(dG, G, rho0)
            speeds = _schatten_speeds(
                _plus_adjoint(*_operator_sums(half, _product_values(half, dG, G), dim), dim), dim)
            states = _channel_states(G, rho0)
            if rates:
                P = _products(G, dG, rho0)
                values = _product_values(P, G, dG)
                flat = P.rows * dim + P.cols
                prods = [(flat[P.ops == l], values[P.ops == l]) for l in range(fam.n_ops)]
        else:
            # Conjugating in place and dropping each stack once no product
            # needs it keeps at most four dense stacks alive at once.
            KR = _times_rho(K, rho0)
            Kc = np.conjugate(K, out=K)
            del K
            half = np.einsum("tlik,tlmk->tim", _times_rho(dK, rho0), Kc)
            speeds = _schatten_speeds(_entries(half + np.conj(np.swapaxes(half, 1, 2))), dim)
            del half
            states = _hermitian(np.einsum("tlik,tlmk->tim", KR, Kc))
            del Kc
            if rates:
                dense = np.einsum("tlik,tlmk->tlim", KR, np.conjugate(dK, out=dK))
                prods = [_entries(dense[:, l]) for l in range(fam.n_ops)]
        if regularized.any():
            states[regularized] = _channel_states(exact, rho0)
        rate_sums = _kraus_rates(prods, dim) if rates else None
        return _Samples(states, speeds, _batch_kmin(states), rate_sums)

    return sample


class _Samples(NamedTuple):
    """The per-sample results on a run of sample times: dense states
    (n, dim, dim), Schatten speeds, k_min, and summed Kraus rates or None."""

    states: np.ndarray
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None


class _SampleStore:
    """What a panel keeps per distinct sample time: the time; the real and
    imaginary parts of the state entries that are not +0 at some sample
    (`parts`, by flat float position; every other part is +0); the speed,
    k_min and rate; whether the sample fails a `Trajectory` check, found
    once per sample as it is added; and whether the sample lies in a run
    that raised."""

    def __init__(self, times: np.ndarray, dim: int):
        n = len(times)
        self.times, self.dim = times, dim
        self.speeds, self.kmins, self.rates = np.zeros(n), np.zeros(n), None
        self.held = np.zeros(2 * dim * dim, dtype=bool)
        self.parts = np.flatnonzero(self.held)
        self.entries = np.zeros((n, 0))
        self.failing = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)

    def add(self, rows: slice, samples: _Samples) -> None:
        parts = samples.states.reshape(len(samples.speeds), -1).view(np.float64)
        self._widen((parts.view(np.int64) != 0).any(axis=0))
        self.entries[rows] = parts[:, self.parts]
        self.speeds[rows], self.kmins[rows] = samples.speeds, samples.kmins
        if samples.rates is not None:
            if self.rates is None:
                self.rates = np.zeros(len(self.speeds))
            self.rates[rows] = samples.rates
        self.failing[rows] = _failing_samples(*samples)

    def _widen(self, nonzero: np.ndarray) -> None:
        """Make room for the state parts that are `nonzero` (by flat float
        position); the samples held so far are +0 there."""
        if not (nonzero & ~self.held).any():
            return
        held = self.held | nonzero
        entries = np.zeros((len(self.entries), np.count_nonzero(held)))
        entries[:, self.held[held]] = self.entries
        self.held, self.parts, self.entries = held, np.flatnonzero(held), entries

    def states(self, rows: np.ndarray) -> np.ndarray:
        """The dense (len(rows), dim, dim) states of the samples `rows`."""
        states = np.zeros((len(rows), 2 * self.dim * self.dim))
        states[:, self.parts] = self.entries[rows]
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


def _alone(sampler, times: np.ndarray) -> Trajectory | AzqslError:
    """The trajectory at `times` evaluated on its own, in one run, or the
    error it ends in."""
    samples = _attempt(sampler, times)
    return samples if isinstance(samples, AzqslError) else _attempt(Trajectory, times, *samples)


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
            yield errors[h] if h in errors else _alone(sampler, grids.pop(h))
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
            yield _alone(sampler, grid)
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
