"""Dynamics models producing time-sampled trajectories with analytic
derivatives: unitary evolution under a fixed Hamiltonian, generic
time-dependent Kraus families, a single-qubit depolarizing channel, and the
two-qubit amplitude-damping channel with independent reservoirs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    CompletenessViolationError,
    DimMismatchError,
    InvalidParamsError,
    InvalidStateError,
    NotHermitianError,
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


class KrausFamily:
    """Time-dependent Kraus family {K_l(t)} with derivatives {dK_l/dt}.

    The library reads a family only through its batched stacks: `op_stacks`
    for the operators at the exact sampled times and `stacks` for the
    consistent (K, dK) pair that derivative products use. A user family
    gives per-time functions `ops_fn(t)` and optionally `dops_fn(t)`, each
    returning n_ops (dim, dim) matrices; without `dops_fn` the derivatives
    are central finite differences of `op_stacks` with step 1e-5 * tau
    (forward below t = step). Built-in channels override the stacks with
    their closed forms. Every call returns new arrays, which trajectories
    overwrite.
    """

    def __init__(
        self,
        dim: int,
        n_ops: int,
        ops_fn: Callable[[float], Sequence[np.ndarray]] | None,
        dops_fn: Callable[[float], Sequence[np.ndarray]] | None = None,
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

    def stacks(self, times: np.ndarray, fd_step: float | None = None):
        """Consistent (K, dK) pair for derivative products.

        Products like K rho dK† may have finite limits where each factor is
        separately singular or vanishing; channels with such points override
        this to sample both factors at the same regularized time."""
        times = np.asarray(times, dtype=float)
        K = self.op_stacks(times)
        if self._dops_fn is not None:
            return K, self._per_time(self._dops_fn, times)
        if fd_step is None:
            raise InvalidParamsError(
                "family has no analytic derivatives; supply fd_step"
            )
        forward = times < fd_step
        lo = self.op_stacks(np.where(forward, times, times - fd_step))
        hi = self.op_stacks(times + fd_step)
        width = np.where(forward, fd_step, 2.0 * fd_step)
        return K, (hi - lo) / width[:, None, None, None]

    def _exact_and_pair(self, times: np.ndarray, fd_step: float | None):
        """(K at the exact times, K, dK): the state operators and the
        derivative pair. The pair's K is sampled at the exact times, so it
        serves as both; a family that regularizes its pair overrides this."""
        K, dK = self.stacks(times, fd_step=fd_step)
        return K, K, dK


class DepolarizingFamily(KrausFamily):
    """K_0 = (1/2) sqrt(1 + 3 e^(-G t)) I and K_j = (1/2) sqrt(1 - e^(-G t)) sigma_j.

    The per-operator derivative of K_{1,2,3} diverges like (1 - e^(-G t))^(-1/2)
    at t = 0, so the (K, dK) pair is evaluated at t clamped to t_floor.
    """

    def __init__(self, params: DepolarizingParams):
        self.params = params
        super().__init__(dim=2, n_ops=4, ops_fn=None)

    def op_stacks(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        e = np.exp(-self.params.gamma * t)
        eye = np.eye(2, dtype=complex)
        K = np.zeros((len(t), 4, 2, 2), dtype=complex)
        K[:, 0] = 0.5 * np.sqrt(1.0 + 3.0 * e)[:, None, None] * eye
        amp = 0.5 * np.sqrt(np.maximum(1.0 - e, 0.0))
        for j, pauli in enumerate(linalg.PAULIS, start=1):
            K[:, j] = amp[:, None, None] * pauli
        return K

    def stacks(self, times: np.ndarray, fd_step: float | None = None):
        return self._exact_and_pair(np.asarray(times, dtype=float), fd_step)[1:]

    def _exact_and_pair(self, times: np.ndarray, fd_step: float | None):
        # K and dK must be sampled at the same clamped time: the products
        # K_j rho dK_j† have a finite t -> 0 limit only because the sqrt(t)
        # zero of K_j cancels the 1/sqrt(t) pole of dK_j. op_stacks is
        # elementwise in time, so the pair's K is the exact stack with only
        # the clamped rows recomputed.
        g = self.params.gamma
        tc = np.maximum(times, DEPOLARIZING_T_FLOOR / g)
        K_exact = self.op_stacks(times)
        K = K_exact.copy()
        clamped = tc != times
        K[clamped] = self.op_stacks(tc[clamped])
        e = np.exp(-g * tc)
        dK = np.zeros_like(K)
        eye = np.eye(2, dtype=complex)
        dK[:, 0] = (-(3.0 * g * e / 4.0) / np.sqrt(1.0 + 3.0 * e))[:, None, None] * eye
        damp = (g * e / 4.0) / np.sqrt(1.0 - e)
        for j, pauli in enumerate(linalg.PAULIS, start=1):
            dK[:, j] = damp[:, None, None] * pauli
        return K_exact, K, dK


# (a, i, j) for the support of the single-qubit S_1 = diag(1, gamma) and
# S_2 = sqrt(1 - gamma^2) |0><1|, which also holds that of their derivatives
_AD_SUPPORT = ((0, 0, 0), (0, 1, 1), (1, 0, 1))
_AD_KRON_ENTRIES = tuple(p + q for p in _AD_SUPPORT for q in _AD_SUPPORT)


class AmplitudeDampingFamily(KrausFamily):
    """Two-qubit product family K_j ⊗ K_l from the single-qubit pair

        K_1 = |0><0| + gamma_t |1><1|,   K_2 = sqrt(1 - gamma_t^2) |0><1|,

    with product-rule derivatives. Near t = 0 the derivative of
    sqrt(1 - gamma^2) is an indeterminate 0/0 whose limit is lam sqrt(s/2);
    that branch is taken whenever 1 - gamma^2 falls below the series
    threshold."""

    def __init__(self, params: AmplitudeDampingParams):
        self.params = params
        super().__init__(dim=4, n_ops=4, ops_fn=None)

    def _pair_stacks(self, times: np.ndarray):
        """(S, dS), shape (n_times, 2, 2, 2): the single-qubit K_1, K_2 and
        their derivatives, stacked along axis 1."""
        lam, s = self.params.lam, self.params.s
        g = np.asarray(decoherence_gamma(times, lam, s), dtype=float)
        dg = np.asarray(decoherence_gamma_dt(times, lam, s), dtype=float)
        one_m_g2 = np.maximum(1.0 - g * g, 0.0)
        e2 = np.sqrt(one_m_g2)
        safe = np.where(one_m_g2 > _AD_SERIES_TOL, e2, 1.0)
        de2 = np.where(one_m_g2 > _AD_SERIES_TOL, -g * dg / safe, lam * np.sqrt(s / 2.0))
        S = np.zeros((len(times), 2, 2, 2), dtype=complex)
        S[:, 0, 0, 0] = 1.0
        S[:, 0, 1, 1] = g
        S[:, 1, 0, 1] = e2
        dS = np.zeros_like(S)
        dS[:, 0, 1, 1] = dg
        dS[:, 1, 0, 1] = de2
        return S, dS

    def stacks(self, times: np.ndarray, fd_step: float | None = None):
        times = np.asarray(times, dtype=float)
        S, dS = self._pair_stacks(times)
        K = np.zeros((len(times), 4, 4, 4), dtype=complex)
        dK = np.zeros_like(K)
        # operator 2a + b is S_a ⊗ S_b, whose entry (2i + k, 2j + l) is
        # S_a[i, j] S_b[k, l]; only the entries on the supports are written
        for a, i, j, b, k, l in _AD_KRON_ENTRIES:
            slot = (slice(None), 2 * a + b, 2 * i + k, 2 * j + l)
            K[slot] = S[:, a, i, j] * S[:, b, k, l]
            dK[slot] = dS[:, a, i, j] * S[:, b, k, l] + S[:, a, i, j] * dS[:, b, k, l]
        return K, dK

    def op_stacks(self, times: np.ndarray) -> np.ndarray:
        return self.stacks(times)[0]


def depolarizing_family(params: DepolarizingParams) -> DepolarizingFamily:
    return DepolarizingFamily(params)


def amplitude_damping_family(params: AmplitudeDampingParams) -> AmplitudeDampingFamily:
    return AmplitudeDampingFamily(params)


@dataclass
class Trajectory:
    """Time-sampled evolution: states rho_t, Schatten speeds ||drho/dt||_1,
    the smallest eigenvalue of each sample and, for a Kraus channel evolved
    with them, the summed Kraus rates sum_l ||K_l rho_0 dK_l†/dt||_1."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim)
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None = None

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise InvalidParamsError("times must start at 0 and increase strictly")
        traces = np.trace(self.states, axis1=1, axis2=2)
        drift = float(np.max(np.abs(traces - 1.0)))
        if drift > TRACE_DRIFT_TOL:
            raise InvalidStateError(f"trace drift {drift:.3e} along trajectory")
        asym = float(np.max(np.abs(self.states - np.conj(np.swapaxes(self.states, 1, 2)))))
        if asym > linalg.HERMITIAN_TOL:
            raise InvalidStateError(f"non-Hermitian sample, asymmetry {asym:.3e}")
        if not np.all(np.isfinite(self.speeds)):
            raise InvalidStateError("non-finite Schatten speed")
        if np.any(self.speeds < 0):
            raise InvalidStateError("negative Schatten speed")
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


def _batch_hermitian_trace_norm(stack: np.ndarray) -> np.ndarray:
    """||X||_1 for a stack of Hermitian matrices via eigenvalues."""
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


def _batch_kmin(stack: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(stack)
    if float(vals.min()) < -1e-10:
        raise InvalidStateError(f"sample eigenvalue {vals.min():.3e} below -1e-10")
    return np.maximum(vals[..., 0], 0.0)


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
    as a consistency check."""
    if h.dim != rho0.dim:
        raise DimMismatchError(f"H dim {h.dim} vs state dim {rho0.dim}")
    times = _time_grid(tau, n_steps)
    w, v = linalg.eigh(h.mat)
    phases = np.exp(-1j * np.outer(times, w))
    u = np.einsum("ab,tb,cb->tac", v, phases, v.conj())
    states = np.einsum("tab,bc,tdc->tad", u, rho0.mat, u.conj())
    states = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    comm = h.mat[None] @ states - states @ h.mat[None]
    dstates = -1j * comm
    dstates = (dstates + np.conj(np.swapaxes(dstates, 1, 2))) / 2
    speeds = _batch_hermitian_trace_norm(dstates)
    kmins = _batch_kmin(states)
    return Trajectory(times=times, states=states, speeds=speeds, kmins=kmins)


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
    dev = float(np.max(np.abs(gram - np.eye(dim)), initial=0.0))
    if not dev <= COMPLETENESS_TOL:
        raise CompletenessViolationError(
            f"sum K†K deviates from identity by {dev:.3e}"
        )


# Trajectories form the products X_l rho_0 Y_l† of two (n_times, n_ops,
# dim, dim) stacks. When every operator of both stacks has at most one
# nonzero per row and per column over all samples, as in the built-in
# channels and the bit-flip file family, each stack is gathered once into
# the values and columns of those nonzeros, and entry (i, m) of a product
# is the single triple product (x_i rho_0[c(i), d(m)]) conj(y_m), rounded
# as einsum rounds it (`_cmul`); sums over operators run in operator order
# from a zero start. That is the arithmetic of the three-operand einsum, so
# no bit moves, and only the entries that can be nonzero are computed, with
# time as the contiguous axis. Dense families form X rho_0 once per stack
# and contract it with conj(Y) in a two-operand einsum that keeps the
# operator sum inside it; that grouping moves results by about 1e-16.


def _monomial_columns(stack: np.ndarray) -> np.ndarray | None:
    """Per operator and row, the column of the row's single nonzero over the
    union of the stack's samples, -1 for a row empty at every sample; None
    when an operator has two nonzeros in a row or a column."""
    nonzero = np.any(stack != 0, axis=0)
    if np.any(nonzero.sum(axis=2) > 1) or np.any(nonzero.sum(axis=1) > 1):
        return None
    return np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), -1)


def _gather(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(values, columns) of a monomial stack, or None for a dense one: the
    value of each operator row's nonzero, shape (n_ops, dim, n_times), and
    the columns of `_monomial_columns`. An empty row reads its last column,
    which is zero at every sample."""
    cols = _monomial_columns(stack)
    if cols is None:
        return None
    n_ops, dim = cols.shape
    return np.moveaxis(stack, 0, -1)[np.arange(n_ops)[:, None], np.arange(dim), cols], cols


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays by the textbook formula, each real product
    and sum rounded on its own as in einsum; numpy's complex multiply may
    fuse them, which moves the last bit of complex (not real) operands."""
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _gathered_products(X, Y, rho0: DensityMatrix, summed: bool) -> np.ndarray:
    """X_l rho_0 Y_l† from two gathered stacks: per sample and operator,
    shape (n_times, n_ops, dim, dim), or when `summed` their sum over the
    operators in operator order from a zero start, shape (n_times, dim, dim).
    Only entries (l, i, m) with both rows nonempty and rho_0 nonzero at
    their columns are computed; the others are zero."""
    (x, cx), (y, cy) = X, Y
    n_ops, dim, n_times = x.shape
    rho = rho0.mat[cx[:, :, None], cy[:, None, :]]
    l, i, m = np.nonzero((cx[:, :, None] >= 0) & (cy[:, None, :] >= 0) & (rho != 0))
    vals = _cmul(_cmul(x[l, i], rho[l, i, m, None]), np.conj(y[l, m])).T
    if not summed:
        out = np.zeros((n_times, n_ops, dim, dim), dtype=complex)
        out[:, l, i, m] = vals
        return out
    out = np.zeros((n_times, dim, dim), dtype=complex)
    for op in range(n_ops):
        # one operator's entries are distinct, so += adds each once
        sel = l == op
        out[:, i[sel], m[sel]] += vals[:, sel]
    return out


def _times_rho(X: np.ndarray, rho0: DensityMatrix) -> np.ndarray:
    """X_l rho_0 for each sample and operator."""
    return np.einsum("tlij,jk->tlik", X, rho0.mat)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + np.conj(np.swapaxes(m, 1, 2))) / 2


def _schatten_speeds(half: np.ndarray) -> np.ndarray:
    """||drho/dt||_1 from half = sum_l dK_l rho_0 K_l†, where drho/dt is
    half plus its adjoint."""
    return _batch_hermitian_trace_norm(half + np.conj(np.swapaxes(half, 1, 2)))


def _channel_states(K: np.ndarray, rho0: DensityMatrix) -> np.ndarray:
    """sum_l K_l rho_0 K_l† for each sample of an operator stack."""
    G = _gather(K)
    if G is None:
        return _hermitian(np.einsum("tlik,tlmk->tim", _times_rho(K, rho0), K.conj()))
    return _hermitian(_gathered_products(G, G, rho0, summed=True))


def apply_channel(fam: KrausFamily, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Single-time channel output sum_l K_l(t) rho_0 K_l(t)†."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    return DensityMatrix(_channel_states(fam.op_stacks(np.array([float(t)])), rho0)[0])


def evolve_kraus(
    fam: KrausFamily, rho0: DensityMatrix, tau: float, n_steps: int = 1001, rates: bool = False
) -> Trajectory:
    """Trajectory of rho_t = sum_l K_l(t) rho_0 K_l(t)† with the analytic
    derivative sum_l (dK_l rho_0 K_l† + K_l rho_0 dK_l†), carrying the summed
    Kraus rates sum_l ||K_l rho_0 dK_l†/dt||_1 when `rates` is set.

    Derivative products use the channel's consistent (possibly regularized)
    pair, built and validated once. Its K serves the states too; only the
    rows where the pair's K differs from the exact-time operators (a
    regularized sample) are rebuilt from the exact ones. A derivative stack
    with a NaN or an infinity raises InvalidStateError before any product
    is formed."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    times = _time_grid(tau, n_steps)
    K_exact, K, dK = fam._exact_and_pair(times, fd_step=1e-5 * tau)
    _check_completeness(K_exact)
    # a family that does not regularize its pair returns the exact stack as K
    regularized = (np.zeros(len(times), bool) if K is K_exact
                   else np.any(K != K_exact, axis=(1, 2, 3)))
    if rates:
        _check_completeness(K[regularized])
    if not np.all(np.isfinite(dK)):
        raise InvalidStateError("non-finite Kraus derivative along trajectory")
    K_exact = K_exact[regularized]
    G = _gather(K)
    dG = None if G is None else _gather(dK)
    if dG is not None:
        del K, dK
        speeds = _schatten_speeds(_gathered_products(dG, G, rho0, summed=True))
        states = _hermitian(_gathered_products(G, G, rho0, summed=True))
        prods = _gathered_products(G, dG, rho0, summed=False) if rates else None
    else:
        # Conjugating in place and dropping each stack once no product
        # needs it keeps at most four dense stacks alive at once.
        KR = _times_rho(K, rho0)
        Kc = np.conjugate(K, out=K)
        del K
        speeds = _schatten_speeds(np.einsum("tlik,tlmk->tim", _times_rho(dK, rho0), Kc))
        states = _hermitian(np.einsum("tlik,tlmk->tim", KR, Kc))
        del Kc
        prods = (np.einsum("tlik,tlmk->tlim", KR, np.conjugate(dK, out=dK))
                 if rates else None)
    if len(K_exact):
        states[regularized] = _channel_states(K_exact, rho0)
    kmins = _batch_kmin(states)
    rate_sums = _kraus_rates(prods) if rates else None
    return Trajectory(times=times, states=states, speeds=speeds, kmins=kmins, rates=rate_sums)


def _kraus_rates(prods: np.ndarray) -> np.ndarray:
    """sum_l ||K_l rho_0 dK_l†||_1 from the per-operator products, shape
    (n_times,).

    The trace norms come from `linalg.trace_norms`, which splits each
    product into the blocks of its own sparsity pattern. For the built-in
    channels every block has at most two rows or columns and takes a closed
    form (a depolarizing product is one dense 2x2 block, an amplitude-damping
    product with the GHZ probe splits into blocks of at most 2x1), so no
    built-in sweep runs an SVD for its rates; a family whose products are
    dense and at least 3x3 gets the LAPACK singular-value sums as before."""
    return linalg.trace_norms(prods).sum(axis=1)
