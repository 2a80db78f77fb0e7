"""Dynamics models producing time-sampled trajectories with analytic
derivatives: unitary evolution under a fixed Hamiltonian, generic
time-dependent Kraus families, a single-qubit depolarizing channel, and the
two-qubit amplitude-damping channel with independent reservoirs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
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
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise InvalidParamsError(f"Hamiltonian must be non-empty and square, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidParamsError("Hamiltonian has a non-finite entry")
        asym = linalg.asymmetry(mat)
        if asym > linalg.HERMITIAN_TOL:
            raise NotHermitianError(f"Hamiltonian asymmetry {asym:.3e}")
        self.mat = linalg.hermitian_part(mat)

    @classmethod
    def qubit(cls, n: Sequence[float]) -> "HamiltonianModel":
        n = np.asarray(n, dtype=float)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise InvalidParamsError(f"field vector must be 3 finite components, got {n}")
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
    samples at which it is regularized (sampled away from the exact time);
    and the exact-time operators there, shape (n_entries, n_regularized), at
    K's entries, which hold every entry that is nonzero in the exact-time
    operators; None for a family that regularizes no sample."""

    K: _Gathered
    dK: _Gathered
    regularized: np.ndarray
    exact: np.ndarray | None


class KrausFamily:
    """Time-dependent Kraus family {K_l(t)} with derivatives {dK_l/dt}.

    A family is read through one (K, dK) pair, from which trajectories,
    `apply_channel` and the dense `op_stacks` all take their operators. A
    user family gives per-time functions `ops_fn(t)` and `dops_fn(t)`, each
    returning n_ops (dim, dim) matrices (the operators and their analytic
    derivatives), or passes `ops_fn=None, dops_fn=None` and overrides
    `stacks` with the batched pair. The built-in channels override
    `_trajectory_pair` with their closed forms, already gathered
    (`_Gathered`); a user family's stacks are gathered by `_gather`.
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

    def stacks(self, times: np.ndarray):
        """The (K, dK) pair, each shape (n_times, n_ops, dim, dim).

        A user family's pair is sampled at the exact times: its K is what
        the states read. Only the built-in channels regularize (sample the
        pair away from a point where a factor is singular), through
        `_trajectory_pair`."""
        times = np.asarray(times, dtype=float)
        return self._per_time(self._ops_fn, times), self._per_time(self._dops_fn, times)

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        """The pair that `evolve_kraus` reads. The pair of `stacks` is
        sampled at the exact times, so no sample is regularized."""
        K, dK = self.stacks(times)
        return _Pair(_gather(K), _gather(dK), np.zeros(len(times), dtype=bool), None)

    def _exact_ops(self, times: np.ndarray) -> _Gathered:
        """The operators at the exact times, which `apply_channel` reads:
        the pair's K with the exact-time values at its regularized samples."""
        K, _, regularized, exact = self._trajectory_pair(times)
        if exact is not None:
            K.values[:, regularized] = exact
        return K

    def op_stacks(self, times: np.ndarray) -> np.ndarray:
        """Operators at the exact times, shape (n_times, n_ops, dim, dim)."""
        return _scatter(self._exact_ops(np.asarray(times, dtype=float)), self.n_ops, self.dim)


class _ClosedFormFamily(KrausFamily):
    """A built-in channel. Its `_trajectory_pair` gathers the operators from
    their closed forms, and its dense `stacks` scatter those values."""

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
        exact = self._ops_at(np.exp(-g * times[clamped])).values
        return _Pair(self._ops_at(e), dK, clamped, exact)


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

    def _trajectory_pair(self, times: np.ndarray) -> _Pair:
        S, dS = self._pair_stacks(times)
        a, b = S[_AD_FIRST], S[_AD_SECOND]
        # dS_first b + a dS_second and then a b, each product formed in
        # place on a gathered factor with the operands in that order;
        # complex factors keep the signed zeros of the dense Kronecker
        # entries: the product of two negative reals has imaginary part -0
        first, second = dS[_AD_FIRST], dS[_AD_SECOND]
        first *= b
        np.multiply(a, second, out=second)
        first += second
        a *= b
        K = _Gathered(a, _AD_OPS, _AD_ROWS, _AD_COLS)
        dK = _Gathered(first, _AD_OPS, _AD_ROWS, _AD_COLS)
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
        _check_samples(len(self.times), *_state_deviations(*_entries(self.states), shape[1]),
                       self.speeds, self.kmins, self.rates)

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


def _check_times(times: np.ndarray) -> np.ndarray:
    # a step is positive, not merely not <= 0: a NaN step fails it
    if (not len(times) or times[0] != 0.0 or not np.all(np.diff(times) > 0)
            or not math.isfinite(times[-1])):
        raise InvalidParamsError("times must start at 0 and increase strictly")
    return times


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


def _check_samples(n: int, drift: np.ndarray, asym: np.ndarray, speeds: np.ndarray,
                   kmins: np.ndarray, rates: np.ndarray | None) -> None:
    """The checks of `Trajectory` past its times and the shape of its
    states, in its order and with its messages, on n samples given by their
    trace drift and asymmetry (`_state_deviations`), speeds, k_min values
    and Kraus rates (or None). Each check holds for every sample, so
    samples that pass apart pass together."""
    drift, asym = float(np.max(drift)), float(np.max(asym))
    if not drift <= TRACE_DRIFT_TOL:
        raise InvalidStateError(f"trace drift {drift:.3e} along trajectory")
    if not asym <= linalg.HERMITIAN_TOL:
        raise InvalidStateError(f"non-Hermitian sample, asymmetry {asym:.3e}")
    checked = [(speeds, "speeds", "Schatten speed"), (kmins, "k_min values", "k_min")]
    if rates is not None:
        checked.append((rates, "rates", "Kraus rate"))
    for values, plural, name in checked:
        if values.shape != (n,):
            raise InvalidStateError(f"{values.shape} {plural} for {n} samples")
        if not np.all(np.isfinite(values)):
            raise InvalidStateError(f"non-finite {name}")
        if np.any(values < 0):
            raise InvalidStateError(f"negative {name}")


def _kmin_plan(positions: np.ndarray, dim: int) -> tuple:
    """The lower triangle of a state held at the flat positions `positions`:
    which of them it takes, and their `linalg._Patterns`."""
    lower = positions % dim <= positions // dim
    return lower, linalg._Patterns([positions[lower]], dim, dim, hermitian=True)


def _batch_kmin(values: np.ndarray, kmin: tuple) -> np.ndarray:
    """Smallest eigenvalue of each sample of a state given by its values at
    the positions of `kmin` (`_kmin_plan`), from the entries of its lower
    triangle (`linalg._sample_spectra`, as `linalg.min_eigenvalues` reads a
    dense stack), clamped at zero; one below -1e-10 raises
    InvalidStateError."""
    lower, patterns = kmin
    vals = linalg._sample_spectra(patterns, values[lower])[0]
    if float(vals.min()) < -1e-10:
        raise InvalidStateError(f"sample eigenvalue {vals.min():.3e} below -1e-10")
    return np.maximum(vals, 0.0)


def _time_grid(tau: float, n_steps: int) -> np.ndarray:
    """n_steps equal steps on [0, tau], checked: the one place a grid is made."""
    if not isinstance(n_steps, numbers.Integral):
        raise InvalidParamsError(f"sample count must be an integer, got {n_steps!r}")
    if n_steps < 2:
        raise InvalidParamsError(f"need at least 2 samples, got {n_steps}")
    if not 0.0 < tau < math.inf:
        raise InvalidParamsError(f"horizon must be positive and finite, got {tau}")
    return _check_times(np.linspace(0.0, tau, n_steps))


def evolve_unitary(
    h: HamiltonianModel, rho0: DensityMatrix, tau: float, n_steps: int = 1001
) -> Trajectory:
    """rho_t = U_t rho_0 U_t† with U_t = e^(-i t H).

    The orbit keeps the spectrum of rho_0 and the Schatten speed
    ||-i[H, rho_t]||_1 = ||-i[H, rho_0]||_1, so the speeds and k_min values
    are these invariants, each taken once from rho_0 by
    `linalg._sample_spectra`: the zero commutator of an eigenstate probe
    gives a zero speed. The states come from the one eigendecomposition of
    H (`_unitary_sampler`). The samples are evaluated in one run, as a
    sweep's runs evaluate them (`_columns`), without its store."""
    return _evolve(h, rho0, _time_grid(tau, n_steps), rates=False)


def _unitary_sampler(h: HamiltonianModel, rho0: DensityMatrix):
    """The per-sample work of `evolve_unitary` on a run of sample times.

    With H = V diag(w) V†, rho_t = V (rho~ ∘ e^{-i(w_a - w_b) t}) V† for
    rho~ = V† rho_0 V (Hermitian part), whose diagonal is constant and
    whose lower triangle mirrors the upper one. The two products with V
    sum over the shared index one term at a time, and the sample axis sees
    only real elementwise arithmetic (`linalg._cmul`), so a sample has the
    same bits in every run that holds it. The state is then hermitized,
    and the speed and k_min, taken once from rho_0, repeat per sample."""
    dim = h.dim
    w, v = linalg.eigh(h.mat)
    tilde = linalg.hermitian_part(v.conj().T @ rho0.mat @ v)
    dstate = linalg.hermitian_part(-1j * (h.mat @ rho0.mat - rho0.mat @ h.mat))
    positions, values = _entries(dstate[None])
    speed = linalg._sample_spectra(linalg._Patterns([positions], dim, dim), values)[0]
    kmin = _batch_kmin(_entries(rho0.mat[None])[1], _kmin_plan(positions, dim))
    a, b = np.triu_indices(dim, 1)
    gaps = w[a] - w[b]
    upper = tilde[a, b, None]
    vr, vi = v.real, v.imag

    def sample(times: np.ndarray) -> _Samples:
        n = len(times)
        phases = np.exp(-1j * np.outer(gaps, times))
        xr, xi = (np.repeat(part[:, :, None], n, axis=2) for part in (tilde.real, tilde.imag))
        re, im = linalg._cmul(upper.real, upper.imag, phases.real, phases.imag)
        xr[a, b], xi[a, b] = re, im
        xr[b, a], xi[b, a] = re, -im
        # V X, then (V X) V†, entry (i, j) of each at axes 0 and 1
        ar, ai = _summed(linalg._cmul(vr[:, k, None, None], vi[:, k, None, None], xr[k], xi[k])
                         for k in range(dim))
        sr, si = _summed(linalg._cmul(ar[:, k, None], ai[:, k, None],
                                      vr[None, :, k, None], -vi[None, :, k, None])
                         for k in range(dim))
        values = np.empty((dim * dim, n), dtype=complex)
        values.real = ((sr + sr.swapaxes(0, 1)) / 2).reshape(dim * dim, n)
        values.imag = ((si - si.swapaxes(0, 1)) / 2).reshape(dim * dim, n)
        return _Samples((np.arange(dim * dim), values), np.repeat(speed, n),
                        np.repeat(kmin, n), None)

    return sample


def _summed(terms):
    """The sum of a sequence of (real part, imaginary part) pairs, each
    added in order into the arrays of the first."""
    terms = iter(terms)
    re, im = next(terms)
    for term_re, term_im in terms:
        re += term_re
        im += term_im
    return re, im


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


def _check_gathered_completeness(G: _Gathered, gram: tuple, samples=slice(None)) -> None:
    """Raise CompletenessViolationError unless sum_l K_l†K_l is the
    identity at the samples `samples` of a gathered stack. Entry (c, c')
    sums conj(K_l[i, c]) K_l[i, c'] over the pairs of entries that share
    an operator row (`gram`, the `_gram_pairs` of the stack's entries); an
    entry without pairs is 0. Only the largest deviation is read, so the
    order of the sums is free. An infinite entry, or one whose square
    overflows, makes the deviation infinite or NaN, which fails the
    check."""
    x = G.values[:, samples]
    pairs, diagonal, n = gram
    deviation = np.zeros((n, x.shape[1]), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for k, left, right in pairs:
            deviation[k] = (np.conj(x[left]) * x[right]).sum(axis=0)
    deviation[diagonal] -= 1.0
    dev = float(np.max(np.abs(deviation), initial=0.0))
    if not dev <= COMPLETENESS_TOL:
        raise CompletenessViolationError(f"sum K†K deviates from identity by {dev:.3e}")


def _gram_pairs(G: _Gathered, dim: int) -> tuple:
    """The entries of K†K that `_check_gathered_completeness` holds, for
    a gathered stack: the flat positions that have pairs and the diagonal
    ones, ascending, n of them. Per position with pairs, its index there
    and the left and right entries (e, f) of its pairs, which share an
    operator row and add to position cols[e] dim + cols[f]; and the index
    of each diagonal position."""
    key = G.ops * dim + G.rows
    e, f = np.nonzero(key[:, None] == key)
    slot = G.cols[e] * dim + G.cols[f]
    diagonal = np.arange(dim) * (dim + 1)
    held = np.union1d(slot, diagonal)
    pairs = tuple((int(np.searchsorted(held, p)), e[slot == p], f[slot == p])
                  for p in np.unique(slot).tolist())
    return pairs, np.searchsorted(held, diagonal), len(held)


# Trajectories form the products X_l rho_0 Y_l† of two operator stacks:
# the states K rho_0 K†, the speeds dK rho_0 K† and the rates K rho_0 dK†.
# Every stack is held gathered (`_Gathered`), one time vector per entry
# that can be nonzero: the built-in channels write their entries straight
# from their closed forms, and `_gather` reads any other family's dense
# stacks. A product is contracted in two stages over a shared index,
# A = X rho_0 and then A Y†, each planned from the entries of its factors
# and the pattern of rho_0 alone (`_plan`). An entry sums its terms in
# index order and takes a one-term sum as that term, with no +0 start;
# each term is rounded as einsum rounds a product (`linalg._cmul`'s
# roundings, formed in place on the round's gathered copies). Sums over
# operators run in operator order from a zero start. The states and rates
# share A = K rho_0; completeness sums entry pairs (`_gram_pairs`).
#
# Everything a run forms that depends on its pair's entries alone is
# planned once per set of entries and pattern of rho_0 (`_RunPlan`, kept
# by `_planned`): the stages' plans, the operator-sum rounds and adjoint
# index of the state and the speed matrix (`_Adjoint`), the split of the
# rate products by operator, the spectra's block layouts
# (`linalg._Patterns`), k_min's lower triangle and the completeness
# pairs. A channel gathers the same entries from run to run, so a run
# past the first only looks its plan up. The speed matrix and each
# operator's rate product are written as consecutive rows of one array,
# and all their trace norms take one `linalg._sample_spectra` call, which
# evaluates the blocks of one shape across the matrices together; k_min
# takes one more.
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
# lower triangle to `linalg._sample_spectra` and `_state_deviations` reads
# its trace and asymmetry. Dense stacks are written only where a caller
# reads them: `Trajectory.states`, the end states of a sweep column,
# `apply_channel` and the dense stacks of the built-in channels.
#
# The trajectories of a sweep panel share one store of samples
# (`_columns`): each column is a grid that `_time_grid` made and checked,
# the grids are joined, each distinct sample time is evaluated once in
# runs as long as the longest grid, and each grid is its rows of the
# store. The store keeps what the integrals and the `Trajectory` checks
# read: per sample the speed, k_min and rate, the trace drift and
# asymmetry of the state, and the dense states of the t = 0 sample and of
# each grid's last one. Each column (`_Column`) holds the integral table
# of its rows, its end state and the one t = 0 state, validated; no
# sample leaves `_columns`. This work is elementwise in time, and
# `linalg._sample_spectra` gives each sample the value of its own
# pattern, so a sample gets the same bits in every run it could sit in,
# even where the run gathers entries that are zero at it
# (`TestContractions` pads monomial stacks with zero entries,
# `TestSharedSamples` runs a family that switches permutation). A run that
# fails a check raises as a whole, and each grid that holds one of its
# samples is evaluated again on its own, into its rows of the same store.
# The store checks each sample once, as it is filled, and a grid makes the
# `Trajectory` checks (`_check_samples`) on the deviations and values its
# rows hold only when it holds a failing sample, which gives the error of
# its own `Trajectory` with no run. So a bad sample fails only the grids
# that hold it, with the error of their own call.


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
    `cols`); a V whose `ops` is None pairs with every operator."""
    match = U.cols[:, None] == V.cols
    if V.ops is not None:
        match &= U.ops[:, None] == V.ops
    e, f = np.nonzero(match)
    # one integer per (l, i, m), and per term (l, i, m, s)
    n = 1 + max(U.rows.max(initial=0), U.cols.max(initial=0), V.rows.max(initial=0))
    key = (U.ops[e] * n + U.rows[e]) * n + V.rows[f]
    order = np.argsort(key * n + U.cols[e])
    e, f, key = e[order], f[order], key[order]
    first = np.ones(len(e), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    entry = np.cumsum(first) - 1
    rank = np.arange(len(e)) - starts[entry]
    rounds = [rank == r for r in range(1, rank.max(initial=0) + 1)]
    return _Plan(U.ops[e[starts]], U.rows[e[starts]], V.rows[f[starts]],
                 (e[first], *(e[r] for r in rounds)), (f[first], *(f[r] for r in rounds)),
                 (np.arange(len(starts)), *(entry[r] for r in rounds)))


def _sums(P: _Plan, U, V: np.ndarray, conj: bool = False):
    """The sums of `P` from the real and imaginary parts `U` of U's values
    and the values of V, or of conj(V) when `conj` is set, as their real
    and imaginary parts, shape (n_entries, n_times): one round of textbook
    products at a time, each added to the entry it belongs to. A round's
    products are formed in place on its gathered copies of the factors,
    each real product and sum rounded on its own as `linalg._cmul` rounds
    them (with conj(V), ar*br - ai*(-bi) is ar*br + ai*bi and
    ar*(-bi) + ai*br is ai*br - ar*bi, exactly)."""
    (ur, ui), (vr, vi) = U, (V.real, V.imag)
    out_re = out_im = None
    for left, right, at in zip(P.left, P.right, P.at):
        ar, ai, br, bi = ur[left], ui[left], vr[right], vi[right]
        re = ar * br
        ar *= bi
        # a V of one column (rho_0) is broadcast over the samples
        bi = np.multiply(ai, bi, out=bi if bi.shape == ai.shape else None)
        ai *= br
        if conj:
            re += bi
            ai -= ar
            im = ai
        else:
            re -= bi
            ar += ai
            im = ar
        if out_re is None:
            out_re, out_im = re, im
        elif len(at) == len(out_re):  # every entry, in order
            out_re += re
            out_im += im
        else:
            out_re[at] += re
            out_im[at] += im
        del ar, ai, br, bi, re, im  # before the next round's products are formed
    return out_re, out_im


def _products(P: _Plan, XR, Y: _Gathered) -> np.ndarray:
    """X_l rho_0 Y_l† at the entries of `P`, a plan of X rho_0 against Y,
    from the parts `XR` of X rho_0, shape (n_entries, n_times)."""
    re, im = _sums(P, XR, Y.values, conj=True)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class _Adjoint(NamedTuple):
    """M + M† for M the sum over operators of the products of a `_Plan`,
    planned from its entries. M is held at `n_sums` flat positions,
    ascending, summed in rounds: round r adds, to the positions `at[r]`
    (a slice where it is every position in order), the r-th product there
    in operator order, the products `terms[r]`. M + M† is held at
    `positions`, and entry (i, m) of it is row `left` of M plus the
    conjugate of row `right`, its mirror (i.e. entry (m, i)); `padded` when
    some entry has no row in M, which then reads a zero row past M's."""

    at: tuple
    terms: tuple
    n_sums: int
    positions: np.ndarray
    left: np.ndarray
    right: np.ndarray
    padded: bool


def _adjoint_plan(P: _Plan, dim: int) -> _Adjoint:
    flat = P.rows * dim + P.cols
    present = np.zeros((dim, dim), dtype=bool)
    present.flat[flat] = True
    n_sums = np.count_nonzero(present)
    row = np.full(dim * dim, n_sums)
    row[present.ravel()] = np.arange(n_sums)
    slots = row[flat]
    # the rank of each product among those at its position, in operator order
    counts, rank = {}, []
    for k in slots.tolist():
        rank.append(counts.get(k, 0))
        counts[k] = rank[-1] + 1
    rank = np.array(rank, dtype=int)
    terms = [np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1)]
    at = [slots[t] for t in terms]
    if terms:  # every position has a first product: round 0 in position order
        terms[0] = terms[0][np.argsort(at[0])]
        at[0] = slice(0, n_sums)
    positions = np.flatnonzero(present | present.T)
    i, m = np.divmod(positions, dim)
    left, right = row[positions], row[m * dim + i]
    padded = bool(np.any(left == n_sums) or np.any(right == n_sums))
    return _Adjoint(tuple(at), tuple(terms), n_sums, positions, left, right, padded)


def _plus_adjoint(A: _Adjoint, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """M + M† of `A` from the values of its products, at `A.positions`,
    written into `out` when it is given. Each position of M sums its
    products in operator order from a zero start; a position without a
    product of some operator would add a zero, which leaves a sum started
    from zero as it is."""
    sums = np.zeros((A.n_sums + A.padded, values.shape[1]), dtype=complex)
    for at, terms in zip(A.at, A.terms):
        sums[at] += values[terms]
    return np.add(sums[A.left], np.conj(sums[A.right]), out=out)


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


class _StatePlan(NamedTuple):
    """What forms sum_l K_l rho_0 K_l† from a gathered K, planned from its
    entries and those of rho_0: the pairs of its completeness check
    (`_gram_pairs`), the plans of A = K rho_0 (`R`) and of A K† (`P`), and
    the operator sums and M + M† of the latter (`adjoint`), whose positions
    are the state's."""

    gram: tuple
    R: _Plan
    P: _Plan
    adjoint: _Adjoint


def _state_plan(K: _Gathered, rho: _Gathered, dim: int) -> _StatePlan:
    R = _plan(K, rho)
    P = _plan(R, K)
    return _StatePlan(_gram_pairs(K, dim), R, P, _adjoint_plan(P, dim))


def _state_values(plan: _StatePlan, KR, K: _Gathered) -> np.ndarray:
    """The state of a `_StatePlan` at its positions, from the parts `KR`
    of K rho_0."""
    doubled = _plus_adjoint(plan.adjoint, _products(plan.P, KR, K))
    doubled /= 2
    return doubled


def apply_channel(fam: KrausFamily, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Single-time channel output sum_l K_l(t) rho_0 K_l(t)†, after the
    completeness check that `evolve_kraus` makes. The time must be >= 0
    and finite, else InvalidParamsError."""
    if fam.dim != rho0.dim:
        raise DimMismatchError(f"channel dim {fam.dim} vs state dim {rho0.dim}")
    if not 0.0 <= t < math.inf:
        raise InvalidParamsError(f"time must be >= 0 and finite, got {t}")
    K = fam._exact_ops(np.array([float(t)]))
    rho = _rho_factor(rho0)
    plan = _planned((*_probe_key(rho, rho0.dim), *_entries_key(K)), _state_plan, K, rho,
                    rho0.dim)
    _check_gathered_completeness(K, plan.gram)
    KR = _sums(plan.R, (K.values.real, K.values.imag), rho.values)
    return DensityMatrix(_dense(plan.adjoint.positions, _state_values(plan, KR, K), rho0.dim)[0])


def evolve_kraus(
    fam: KrausFamily, rho0: DensityMatrix, tau: float, n_steps: int = 1001, rates: bool = False
) -> Trajectory:
    """Trajectory of rho_t = sum_l K_l(t) rho_0 K_l(t)† with the analytic
    derivative sum_l (dK_l rho_0 K_l† + K_l rho_0 dK_l†), carrying the summed
    Kraus rates sum_l ||K_l rho_0 dK_l†/dt||_1 when `rates` is set.

    Derivative products use the channel's consistent (possibly regularized)
    pair, built and validated once. Its K serves the states too, except at
    the samples where the family regularizes the pair; those states take
    its exact-time values at K's entries. The built-in channels hand out
    the pair gathered from their closed forms, so no dense stack is built,
    scanned or compared; a user family's dense pair is gathered. The
    products and the states are formed entry by entry, in two planned
    stages, at the entries that can be nonzero, and the speeds, k_min and
    rates take `linalg._sample_spectra`, which evaluates the blocks of
    every matrix on every sample at once and again only where a sample is
    zero at one of its entries. A derivative stack with a NaN or an
    infinity raises InvalidStateError before any product is formed. The
    samples are evaluated in one run, as a sweep's runs evaluate them
    (`_columns`), without its store."""
    return _evolve(fam, rho0, _time_grid(tau, n_steps), rates)


class _RunPlan(NamedTuple):
    """What a run of `_kraus_sampler` forms from its (K, dK) pair, planned
    from the pair's entries and those of rho_0: the state's `_StatePlan`;
    the plans of dK rho_0 (`dR`) and of (dK rho_0) K† (`half`), and the
    operator sums and M + M† of the latter, the speed matrix (`speed`);
    the plan of the rate products (K rho_0) dK†, or None without rates;
    each operator's rate product and then the speed matrix as consecutive
    rows of one array, which `linalg._sample_spectra` reads (`norms`); and
    the lower triangle of the state (`_kmin_plan`)."""

    state: _StatePlan
    dR: _Plan
    half: _Plan
    speed: _Adjoint
    rates: _Plan | None
    norms: linalg._Patterns
    kmin: tuple


def _run_plan(K: _Gathered, dK: _Gathered, rho: _Gathered, dim: int,
              n_ops: int | None) -> _RunPlan:
    """The `_RunPlan` of a pair, with the rates of `n_ops` operators, or
    without them when `n_ops` is None."""
    state = _state_plan(K, rho, dim)
    dR = _plan(dK, rho)
    half = _plan(dR, K)
    speed = _adjoint_plan(half, dim)
    matrices, rates = [], None
    if n_ops is not None:
        rates = _plan(state.R, dK)
        flat = rates.rows * dim + rates.cols
        # the entries come in operator order: each operator's are a run
        ends = np.searchsorted(rates.ops, np.arange(n_ops + 1)).tolist()
        matrices = [flat[a:b] for a, b in zip(ends[:-1], ends[1:])]
    return _RunPlan(state, dR, half, speed, rates,
                    linalg._Patterns([*matrices, speed.positions], dim, dim),
                    _kmin_plan(state.adjoint.positions, dim))


def _entries_key(*stacks: _Gathered) -> tuple:
    """The entries of gathered stacks, as part of the key of what is
    planned from them."""
    return tuple(a.tobytes() for G in stacks for a in (G.ops, G.rows, G.cols))


def _probe_key(rho: _Gathered, dim: int) -> tuple:
    """The pattern of rho_0 (`_rho_factor`), as part of the key of what is
    planned from it."""
    return dim, rho.rows.tobytes(), rho.cols.tobytes()


# Plans by what they are planned from; a full table starts afresh
_PLANS: dict = {}
_MAX_PLANS = 256


def _planned(key: tuple, build, *args):
    """The plan `build(*args)` under `key`, built when it is first asked for."""
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= _MAX_PLANS:
            _PLANS.clear()
        plan = _PLANS[key] = build(*args)
    return plan


def _kraus_sampler(fam: KrausFamily, rho0: DensityMatrix, rates: bool):
    """The per-sample work of `evolve_kraus` on a run of sample times. The
    run raises at the first check it fails, in `evolve_kraus` order, before
    any product is formed.

    What a run forms depends on its values alone once its pair's entries
    are planned (`_run_plan`; the exact-time values at regularized samples
    share K's entries and plan). Each set of entries is planned
    once, when a run first meets it, and kept with the pattern of rho_0
    (`_planned`): a built-in channel gathers the same entries in every
    run, and a user family whose gathered entries change from run to run
    gets a plan for each set. Every trace norm of a run, each operator's
    rate product K_l rho_0 dK_l† and the speed matrix, takes one
    `linalg._sample_spectra` call, and k_min another. For the built-in
    channels every block has at most two rows or columns and takes a
    closed form (a depolarizing product is one dense 2x2 block, an
    amplitude-damping product with the GHZ probe splits into blocks of at
    most 2x1), so no built-in sweep runs an SVD; a family whose products
    are dense and at least 3x3 gets the LAPACK singular-value sums. The
    rates sum the per-operator norms in operator order, as numpy sums a
    row of them (`linalg._sum_rows`)."""
    dim = rho0.dim
    rho = _rho_factor(rho0)
    n_ops = fam.n_ops if rates else None
    probe = _probe_key(rho, dim)

    def sample(times: np.ndarray) -> _Samples:
        K, dK, regularized, exact = fam._trajectory_pair(times)
        plan = _planned((*probe, n_ops, *_entries_key(K, dK)), _run_plan, K, dK, rho, dim, n_ops)
        # the pair's K is the exact-time stack outside the regularized rows
        _check_gathered_completeness(K, plan.state.gram, slice(None) if rates else ~regularized)
        if regularized.any():
            exact = K._replace(values=exact)
            _check_gathered_completeness(exact, plan.state.gram)
        if not np.all(np.isfinite(dK.values)):
            raise InvalidStateError("non-finite Kraus derivative along trajectory")
        KR = _sums(plan.state.R, (K.values.real, K.values.imag), rho.values)
        state = _state_values(plan.state, KR, K)
        # each operator's rate product, then the speed matrix
        norms = np.empty((plan.norms.starts[-1], len(times)), dtype=complex)
        speed = plan.norms.starts[-2]
        if rates:
            products = norms[:speed]
            products.real, products.imag = _sums(plan.rates, KR, dK.values, conj=True)
        del KR
        dKR = _sums(plan.dR, (dK.values.real, dK.values.imag), rho.values)
        half = _products(plan.half, dKR, K)
        del dKR
        _plus_adjoint(plan.speed, half, out=norms[speed:])
        del half
        if regularized.any():
            KR = _sums(plan.state.R, (exact.values.real, exact.values.imag), rho.values)
            state[:, regularized] = _state_values(plan.state, KR, exact)
        spectra = linalg._sample_spectra(plan.norms, norms)
        return _Samples((plan.state.adjoint.positions, state), spectra[-1],
                        _batch_kmin(state, plan.kmin),
                        linalg._sum_rows(spectra[:-1]) if rates else None)

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
    """What a panel keeps per distinct sample time, as `_columns` and
    `_check_samples` read it: the time; the speed, k_min and rate; the
    trace drift and asymmetry of the state (`_state_deviations`); whether
    the sample passes every condition of `_check_samples`, taken once per
    sample as it is filled; whether the sample is missing: no run that
    holds it has passed; and the dense states of the samples `ends`
    (ascending), the only states a column reads: the t = 0 sample and each
    horizon's last one. A missing sample holds zeros, which pass every
    check."""

    def __init__(self, times: np.ndarray, ends: np.ndarray, dim: int):
        n = len(times)
        self.times, self.ends, self.dim = times, ends, dim
        self.speeds, self.kmins, self.rates = np.zeros(n), np.zeros(n), None
        self.drift, self.asym = np.zeros(n), np.zeros(n)
        self.end_states = np.zeros((len(ends), dim, dim), dtype=complex)
        self.passes = np.ones(n, dtype=bool)
        self.missing = np.ones(n, dtype=bool)

    def fill(self, sampler, rows: np.ndarray) -> AzqslError | None:
        """Evaluate the samples `rows` (ascending) in one run of `sampler`
        and hold them, or return the error the run raised and leave the
        store as it is."""
        samples = _attempt(sampler, self.times[rows])
        if isinstance(samples, AzqslError):
            return samples
        positions, values = samples.state
        at = np.minimum(np.searchsorted(rows, self.ends), len(rows) - 1)
        held = rows[at] == self.ends
        self.end_states[held] = _dense(positions, values[:, at[held]], self.dim)
        drift, asym = _state_deviations(positions, values, self.dim)
        self.drift[rows], self.asym[rows] = drift, asym
        self.speeds[rows], self.kmins[rows] = samples.speeds, samples.kmins
        # a NaN fails every comparison, as it fails `_check_samples`
        passes = ((drift <= TRACE_DRIFT_TOL) & (asym <= linalg.HERMITIAN_TOL)
                  & _valid(samples.speeds) & _valid(samples.kmins))
        if samples.rates is not None:
            if self.rates is None:
                self.rates = np.zeros(len(self.speeds))
            self.rates[rows] = samples.rates
            passes &= _valid(samples.rates)
        self.passes[rows] = passes
        self.missing[rows] = False
        return None

    def check(self, rows: np.ndarray) -> None:
        """`_check_samples` of the samples `rows`, made only when one of
        them fails a check: samples that pass apart pass together."""
        if self.passes[rows].all():
            return
        _check_samples(len(rows), self.drift[rows], self.asym[rows],
                       self.speeds[rows], self.kmins[rows],
                       None if self.rates is None else self.rates[rows])

    def end_state(self, row: int) -> np.ndarray:
        """The dense state of the sample `row`, one of `ends`."""
        return self.end_states[np.searchsorted(self.ends, row)]


def _valid(values: np.ndarray) -> np.ndarray:
    """Per sample, whether a speed, k_min or rate is finite and >= 0."""
    return np.isfinite(values) & (values >= 0)


def _sampler(model, rho0: DensityMatrix, rates: bool):
    """The per-sample work of `evolve_unitary` (a Hamiltonian) or
    `evolve_kraus` (a Kraus family) from `rho0`."""
    if model.dim != rho0.dim:
        kind = "H" if isinstance(model, HamiltonianModel) else "channel"
        raise DimMismatchError(f"{kind} dim {model.dim} vs state dim {rho0.dim}")
    if isinstance(model, HamiltonianModel):
        return _unitary_sampler(model, rho0)
    return _kraus_sampler(model, rho0, rates)


class _Column(NamedTuple):
    """What `qsl._fill` reads of one horizon's trajectory: the table
    integrate(times, kmins, (speeds, rates)) of its samples (`rates` None
    without them), and its states at t = 0 and at the horizon, each a
    DensityMatrix or the error its validation raised."""

    table: tuple
    initial_state: DensityMatrix | AzqslError
    final_state: DensityMatrix | AzqslError


def _columns(model, rho0: DensityMatrix, grids, rates: bool, integrate) -> list:
    """One `_Column`, or the AzqslError it ended in, per time grid of the
    iterable `grids` (each from `_time_grid`, or the error making it
    raised) of `model` from `rho0`, in order: the `integrate` table of what
    `_evolve` gives on that grid, or the error it raises, read from one
    `_SampleStore` with no `Trajectory`. Grids that only `grids` holds are
    freed before the runs.

    The grids are joined in one pass that gives every grid its rows of the
    store, and every distinct sample time is evaluated once, in runs as
    long as the longest grid. Every per-sample quantity is elementwise in
    time and `linalg._sample_spectra` gives each sample the value of its
    own pattern, so a sample has the same bits whichever grids hold it; the
    entries a run's other samples add to a gathered stack are zero at it
    and add only exact zeros. A run that fails a check raises as a whole,
    so each grid that holds a sample of it is evaluated again on its own,
    written into its rows, and gets the outcome of its own call. A
    re-evaluation that raises leaves the store as it is, and a grid whose
    rows earlier re-evaluations refilled is not evaluated again. Each
    sample is checked once, as it is filled, and a grid makes
    `_check_samples` on its own rows only when it holds a failing sample,
    which gives the error of its own `Trajectory` with no further run.

    Every grid starts at t = 0, so every column shares the store's first
    sample, validated once, as its initial state; each end state is
    validated on its own."""
    sampler, grids = _attempt(_sampler, model, rho0, rates), list(grids)
    if isinstance(sampler, AzqslError):
        return [sampler] * len(grids)
    live = [grid for grid in grids if not isinstance(grid, AzqslError)]
    if not live:
        return grids
    # every grid's rows of the store, from one pass over the joined grids
    times, rows = np.unique(np.concatenate(live), return_inverse=True)
    bounds = np.cumsum([len(grid) for grid in live])
    held_rows = iter(np.split(rows, bounds[:-1]))
    outcomes = [grid if isinstance(grid, AzqslError) else next(held_rows) for grid in grids]
    store = _SampleStore(times, np.unique(rows[np.r_[0, bounds - 1]]), rho0.dim)
    run, index = max(len(grid) for grid in live), np.arange(len(times))
    del grids, live
    for start in range(0, len(times), run):
        store.fill(sampler, index[start:start + run])
    # `fill` and `_attempt` of a check give None where they pass
    for h, rows in enumerate(outcomes):
        if not isinstance(rows, AzqslError):
            own = store.fill(sampler, rows) if store.missing[rows].any() else None
            outcomes[h] = own or _attempt(store.check, rows) or rows
    probe = _attempt(DensityMatrix, store.end_state(0))
    for h, rows in enumerate(outcomes):
        if not isinstance(rows, AzqslError):
            rates = None if store.rates is None else store.rates[rows]
            outcomes[h] = _Column(
                integrate(store.times[rows], store.kmins[rows], (store.speeds[rows], rates)),
                probe, _attempt(DensityMatrix, store.end_state(rows[-1])))
    return outcomes


def _evolve(model, rho0: DensityMatrix, times: np.ndarray, rates: bool) -> Trajectory:
    """`evolve_unitary` or `evolve_kraus` on the grid `times`, in one run."""
    samples = _sampler(model, rho0, rates)(times)
    return Trajectory(times, _dense(*samples.state, rho0.dim), *samples[1:])
