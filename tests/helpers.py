"""Shared random-instance generators and oracles for the test suite."""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from azqsl.dynamics import (
    _AD_SUPPORT,
    AmplitudeDampingFamily,
    AmplitudeDampingParams,
    KrausFamily,
    _time_grid,
)
from azqsl.entropy import EntropyParams
from azqsl.errors import InvalidPError, SingularMatrixError, _attempt
from azqsl.linalg import SUPPORT_TOL, hermitian_part
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed


def random_density(rng, dim: int) -> DensityMatrix:
    """Full-rank state from a rectangular Ginibre draw (well conditioned)."""
    x = rng.normal(size=(dim, 2 * dim)) + 1j * rng.normal(size=(dim, 2 * dim))
    m = x @ x.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def random_unitary(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class StinespringFamily(KrausFamily):
    """Dense trace-preserving family K_l(t) = (<l| ⊗ I) e^(-iHt) (|0> ⊗ I)
    for a Hermitian H on the n_ops * dim dilation, with the analytic
    derivatives dK_l = (<l| ⊗ I) (-iH) e^(-iHt) (|0> ⊗ I), batched over
    times."""

    def __init__(self, h: np.ndarray, dim: int, n_ops: int):
        super().__init__(dim=dim, n_ops=n_ops, ops_fn=None, dops_fn=None)
        self.h = h
        self._w, self._v = np.linalg.eigh(h)

    def _isometries(self, times) -> np.ndarray:
        # the first dim columns of e^(-iHt), rows indexed by l * dim + i
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self._w))
        return (self._v * phases[:, None, :]) @ self._v[: self.dim].conj().T

    def _split(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(len(u), self.n_ops, self.dim, self.dim)

    def stacks(self, times):
        u = self._isometries(times)
        return self._split(u), self._split(-1j * self.h @ u)


def stinespring_family(rng, dim: int, n_ops: int) -> StinespringFamily:
    return StinespringFamily(random_hermitian(rng, n_ops * dim), dim, n_ops)


class ThreeQubitDampingFamily(KrausFamily):
    """Three-qubit product family K_a ⊗ K_b ⊗ K_c, operator 4a + 2b + c,
    of the single-qubit amplitude-damping pair

        K_1 = |0><0| + gamma_t |1><1|,   K_2 = sqrt(1 - gamma_t^2) |0><1|,

    with product-rule derivatives: 8 operators of dim 8. The single-qubit
    entries and their derivatives are the closed forms of
    `AmplitudeDampingFamily`, and each of the 27 products of three support
    entries is taken in real numbers in a fixed order, so a sample's
    operators do not depend on the times it is evaluated with. Trajectories
    gather its dense stacks; its states and products have 64 entries and
    split into small blocks."""

    def __init__(self, params: AmplitudeDampingParams):
        super().__init__(dim=8, n_ops=8, ops_fn=None, dops_fn=None)
        self.qubit = AmplitudeDampingFamily(params)

    def stacks(self, times):
        S, dS = (x.real for x in self.qubit._pair_stacks(np.asarray(times, dtype=float)))
        K, dK = np.zeros((2, len(times), 8, 8, 8), dtype=complex)
        # support entry f of the first qubit's operator, g of the second's
        # and h of the third's: (operator, row, column) each as in np.kron
        for f, g, h in itertools.product(range(3), repeat=3):
            op, row, col = 4 * _AD_SUPPORT[f] + 2 * _AD_SUPPORT[g] + _AD_SUPPORT[h]
            K[:, op, row, col] = S[f] * S[g] * S[h]
            dK[:, op, row, col] = dS[f] * S[g] * S[h] + S[f] * dS[g] * S[h] + S[f] * S[g] * dS[h]
        return K, dK


def ghz3_mixed(p: float) -> DensityMatrix:
    """[(1-p)/8] I + p |GHZ3><GHZ3|, |GHZ3> = (|000> + |111>)/sqrt(2)."""
    ket = np.zeros(8, dtype=complex)
    ket[0] = ket[7] = 1.0 / np.sqrt(2.0)
    mat = (1.0 - p) / 8.0 * np.eye(8, dtype=complex) + p * np.outer(ket, ket.conj())
    return DensityMatrix(mat)


def random_params(rng, dpi_valid: bool = True) -> EntropyParams:
    alpha = rng.uniform(0.05, 0.95)
    if dpi_valid:
        z = rng.uniform(max(alpha, 1.0 - alpha), 1.0)
    else:
        z = rng.uniform(0.05, 1.0)
    return EntropyParams(float(alpha), float(z))


def random_bloch_state(rng, r_max: float = 0.95):
    bv = BlochVector(
        float(rng.uniform(0.02, r_max)),
        float(rng.uniform(0.0, np.pi)),
        float(rng.uniform(0.0, 2 * np.pi)),
    )
    return bloch_state(bv), bv


def random_ghz_state(rng, p_max: float = 0.95):
    params = GHZMixedParams(float(rng.uniform(0.02, p_max)))
    return ghz_mixed(params), params


@lru_cache(maxsize=32)
def _jacobi_rule(n: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights for the weight (1-x)^(-s) (1+x)^(s-1)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return roots_jacobi(n, -s, s - 1.0)


def mat_pow_integral(m: np.ndarray, s: float, quad_points: int = 2000) -> np.ndarray:
    """m^s for 0 < s < 1 from the resolvent integral

        m^s = sin(pi s)/pi * ∫_0^∞ x^(s-1) m (m + x I)^(-1) dx,

    mapped to the unit interval by x = u/(1-u). The transformed integrand
    carries the weight u^(s-1) (1-u)^(-s) times the smooth matrix factor
    m [(1-u) m + u I]^(-1), so the weight is absorbed exactly by Gauss-Jacobi
    nodes and the solver never touches an eigendecomposition of m: a
    cross-check oracle for `linalg.mat_pow`.
    """
    if not 0.0 < s < 1.0:
        raise InvalidPError(f"integral representation requires 0 < s < 1, got {s}")
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    smallest = float(np.linalg.eigvalsh(hermitian_part(m))[0])
    if smallest <= SUPPORT_TOL:
        raise SingularMatrixError(
            f"integral oracle needs a strictly positive matrix (min eig {smallest:.3e})"
        )
    nodes, weights = _jacobi_rule(quad_points, s)
    u = (1.0 + nodes) / 2.0
    eye = np.eye(dim, dtype=complex)
    shifted = (1.0 - u)[:, None, None] * m[None] + u[:, None, None] * eye[None]
    solved = np.linalg.solve(shifted, np.broadcast_to(m, shifted.shape))
    total = np.tensordot(weights, solved, axes=(0, 0))
    return hermitian_part(math.sin(math.pi * s) / math.pi * total)


def time_grids(taus, n_steps: int) -> list:
    """The grids of `n_steps` samples of the horizons `taus` that a sweep
    hands `dynamics._columns`: each a `_time_grid`, or the error it raised."""
    return [_attempt(_time_grid, tau, n_steps) for tau in taus]


def samples_of(times, kmins, rates) -> tuple:
    """An `integrate` for `dynamics._columns` that returns its inputs: a
    column's table is then its samples, times, k_min and (speeds, rates)."""
    return times, kmins, rates
