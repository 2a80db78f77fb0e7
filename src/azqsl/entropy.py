"""Two-parameter Renyi relative entropies between density matrices.

The central object is the relative purity

    g(rho, sigma) = Tr[ (sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z ],

from which the entropy is ln(g)/(a - 1) on matching supports and +inf
otherwise. For a in (0, 1), g <= 1 with equality iff rho = sigma, so the
entropy is nonnegative and vanishes only for identical states. Matrix powers
are taken spectrally on the support; no eigenvalue regularization is applied
anywhere, and +inf is an explicit return value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimMismatchError, InvalidParamsError, SupportViolationError
from .states import DensityMatrix, support_contained


@dataclass(frozen=True)
class EntropyParams:
    """Order pair (alpha, z) with its data-processing classification.

    dpi_valid marks 1 >= z >= max(alpha, 1 - alpha), the region where the
    entropy is monotone under channels. Pairs outside it (with z > 0) still
    evaluate; they are flagged, not refused.
    """

    alpha: float
    z: float
    dpi_valid: bool = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParamsError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.z < math.inf:
            raise InvalidParamsError(f"z must be positive and finite, got {self.z}")
        valid = max(self.alpha, 1.0 - self.alpha) <= self.z <= 1.0
        object.__setattr__(self, "dpi_valid", valid)

    @property
    def swapped(self) -> "EntropyParams":
        """Same z with alpha -> 1 - alpha."""
        return EntropyParams(1.0 - self.alpha, self.z)


def _check_dims(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"dims {rho.dim} and {sigma.dim} differ")


# Eigenvalues of the sandwiched product below this (relative to the largest)
# sit at the eigensolver's noise floor and carry no reliable digits. The
# z-power trace is brutally sensitive there for small z (an eigenvalue of
# relative size 1e-13 still contributes ~ (1e-13)^z of the leading term), so
# an unresolved smallest eigenvalue is reconstructed from the determinant,
# which factorizes exactly over the input spectra.
_ZPOW_NOISE_REL = 1e-13


def _zpow_trace(
    vals: np.ndarray, rho: DensityMatrix, sigma: DensityMatrix, alpha: float, z: float
) -> float:
    """Tr core^z from the clamped ascending spectrum of one sandwiched core."""
    top = float(vals[-1])
    if top <= 0.0:
        return 0.0
    resolved = vals[vals >= _ZPOW_NOISE_REL * top]
    unresolved = len(vals) - len(resolved)
    if unresolved == 1 and rho.full_rank and sigma.full_rank:
        # det(core) = det(sigma)^(2 c) det(rho)^(alpha/z) in log space
        half_exp = (1.0 - alpha) / (2.0 * z)
        logdet = 2.0 * half_exp * np.log(sigma.eigenvalues).sum() + (alpha / z) * np.log(
            rho.eigenvalues
        ).sum()
        smallest = math.exp(logdet - np.log(resolved).sum())
        return float((resolved**z).sum() + smallest**z)
    return float((resolved**z).sum())


def _stack_powers(states: list, exponents) -> np.ndarray:
    """`linalg.spectral_powers` of each of a list of states, shape
    (len(states), len(exponents), dim, dim). A state listed more than once
    (the same object) has its powers taken once and copied, so every
    operand stays contiguous, as for one state at a time."""
    index, distinct = {}, []
    for state in states:
        if id(state) not in index:
            index[id(state)] = len(distinct)
            distinct.append(state)
    if len(distinct) == 1:
        one = distinct[0]
        powers = linalg.spectral_powers(one.eigenvalues, one.eigenvectors, exponents)[None]
    else:
        powers = linalg.spectral_powers(np.array([s.eigenvalues for s in distinct]),
                                        np.array([s.eigenvectors for s in distinct]), exponents)
    return powers if len(distinct) == len(states) else powers[[index[id(s)] for s in states]]


def _petz_traces(rhos: list, sigmas: list, alphas: list[float]) -> np.ndarray:
    """Tr(sigma_i^(1-a) rho_i^a) of the pairs of two lists of states for
    every alpha, shape (n_pairs, len(alphas)), as sum_jk mu_j^(1-a)
    |<v_j|u_k>|^2 lambda_k^a from the cached spectra of sigma (mu, v) and
    rho (lambda, u). The sums run elementwise over the (pair, alpha) cells
    in a fixed j, k order, so a cell has the same bits in any batch."""
    overlaps = (np.array([s.eigenvectors for s in sigmas]).conj().swapaxes(-1, -2)
                @ np.array([r.eigenvectors for r in rhos]))
    weights = overlaps.real ** 2 + overlaps.imag ** 2
    # the eigenvalue powers, shape (dim, n_pairs, n_alphas)
    outer = linalg.eigenvalue_powers(np.array([s.eigenvalues for s in sigmas]),
                                     [1.0 - a for a in alphas]).T
    inner = linalg.eigenvalue_powers(np.array([r.eigenvalues for r in rhos]), alphas).T
    return sum(outer_j * sum(weights[:, j, k, None] * inner_k for k, inner_k in enumerate(inner))
               for j, outer_j in enumerate(outer))


def _purities(rhos: list, sigmas: list, alphas: list[float], z: float) -> np.ndarray:
    """g(rho_i, sigma_i) of the pairs of two lists of states for every
    alpha at one z, shape (n_pairs, len(alphas)).

    At z = 1, g is `_petz_traces`. Otherwise all matrix powers come from
    the states' cached spectra, once per distinct state, and the sandwiched
    cores of every pair and alpha are diagonalized in one batch. Every step
    is core by core, so a pair's values are those of the pair on its own,
    bit for bit.
    """
    if z == 1.0:
        return _petz_traces(rhos, sigmas, alphas)
    outer = _stack_powers(sigmas, [(1.0 - a) / (2.0 * z) for a in alphas])
    cores = outer @ _stack_powers(rhos, [a / z for a in alphas])
    cores = cores @ outer
    del outer
    spectra = np.maximum(np.linalg.eigvalsh(linalg.hermitian_part(cores)), 0.0)
    del cores
    # the plain power sum of every core at once (the same bits as one core
    # at a time); a core whose spectrum is not fully resolved goes through
    # _zpow_trace instead
    traces = (spectra**z).sum(axis=-1)
    tops = spectra[..., -1:]
    resolved = (tops[..., 0] > 0.0) & (spectra >= _ZPOW_NOISE_REL * tops).all(axis=-1)
    if not resolved.all():
        for i, j in zip(*np.nonzero(~resolved)):
            traces[i, j] = _zpow_trace(spectra[i, j], rhos[i], sigmas[i], alphas[j], z)
    return traces


def _purity_value(rho: DensityMatrix, sigma: DensityMatrix, alpha: float, z: float) -> float:
    return float(_purities([rho], [sigma], [alpha], z)[0, 0])


def relative_purity(rho: DensityMatrix, sigma: DensityMatrix, p: EntropyParams) -> float:
    """g(rho, sigma); requires supp(rho) ⊆ supp(sigma)."""
    _check_dims(rho, sigma)
    if not support_contained(rho, sigma):
        raise SupportViolationError("supp(rho) not contained in supp(sigma)")
    return _purity_value(rho, sigma, p.alpha, p.z)


def _renyi_az_grid(rhos: list, sigmas: list, alphas: list[float], z: float) -> np.ndarray:
    """renyi_az(rho_i, sigma_i) of the pairs of two lists of states for
    every alpha of a grid at one z, shape (n_pairs, len(alphas)): each pair
    on its own support test, and the pairs that pass it sharing the
    spectral work of `_purities`."""
    # `support_contained` raises `_check_dims`' error on a dim mismatch
    held = [i for i, pair in enumerate(zip(rhos, sigmas)) if support_contained(*pair)]
    values = np.empty((0, len(alphas)))
    if held:
        gs = _purities([rhos[i] for i in held], [sigmas[i] for i in held], alphas, z)
        # math.log per cell (it raises on g <= 0); float division is correctly
        # rounded, so one array division gives each cell's scalar quotient
        logs = np.array(list(map(math.log, gs.ravel().tolist())), dtype=float)
        values = logs.reshape(gs.shape) / (np.array(alphas, dtype=float) - 1.0)
    # made after `_purities`' temporaries: made before, it grows a sweep's heap
    out = np.full((len(rhos), len(alphas)), math.inf)
    out[held] = values
    return out


def renyi_az(rho: DensityMatrix, sigma: DensityMatrix, p: EntropyParams) -> float:
    """ln(g)/(alpha - 1) on matching supports, +inf otherwise."""
    return float(_renyi_az_grid([rho], [sigma], [p.alpha], p.z)[0, 0])


def renyi_az_symmetrized(rho: DensityMatrix, sigma: DensityMatrix, p: EntropyParams) -> float:
    """Sum of both orderings; +inf if either direction diverges."""
    return renyi_az(rho, sigma, p) + renyi_az(sigma, rho, p)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), symmetric: g at (1/2, 1/2), whose
    core eigenvalues below `_ZPOW_NOISE_REL` of the largest count as noise, as for every member."""
    _check_dims(rho, sigma)
    return _purity_value(rho, sigma, 0.5, 0.5)


def petz(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """ln Tr(rho^a sigma^(1-a)) / (a - 1) for a in (0,1) or (1, inf).

    For a > 1 the sigma power is negative, taken as a generalized inverse;
    the value is +inf when the support condition fails.
    """
    _check_dims(rho, sigma)
    # a NaN order fails the range check
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidParamsError(f"Petz order must be positive, finite and != 1, got {alpha}")
    return float(_renyi_az_grid([rho], [sigma], [alpha], 1.0)[0, 0])


def sandwiched(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """Renyi divergence at z = alpha; +inf on a support violation."""
    _check_dims(rho, sigma)
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidParamsError(f"order must be positive, finite and != 1, got {alpha}")
    return float(_renyi_az_grid([rho], [sigma], [alpha], alpha)[0, 0])


def umegaki(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho (ln rho - ln sigma) with 0 ln 0 = 0; +inf off-support."""
    _check_dims(rho, sigma)
    if not support_contained(rho, sigma):
        return math.inf

    def log_on_support(dm: DensityMatrix) -> np.ndarray:
        vals = dm.eigenvalues
        logs = np.where(vals > linalg.SUPPORT_TOL, np.log(np.where(vals > 0, vals, 1.0)), 0.0)
        return (dm.eigenvectors * logs) @ dm.eigenvectors.conj().T

    diff = log_on_support(rho) - log_on_support(sigma)
    return float(np.real(np.trace(rho.mat @ diff)))


def min_relative(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """-2 ln F(rho, sigma); +inf for orthogonal states."""
    f = fidelity(rho, sigma)
    if f <= 0.0:
        return math.inf
    return -2.0 * math.log(f)


def max_relative(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """ln of the largest eigenvalue of sigma^(-1/2) rho sigma^(-1/2)."""
    _check_dims(rho, sigma)
    if not support_contained(rho, sigma):
        return math.inf
    inv_root = _stack_powers([sigma], [-0.5])[0, 0]
    conjugated = linalg.hermitian_part(inv_root @ rho.mat @ inv_root)
    top = float(np.linalg.eigvalsh(conjugated)[-1])
    return math.log(top)


def affinity_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """The (alpha, z) = (1/2, 1) member; -2 ln of the quantum affinity."""
    return renyi_az(rho, sigma, EntropyParams(0.5, 1.0))


_SPECIAL_CASES = {
    "petz": lambda r, s, a: petz(r, s, a),
    "sandwiched": lambda r, s, a: sandwiched(r, s, a),
    "umegaki": lambda r, s, a: umegaki(r, s),
    "min_rel": lambda r, s, a: min_relative(r, s),
    "max_rel": lambda r, s, a: max_relative(r, s),
    "fidelity": lambda r, s, a: fidelity(r, s),
    "affinity": lambda r, s, a: affinity_entropy(r, s),
}


def special_case(
    rho: DensityMatrix, sigma: DensityMatrix, which: str, alpha: float | None = None
) -> float:
    """Dispatch to a named special case; `alpha` is required for the
    parametrized families (petz, sandwiched)."""
    try:
        fn = _SPECIAL_CASES[which]
    except KeyError:
        raise InvalidParamsError(
            f"unknown special case {which!r}; choose from {sorted(_SPECIAL_CASES)}"
        ) from None
    if which in ("petz", "sandwiched") and alpha is None:
        raise InvalidParamsError(f"{which} requires an alpha order")
    return fn(rho, sigma, alpha)
