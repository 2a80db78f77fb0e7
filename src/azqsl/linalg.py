"""Dense complex-matrix kernel: Hermitian eigendecomposition, fractional
matrix powers, Schatten p-norms, and tensor products.

All routines treat matrices as plain complex numpy arrays. The intended
regime is small dense matrices (dimension 2 to 8 or so); nothing here is
tuned for large problems.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    InvalidPError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
)

# Tolerances shared across modules.
HERMITIAN_TOL = 1e-10   # max-entry asymmetry allowed before rejecting input
PSD_TOL = 1e-10         # eigenvalues in (-PSD_TOL, 0) clamp to zero
SUPPORT_TOL = 1e-12     # eigenvalues at or below this count as zero

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class Eigensystem(NamedTuple):
    """Eigenvalues (ascending) and the unitary of column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m†) / 2; a stack of matrices is symmetrized matrix by matrix."""
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2


def asymmetry(m: np.ndarray) -> float:
    """Max-entry deviation of m from its Hermitian part."""
    return float(np.max(np.abs(m - m.conj().T)))


def eigh(m: np.ndarray) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError if the max-entry asymmetry exceeds
    HERMITIAN_TOL, and
    NoConvergenceError if the underlying solver gives up. Eigenvalues come
    back ascending; vectors are the columns of a unitary.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if asymmetry(m) > HERMITIAN_TOL:
        raise NotHermitianError(
            f"matrix asymmetry {asymmetry(m):.3e} exceeds tolerance {HERMITIAN_TOL:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return Eigensystem(values, vectors)


def mat_pow(m: np.ndarray, s: float) -> np.ndarray:
    """Fractional power m^s of a PSD Hermitian matrix via its spectrum.

    Eigenvalues in (-PSD_TOL, 0) (relative to the largest, or to 1) are
    clamped to zero; anything more negative raises NotPSDError. The power
    itself is `spectral_powers` of the clamped spectrum.
    """
    values, vectors = eigh(m)
    if values[0] < -PSD_TOL * max(values[-1], 1.0):
        raise NotPSDError(f"smallest eigenvalue {values[0]:.3e} below tolerance")
    return spectral_powers(np.maximum(values, 0.0), vectors, [s])[0]


def spectral_powers(values: np.ndarray, vectors: np.ndarray, exponents) -> np.ndarray:
    """Powers m^s of one PSD matrix, one per exponent, from its clamped
    ascending spectrum; shape (len(exponents), dim, dim).

    The support cut SUPPORT_TOL is relative to the largest eigenvalue
    (solver noise scales with the matrix norm, and products like
    sigma^(large) rho sigma^(large) carry genuinely tiny spectra that an
    absolute cut would destroy); eigenvalues below it map to zero for every
    exponent, so negative powers act as generalized inverses on the
    support. Each exponent's eigenvalue powers are taken on their own, so a
    batch gives the same bits as one exponent at a time.
    """
    on_support = values > SUPPORT_TOL * values[-1]
    kept = values[on_support]
    powered = np.zeros((len(exponents), len(values)))
    for row, s in zip(powered, exponents):
        row[on_support] = kept ** s
    return hermitian_part((vectors * powered[:, None, :]) @ vectors.conj().T)


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
    nodes and the solver never touches an eigendecomposition of m. Intended
    purely as a cross-check oracle for mat_pow.
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


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, descending."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm: (sum_i sigma_i^p)^(1/p); p may be math.inf."""
    if p != math.inf and p < 1.0:
        raise InvalidPError(f"Schatten order must be >= 1 or inf, got {p}")
    sv = singular_values(m)
    if p == math.inf:
        return float(sv[0]) if sv.size else 0.0
    if p == 1.0:
        return float(sv.sum())
    return float((sv**p).sum() ** (1.0 / p))


def trace_norm(m: np.ndarray) -> float:
    """Schatten 1-norm, the sum of singular values."""
    return schatten_norm(m, 1.0)


# A sparsity pattern is coded as one int64 with a bit per entry; matrices
# with more entries go to LAPACK whole.
_PATTERN_ENTRIES = 62


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """||X||_1 for every matrix of a (..., r, c) stack, shape (...).

    Rows and columns joined by a nonzero entry of a matrix form a block,
    and the singular values of the matrix are the union of its blocks'.
    The pattern is each matrix's own: matrices are grouped by a pattern
    code, the blocks are found once per distinct code, and a matrix's norm
    depends on that matrix alone, so a stack row equals the one-matrix call
    bit for bit. A block with one row or column has rank <= 1 and its norm
    is the Frobenius norm; a block with two rows (or columns) has norm
    sqrt(||B||_F^2 + 2 sigma_1 sigma_2), with sigma_1 sigma_2 the root of
    the summed squared 2x2 minors (Cauchy-Binet), which holds for
    rank-deficient blocks too. Both closed forms work on the block scaled
    by its largest |entry|. Blocks of at least 3x3, and matrices of more
    than 62 entries, take the sum of their LAPACK singular values, so a
    dense matrix of size >= 3 gets exactly `svd(m).sum()`. Entries must be
    finite.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, r, c = stack.shape
    if r * c > _PATTERN_ENTRIES:
        return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    flat = stack.reshape(-1, r * c)
    norms = np.zeros(len(flat))
    for members, blocks in _pattern_groups(flat != 0, r, c):
        for entries in blocks:
            norms[members] += _block_norms(flat[members[:, None, None], entries])
    return norms.reshape(lead)


def _pattern_groups(pattern: np.ndarray, r: int, c: int):
    """For each distinct r x c pattern of an (n, r * c) boolean stack, the
    indices of the matrices that have it and its `_pattern_blocks`."""
    codes = pattern @ (1 << np.arange(r * c, dtype=np.int64))
    uniq, inverse = np.unique(codes, return_inverse=True)
    for u, code in enumerate(uniq):
        yield np.flatnonzero(inverse == u), _pattern_blocks(int(code), r, c)


@lru_cache(maxsize=256)
def _pattern_blocks(code: int, r: int, c: int) -> tuple[np.ndarray, ...]:
    """The blocks of an r x c sparsity pattern, each as the flat indices of
    its entries, shape (block rows, block columns). Blocks come in the
    order of their first row; all-zero rows and columns are in none."""
    nonzero = [{j for j in range(c) if (code >> (i * c + j)) & 1} for i in range(r)]
    seen = set()
    blocks = []
    for first in range(r):
        if first in seen or not nonzero[first]:
            continue
        rows, cols, frontier = {first}, set(), {first}
        while frontier:
            new_cols = set().union(*(nonzero[i] for i in frontier)) - cols
            cols |= new_cols
            frontier = {k for k in range(r) if nonzero[k] & new_cols} - rows
            rows |= frontier
        seen |= rows
        entries = np.array(sorted(rows))[:, None] * c + np.array(sorted(cols))
        entries.setflags(write=False)  # cached, shared by every call
        blocks.append(entries)
    return tuple(blocks)


def _block_norms(block: np.ndarray) -> np.ndarray:
    """Trace norms of an (n, p, q) stack of blocks with one pattern."""
    n, p, q = block.shape
    if min(p, q) > 2:
        return np.linalg.svd(block, compute_uv=False).sum(axis=-1)
    mags = np.abs(block).reshape(n, -1)
    scale = mags.max(axis=-1)
    frobenius = np.square(mags / scale[:, None]).sum(axis=-1)
    if min(p, q) == 1:
        return scale * np.sqrt(frobenius)
    two_rows = block if p == 2 else np.swapaxes(block, 1, 2)
    top, bottom = np.moveaxis(two_rows / scale[:, None, None], 1, 0)
    minors = np.zeros(n)
    for i in range(top.shape[-1] - 1):
        m = top[:, i, None] * bottom[:, i + 1:] - top[:, i + 1:] * bottom[:, i, None]
        minors += (m.real * m.real + m.imag * m.imag).sum(axis=-1)
    return scale * np.sqrt(frobenius + 2.0 * np.sqrt(minors))


def min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every Hermitian matrix of a (..., n, n)
    stack, shape (...).

    As in `eigvalsh`, only the lower triangle and the real part of the
    diagonal are read. Rows joined by a nonzero entry of the lower triangle
    form a diagonal block, and the spectrum of the matrix is the union of
    its blocks' spectra plus a zero for each row that lies in no block
    (an all-zero row). As in `trace_norms`, the blocks come from each
    matrix's own pattern, so a stack row equals the one-matrix call bit for
    bit. A 1x1 block is its diagonal entry. A 2x2 block, scaled by its
    largest |entry|, has diagonal a, d, lower entry b, mean m = (a + d)/2
    and radius r = sqrt(((a - d)/2)^2 + |b|^2); its smaller eigenvalue is
    (ad - |b|^2)/(m + r) when m > 0, which divides the determinant by the
    larger eigenvalue without cancellation, and m - r otherwise. Blocks of
    at least 3x3, and matrices of more than 62 entries, take the smallest
    LAPACK `eigvalsh` eigenvalue.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, n, _ = stack.shape
    if n * n > _PATTERN_ENTRIES:
        return np.linalg.eigvalsh(stack)[..., 0]
    flat = stack.reshape(-1, n * n)
    lower = np.tril(stack.reshape(-1, n, n) != 0)
    pattern = lower | np.swapaxes(lower, 1, 2)
    diagonal = np.arange(n)
    # every row with a nonzero joins its own column, so blocks are square
    pattern[:, diagonal, diagonal] = pattern.any(axis=2)
    mins = np.empty(len(flat))
    for members, blocks in _pattern_groups(pattern.reshape(-1, n * n), n, n):
        low = np.full(len(members), 0.0 if sum(map(len, blocks)) < n else np.inf)
        for entries in blocks:
            low = np.minimum(low, _block_min_eigenvalues(flat[members[:, None, None], entries]))
        mins[members] = low
    return mins.reshape(lead)


def _block_min_eigenvalues(block: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of an (n, p, p) stack of Hermitian blocks."""
    p = block.shape[-1]
    if p == 1:
        return block[:, 0, 0].real
    if p > 2:
        return np.linalg.eigvalsh(block)[:, 0]
    a, d, b = block[:, 0, 0].real, block[:, 1, 1].real, block[:, 1, 0]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(d)), np.abs(b))
    a, d, br, bi = a / scale, d / scale, b.real / scale, b.imag / scale
    mean = (a + d) / 2.0
    half_gap = (a - d) / 2.0
    off = br * br + bi * bi
    radius = np.sqrt(half_gap * half_gap + off)
    low = mean - radius
    pos = mean > 0.0
    low[pos] = (a[pos] * d[pos] - off[pos]) / (mean[pos] + radius[pos])
    return scale * low


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
