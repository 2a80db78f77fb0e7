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
    bit for bit. The blocks take `_block_norms`: closed forms for blocks
    with one or two rows or columns, the sum of the LAPACK singular values
    for blocks of at least 3x3. Matrices of more than 62 entries take the
    LAPACK sum whole, so a dense matrix of size >= 3 gets exactly
    `svd(m).sum()`. Entries must be finite.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, r, c = stack.shape
    if r * c > _PATTERN_ENTRIES:
        return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    flat = stack.reshape(-1, r * c)
    norms = np.zeros(len(flat))
    for members, blocks in _pattern_groups(flat != 0, r, c):
        for entries in blocks:
            rows = flat[members, entries.reshape(-1, 1)]
            norms[members] += _block_norms(rows, *entries.shape)
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


# The block kernels take their blocks entry-major: row e of `rows`, shape
# (p q, n), holds entry (e // q, e % q) of each of the n blocks, one
# contiguous vector per entry. Every operation is elementwise over the n
# blocks, so a block's value does not depend on the others, and the sums
# over a block's entries take `_sum_rows`, numpy's order for a contiguous
# run: a sample's value is the same bits whatever stack it came in.


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """The sum of the k rows of a (k, n) array, each column summed as numpy
    sums a contiguous run of k numbers: left to right for k < 8, and for
    8 <= k <= 128 in eight interleaved partial sums, combined pairwise,
    then the remainder left to right; a longer run is split in two at a
    multiple of 8 near its middle."""
    k = len(rows)
    if k < 8:
        return rows.sum(axis=0)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _sum_rows(rows[:half]) + _sum_rows(rows[half:])
    partial = rows[:8].copy()
    whole = k - k % 8
    for start in range(8, whole, 8):
        partial += rows[start:start + 8]
    total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
        (partial[4] + partial[5]) + (partial[6] + partial[7]))
    for row in rows[whole:]:
        total += row
    return total


def _block_norms(rows: np.ndarray, p: int, q: int) -> np.ndarray:
    """Trace norms of n p x q blocks with one pattern, given entry-major.

    A block with one row or column has rank <= 1 and its norm is the
    Frobenius norm (a 1x1 block's is its |entry|, which the formula gives
    exactly); a block with two rows (or columns) has norm
    sqrt(||B||_F^2 + 2 sigma_1 sigma_2), with sigma_1 sigma_2 the root of
    the summed squared 2x2 minors (Cauchy-Binet), which holds for
    rank-deficient blocks too. Both closed forms work on the block scaled
    by its largest |entry|. Larger blocks take the sum of their LAPACK
    singular values."""
    if min(p, q) > 2:
        return np.linalg.svd(rows.T.reshape(-1, p, q), compute_uv=False).sum(axis=-1)
    if p * q == 1:
        return np.abs(rows[0])
    mags = np.abs(rows)
    scale = mags.max(axis=0)
    frobenius = _sum_rows(np.square(mags / scale))
    if min(p, q) == 1:
        return scale * np.sqrt(frobenius)
    # the two rows of the block, or its two columns
    top, bottom = (rows[:q], rows[q:]) if p == 2 else (rows[0::2], rows[1::2])
    top, bottom = top / scale, bottom / scale
    minors = np.zeros(rows.shape[1])
    for i in range(len(top) - 1):
        m = top[i] * bottom[i + 1:] - top[i + 1:] * bottom[i]
        minors += _sum_rows(m.real * m.real + m.imag * m.imag)
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
    bit, and they take `_block_min_eigenvalues`. Matrices of more than 62
    entries take the smallest LAPACK `eigvalsh` eigenvalue.
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
        mins[members] = _blocks_min(
            [flat[members, entries.reshape(-1, 1)] for entries in blocks], blocks, n, len(members))
    return mins.reshape(lead)


def _blocks_min(rows: list, blocks: tuple, n: int, count: int) -> np.ndarray:
    """The smallest eigenvalue of `count` n x n matrices with the given
    blocks, from each block's entry-major rows: zero when a row lies in no
    block, else the least block minimum."""
    low = np.full(count, 0.0 if sum(map(len, blocks)) < n else np.inf)
    for block_rows, entries in zip(rows, blocks):
        low = np.minimum(low, _block_min_eigenvalues(block_rows, len(entries)))
    return low


def _block_min_eigenvalues(rows: np.ndarray, p: int) -> np.ndarray:
    """Smallest eigenvalues of n Hermitian p x p blocks, given entry-major.

    A 1x1 block is its diagonal entry. A 2x2 block, scaled by its largest
    |entry|, has diagonal a, d, lower entry b, mean m = (a + d)/2 and
    radius r = sqrt(((a - d)/2)^2 + |b|^2); its smaller eigenvalue is
    (ad - |b|^2)/(m + r) when m > 0, which divides the determinant by the
    larger eigenvalue without cancellation, and m - r otherwise. Larger
    blocks take the smallest LAPACK `eigvalsh` eigenvalue."""
    if p == 1:
        return rows[0].real
    if p > 2:
        return np.linalg.eigvalsh(rows.T.reshape(-1, p, p))[:, 0]
    a, d, b = rows[0].real, rows[3].real, rows[2]
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


# Trajectories hold many samples of one sparse matrix, and their spectra
# are planned: the structural pattern of a stack (the entries nonzero at
# some sample) and its blocks are found once. A sample that is nonzero at
# every structural entry has exactly that pattern, so the kernels on those
# blocks give it the value the per-matrix functions give it. The kernels run
# on every sample, elementwise; the other samples (t = 0 in the built-in
# models, where derivatives or products vanish) then take `trace_norms` or
# `min_eigenvalues` as dense matrices, in one call, which replaces what the
# kernels gave them. Either way a sample's value is the value of its own
# pattern, bit for bit.


def _structure(values: np.ndarray):
    """Of the entries of a stack given entry-major, values (k, n): which
    are structural (nonzero at some sample), and the samples that are zero
    at some structural entry."""
    nonzero = values != 0
    live = nonzero.any(axis=1)
    return live, ~nonzero[live].all(axis=0)


def _planned_trace_norms(groups: list, r: int, c: int, n: int) -> np.ndarray:
    """`trace_norms` of n samples of several sparse r x c matrices, shape
    (len(groups), n). A group is one matrix (positions, values): its flat
    positions (k,) and its entry-major values there (k, n), every other
    entry +0 (LAPACK, which takes blocks of at least 3x3, tells the signed
    zeros apart). Matrices of more than 62 entries take `trace_norms`
    whole."""
    norms = np.zeros((len(groups), n))
    fallback = np.ones((len(groups), n), dtype=bool)
    for g, (positions, values) in enumerate(groups if r * c <= _PATTERN_ENTRIES else ()):
        live, fallback[g] = _structure(values)
        code = sum(1 << int(e) for e in positions[live])
        blocks, padded = _block_rows(code, r, c, tuple(positions.tolist()))
        if padded:
            values = np.concatenate([values, np.zeros((1, n), dtype=complex)])
        # a fallback sample's zero block divides by zero; its value is replaced
        with np.errstate(divide="ignore", invalid="ignore"):
            for rows, p, q in blocks:
                norms[g] += _block_norms(values[rows], p, q)
    which, samples = np.nonzero(fallback)
    if len(which):
        dense = np.zeros((len(which), r * c), dtype=complex)
        for g, (positions, values) in enumerate(groups):
            rows = np.flatnonzero(which == g)
            dense[rows[:, None], positions] = values[:, samples[rows]].T
        norms[which, samples] = trace_norms(dense.reshape(-1, r, c))
    return norms


@lru_cache(maxsize=256)
def _block_rows(code: int, r: int, c: int, positions: tuple):
    """For each `_pattern_blocks` block of the pattern `code`, the rows of
    a group's values (given at `positions`) that hold its entries, and its
    shape; and whether an entry lies at no position, which reads an extra
    zero row."""
    row_of = np.full(r * c, len(positions))
    row_of[list(positions)] = np.arange(len(positions))
    blocks = tuple((row_of[entries.ravel()], *entries.shape)
                   for entries in _pattern_blocks(code, r, c))
    for rows, _, _ in blocks:
        rows.setflags(write=False)  # cached, shared by every call
    return blocks, any(np.any(rows == len(positions)) for rows, _, _ in blocks)


def _planned_min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """`min_eigenvalues` of a (n_samples, n, n) stack of samples of one
    Hermitian matrix, planned on the structural pattern of its lower
    triangle. Matrices of more than 62 entries take `min_eigenvalues`."""
    stack = np.asarray(stack, dtype=complex)
    count, n, _ = stack.shape
    if n * n > _PATTERN_ENTRIES:
        return min_eigenvalues(stack)
    flat = stack.reshape(count, n * n)
    i, j = np.tril_indices(n)
    lower = i * n + j
    live, fallback = _structure(flat.T[lower])
    code = 0
    for e in lower[live]:
        i, j = divmod(int(e), n)
        # symmetrized, and every row with a nonzero joins its own column
        for a, b in ((i, j), (j, i), (i, i), (j, j)):
            code |= 1 << (a * n + b)
    blocks = _pattern_blocks(code, n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        mins = _blocks_min([flat.T[entries.ravel()] for entries in blocks], blocks, n, count)
    if fallback.any():
        mins[fallback] = min_eigenvalues(stack[fallback])
    return mins


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
