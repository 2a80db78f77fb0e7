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
    return (m + m.swapaxes(-1, -2).conj()) / 2


def asymmetry(m: np.ndarray) -> float:
    """Max-entry deviation of m from its Hermitian part."""
    return float(np.max(np.abs(m - m.conj().T)))


def eigh(m: np.ndarray, symmetrized: bool = False) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError if the max-entry asymmetry exceeds
    HERMITIAN_TOL, and
    NoConvergenceError if the underlying solver gives up. Eigenvalues come
    back ascending; vectors are the columns of a unitary. A caller that has
    checked the asymmetry itself and passes the Hermitian part sets
    `symmetrized`, which skips both.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not symmetrized:
        asym = asymmetry(m)
        if asym > HERMITIAN_TOL:
            raise NotHermitianError(
                f"matrix asymmetry {asym:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}"
            )
        m = hermitian_part(m)
    try:
        values, vectors = np.linalg.eigh(m)
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
    """Powers m^s of a PSD matrix, one per exponent, from its clamped
    ascending spectrum (dim,) and eigenvectors (dim, dim); shape
    (len(exponents), dim, dim). A stack of spectra (n, dim) and
    eigenvectors (n, dim, dim) gives shape (n, len(exponents), dim, dim).
    The eigenvalues take `eigenvalue_powers`, and every operation is matrix
    by matrix, so a batch gives the same bits as one matrix at a time."""
    # (..., exponent, 1, eigenvalue): each exponent scales the columns of
    # the eigenvectors
    powered = eigenvalue_powers(values, exponents).swapaxes(0, -2)[..., None, :]
    adjoint = vectors.swapaxes(-1, -2).conj()[..., None, :, :]
    return hermitian_part((vectors[..., None, :, :] * powered) @ adjoint)


def eigenvalue_powers(values: np.ndarray, exponents) -> np.ndarray:
    """Powers of clamped ascending spectra (..., dim), one per exponent,
    shape (len(exponents), ..., dim). Eigenvalues at or below SUPPORT_TOL
    times the largest map to zero for every exponent, so negative powers act
    as generalized inverses on the support (the cut is relative: solver
    noise scales with the norm, and products such as sigma^(large) rho
    sigma^(large) carry genuinely tiny spectra). Each exponent is taken as
    a scalar (numpy takes exponents such as 0.5 and 2 on fast paths that an
    array of exponents would not), so a batch gives the same bits as one
    spectrum at a time."""
    on_support = values > SUPPORT_TOL * values[..., -1:]
    kept = values[on_support]
    powered = np.zeros((len(exponents), *values.shape))
    for row, s in zip(powered, exponents):
        row[on_support] = kept ** s
    return powered


@lru_cache(maxsize=32)
def _jacobi_rule(n: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights for the weight (1-x)^(-s) (1+x)^(s-1)."""
    # scipy.special costs about 0.3 s and 25 MB to import and serves this
    # test oracle alone, so only its first call loads it
    from scipy.special import roots_jacobi

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
    The blocks come from each matrix's own pattern (`_sample_spectra`), so
    a stack row equals the one-matrix call bit for bit. They take
    `_block_norms`: closed forms for blocks with one or two rows or
    columns, the sum of the LAPACK singular values for blocks of at least
    3x3. Matrices of more than 62 entries take the LAPACK sum whole, so a
    dense matrix of size >= 3 gets exactly `svd(m).sum()`. Entries must be
    finite.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, r, c = stack.shape
    flat = stack.reshape(-1, r * c)
    return _sample_spectra(np.arange(r * c), flat.T, r, c).reshape(lead)


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
    lower = np.flatnonzero(np.tri(n, dtype=bool))
    flat = stack.reshape(-1, n * n)
    return _sample_spectra(lower, flat.T[lower], n, n, hermitian=True).reshape(lead)


def _sample_spectra(positions: np.ndarray, values: np.ndarray, r: int, c: int,
                    hermitian: bool = False) -> np.ndarray:
    """The trace norms of n samples of one r x c matrix, or with
    `hermitian` the smallest eigenvalues of n samples of one Hermitian
    matrix given by entries of its lower triangle, shape (n,). The matrix
    is given by its flat positions (k,) and entry-major values there
    (k, n); every other entry is +0 (LAPACK, which takes blocks of at least
    3x3, tells the signed zeros apart).

    A sample's pattern code has a bit for each of its nonzero entries. The
    blocks of the union of the codes are evaluated on every sample at once;
    a sample whose own code differs (t = 0 in the built-in models, where
    derivatives or products vanish) is evaluated again, with the other
    samples of its code, on its own blocks. The kernels work elementwise
    over the samples, so a sample's value is the value of its own pattern,
    bit for bit, whatever samples it came with. Matrices of more than 62
    entries take LAPACK whole."""
    n = values.shape[1]
    if r * c > _PATTERN_ENTRIES:
        dense = np.zeros((n, r * c), dtype=complex)
        dense[:, positions] = values.T
        dense = dense.reshape(n, r, c)
        if hermitian:
            return np.linalg.eigvalsh(dense)[:, 0]
        return np.linalg.svd(dense, compute_uv=False).sum(axis=-1)
    codes = (1 << np.asarray(positions, dtype=np.int64)) @ (values != 0)
    union = int(np.bitwise_or.reduce(codes))
    positions = tuple(positions.tolist())
    # a sample of another code may have an all-zero block here; its value is
    # replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        spectra = _pattern_spectra(values, union, r, c, positions, hermitian)
    for code in np.unique(codes[codes != union]):
        members = np.flatnonzero(codes == code)
        spectra[members] = _pattern_spectra(
            values[:, members], int(code), r, c, positions, hermitian)
    return spectra


def _pattern_spectra(values: np.ndarray, code: int, r: int, c: int, positions: tuple,
                     hermitian: bool) -> np.ndarray:
    """`_sample_spectra` of samples that share the pattern `code`: the sum
    of their block norms, or the least block minimum, zero when a row lies
    in no block."""
    blocks, padded = _block_rows(code, r, c, positions, hermitian)
    if padded:
        values = np.concatenate([values, np.zeros((1, values.shape[1]), dtype=complex)])
    if not hermitian:
        norms = np.zeros(values.shape[1])
        for rows, p, q in blocks:
            norms += _block_norms(values[rows], p, q)
        return norms
    covered = sum(p for _, p, _ in blocks)
    low = np.full(values.shape[1], 0.0 if covered < r else np.inf)
    for rows, p, _ in blocks:
        low = np.minimum(low, _block_min_eigenvalues(values[rows], p))
    return low


@lru_cache(maxsize=256)
def _block_rows(code: int, r: int, c: int, positions: tuple, hermitian: bool):
    """The blocks of the r x c pattern `code`, in the order of their first
    row; all-zero rows and columns are in none. With `hermitian` the code
    holds entries of the lower triangle: each joins its row and column
    both ways, and a row with a nonzero joins its own column, so blocks are
    square and an entry above the diagonal reads its mirror image, which
    the kernels do not look at. For each block, the rows of the values
    (given at `positions`) that hold its entries, row-major, and its shape;
    and whether an entry lies at no position, which reads an extra zero
    row."""
    pattern = ((code >> np.arange(r * c)) & 1).astype(bool).reshape(r, c)
    if hermitian:
        pattern |= pattern.T
        pattern[np.diag_indices(r)] = pattern.any(axis=1)
    nonzero = [set(np.flatnonzero(row).tolist()) for row in pattern]
    row_of = np.full(r * c, len(positions))
    row_of[list(positions)] = np.arange(len(positions))
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
        i, j = np.array(sorted(rows))[:, None], np.array(sorted(cols))
        entries = np.maximum(i, j) * c + np.minimum(i, j) if hermitian else i * c + j
        block = row_of[entries.ravel()]
        block.setflags(write=False)  # cached, shared by every call
        blocks.append((block, len(rows), len(cols)))
    return tuple(blocks), any(np.any(b == len(positions)) for b, _, _ in blocks)


# The block kernels take their blocks entry-major: row e of `rows`, shape
# (p q, n), holds entry (e // q, e % q) of each of the n blocks, one
# contiguous vector per entry. Every operation is elementwise over the n
# blocks, so a block's value does not depend on the others, and the sums
# over a block's entries take `_sum_rows`, numpy's order for a contiguous
# run: a sample's value is the same bits whatever stack it came in.


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) by the textbook formula, as its real and
    imaginary parts, each real product and sum rounded on its own as in
    einsum; numpy's complex multiply may fuse them on contiguous runs and
    not on broadcast ones, which moves the last bit of complex (not real)
    operands. The sums are taken in place, which rounds them alike."""
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


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
    by its largest |entry|, the minors on its entries times the reciprocal
    of that scale (as numpy divides a complex number by a real one), taken
    in textbook products (`_cmul`). A block whose largest |entry| is
    subnormal, whose reciprocal would overflow, is first lifted by an
    exact power of two. Larger blocks take the sum of their LAPACK
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
    lifted = scale < np.finfo(float).tiny
    if lifted.any():
        rows = rows.copy()
        rows[:, lifted] *= 2.0 ** 64
    # lifting only the subnormal scales keeps a scale near the largest
    # double from overflowing
    inverse = 1.0 / (scale * np.where(lifted, 2.0 ** 64, 1.0))
    re, im = rows.real * inverse, rows.imag * inverse
    # the two rows of the block, or its two columns
    top, bottom = (slice(q), slice(q, None)) if p == 2 else (slice(0, None, 2), slice(1, None, 2))
    tr, ti, br, bi = re[top], im[top], re[bottom], im[bottom]
    minors = np.zeros(rows.shape[1])
    for i in range(len(tr) - 1):
        ar, ai = _cmul(tr[i], ti[i], br[i + 1:], bi[i + 1:])
        cr, ci = _cmul(tr[i + 1:], ti[i + 1:], br[i], bi[i])
        mr, mi = ar - cr, ai - ci
        minors += _sum_rows(mr * mr + mi * mi)
    return scale * np.sqrt(frobenius + 2.0 * np.sqrt(minors))


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
