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

from .errors import InvalidPError, NoConvergenceError, NotHermitianError, NotPSDError

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


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, descending."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm: (sum_i sigma_i^p)^(1/p); p may be math.inf."""
    if not p >= 1.0:  # NaN fails it
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


# The block layouts one `_Patterns` keeps at most
_MAX_LAYOUTS = 256


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """||X||_1 for every matrix of a (..., r, c) stack, shape (...).

    Rows and columns joined by a nonzero entry of a matrix form a block,
    and the singular values of the matrix are the union of its blocks'.
    The blocks come from each matrix's own pattern (`_sample_spectra`), so
    a stack row equals the one-matrix call bit for bit. They take
    `_block_norms`: closed forms for blocks with one or two rows or
    columns, the sum of the LAPACK singular values for blocks of at least
    3x3, so a dense matrix of size >= 3 gets exactly `svd(m).sum()`.
    Entries must be finite.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, r, c = stack.shape
    flat = stack.reshape(-1, r * c)
    return _sample_spectra(_Patterns([np.arange(r * c)], r, c), flat.T)[0].reshape(lead)


def min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every Hermitian matrix of a (..., n, n)
    stack, shape (...).

    As in `eigvalsh`, only the lower triangle and the real part of the
    diagonal are read. Rows joined by a nonzero entry of the lower triangle
    form a diagonal block, and the spectrum of the matrix is the union of
    its blocks' spectra plus a zero for each row that lies in no block
    (an all-zero row). As in `trace_norms`, the blocks come from each
    matrix's own pattern, so a stack row equals the one-matrix call bit for
    bit, and they take `_block_min_eigenvalues`.
    """
    stack = np.asarray(stack, dtype=complex)
    *lead, n, _ = stack.shape
    lower = np.flatnonzero(np.tri(n, dtype=bool))
    flat = stack.reshape(-1, n * n)
    patterns = _Patterns([lower], n, n, hermitian=True)
    return _sample_spectra(patterns, flat.T[lower])[0].reshape(lead)


class _Patterns:
    """m matrices, each r x c, given as consecutive rows of one entry-major
    values array (k, n) of n samples: matrix i by its flat positions
    `positions[i]`, its values the next len(positions[i]) rows; every other
    entry is +0 (LAPACK, which takes blocks of at least 3x3, tells the
    signed zeros apart). With `hermitian` each is a Hermitian matrix given
    by entries of its lower triangle. What `_sample_spectra` reads of them
    apart from the values is built here, once for every call: the rows of
    each matrix and the `_Layout` of each set of nonzero rows that a call
    meets."""

    def __init__(self, positions, r: int, c: int, hermitian: bool = False):
        self.r, self.c, self.hermitian = r, c, hermitian
        self.positions = [tuple(np.asarray(p).tolist()) for p in positions]
        self.starts = np.cumsum([0, *map(len, self.positions)]).tolist()
        self.layouts = {}

    def layout(self, nonzero: np.ndarray) -> _Layout:
        """The `_Layout` of samples whose nonzero rows are `nonzero`."""
        key = nonzero.tobytes()
        layout = self.layouts.get(key)
        if layout is None:
            if len(self.layouts) >= _MAX_LAYOUTS:  # a family of ever new patterns
                self.layouts.clear()
            layout = self.layouts[key] = _layout(self, key)
        return layout


class _Layout(NamedTuple):
    """The blocks of m matrices at one pattern each. Per shape (p, q) of
    block, the value rows of its blocks' entries, shape (p q, n_blocks);
    an entry at no position reads a zero row appended past the values,
    when `padded`. The block results of every shape are stacked, in that
    order, under two start rows, 0 and inf; `order` (n_steps + 1, m) picks
    each matrix's start, then its blocks in the order of their first row,
    then start rows that leave its value as it is: 0 for a sum of norms,
    inf for a least eigenvalue. A matrix starts from 0, or for the smallest
    eigenvalue from inf when every row lies in a block."""

    groups: tuple
    order: np.ndarray
    padded: bool


def _layout(patterns: _Patterns, nonzero: bytes) -> _Layout:
    shapes = {}  # (p, q) -> the value rows of its blocks
    placed, start = [], []
    zero_row = patterns.starts[-1]
    for i, positions in enumerate(patterns.positions):
        first, size = patterns.starts[i], len(positions)
        # a matrix's pattern is the mask of its nonzero rows, a byte each
        blocks = _block_rows(nonzero[first:first + size], patterns.r, patterns.c, positions,
                             patterns.hermitian)
        own = []
        for rows, p, q in blocks:
            group = shapes.setdefault((p, q), [])
            own.append(((p, q), len(group)))
            group.append(np.where(rows < size, rows + first, zero_row))
        placed.append(own)
        covered = sum(p for _, p, _ in blocks) == patterns.r
        start.append(int(patterns.hermitian and covered))
    offsets, groups, n_blocks = {}, [], 2
    for (p, q), rows in shapes.items():
        offsets[p, q] = n_blocks
        groups.append((np.array(rows).T.copy(), p, q))
        n_blocks += len(rows)
    neutral = int(patterns.hermitian)
    order = np.full((1 + max(map(len, placed), default=0), len(placed)), neutral)
    order[0] = start
    for i, own in enumerate(placed):
        order[1:1 + len(own), i] = [offsets[shape] + k for shape, k in own]
    padded = any(np.any(rows == zero_row) for rows, *_ in groups)
    return _Layout(tuple(groups), order, padded)


def _sample_spectra(patterns: _Patterns, values: np.ndarray) -> np.ndarray:
    """The trace norms of n samples of each matrix of `patterns`, or with
    `hermitian` their smallest eigenvalues, shape (m, n), from the values
    (k, n) that `patterns` describes.

    A sample's pattern in a matrix is the mask of its nonzero entries. The
    blocks of each matrix's union of patterns are evaluated on every sample
    at once, those of every matrix together, each shape of block in one
    kernel call (`_pattern_spectra`); a sample whose own pattern differs in
    some matrix (t = 0 in the built-in models, where derivatives or
    products vanish) is evaluated again, with the other samples of its
    patterns, on its own blocks. The kernels work elementwise over the
    samples, so a sample's value is the value of its own pattern, bit for
    bit, whatever samples and matrices it came with."""
    nonzero = values != 0
    held = nonzero.any(axis=1)
    # a sample of another pattern may have an all-zero block here; its value
    # is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        spectra = _pattern_spectra(values, patterns, held)
    # the samples at which an entry nonzero at some sample is zero
    other = np.flatnonzero(~nonzero[held].all(axis=0))
    if len(other):
        members = {}
        for sample in other.tolist():
            members.setdefault(nonzero[:, sample].tobytes(), []).append(sample)
        for samples in members.values():
            spectra[:, samples] = _pattern_spectra(values[:, samples], patterns,
                                                   nonzero[:, samples[0]])
    return spectra


def _pattern_spectra(values: np.ndarray, patterns: _Patterns, nonzero: np.ndarray) -> np.ndarray:
    """`_sample_spectra` of samples whose nonzero rows are `nonzero`: the
    sum of each matrix's block norms, or its least block minimum, zero when
    a row lies in no block."""
    layout = patterns.layout(nonzero)
    n = values.shape[1]
    if layout.padded:
        values = np.concatenate([values, np.zeros((1, n), dtype=complex)])
    results = [np.zeros((2, n))]
    results[0][1] = np.inf
    for rows, p, q in layout.groups:
        block = values[rows].reshape(p * q, -1)
        results.append((_block_min_eigenvalues(block, p) if patterns.hermitian
                        else _block_norms(block, p, q)).reshape(-1, n))
    results = np.concatenate(results)
    spectra = results[layout.order[0]]
    for step in layout.order[1:]:
        if patterns.hermitian:
            np.minimum(spectra, results[step], out=spectra)
        else:
            spectra += results[step]
    return spectra


@lru_cache(maxsize=256)
def _block_rows(mask: bytes, r: int, c: int, positions: tuple, hermitian: bool):
    """The blocks of the r x c pattern that is nonzero at the `positions`
    where `mask` (a bool byte each) is set, in the order of their first
    row; all-zero rows and columns are in none. With `hermitian` the
    positions are entries of the lower triangle: each nonzero joins its row
    and column both ways, and a row with a nonzero joins its own column, so
    blocks are square and an entry above the diagonal reads its mirror
    image, which the kernels do not look at. For each block, the rows of
    the values (given at `positions`) that hold its entries, row-major,
    len(positions) for an entry at no position, and its shape."""
    pattern = np.zeros(r * c, dtype=bool)
    pattern[list(positions)] = np.frombuffer(mask, dtype=bool)
    pattern = pattern.reshape(r, c)
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
    return tuple(blocks)


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
    mags /= scale
    frobenius = _sum_rows(np.square(mags, out=mags))
    if min(p, q) == 1:
        return scale * np.sqrt(frobenius)
    lifted = scale < np.finfo(float).tiny
    if lifted.any():
        rows = rows.copy()
        rows[:, lifted] *= 2.0 ** 64
        # lifting only the subnormal scales keeps a scale near the largest
        # double from overflowing
        inverse = 1.0 / (scale * np.where(lifted, 2.0 ** 64, 1.0))
    else:
        inverse = 1.0 / scale
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
