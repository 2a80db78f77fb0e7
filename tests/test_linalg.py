import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from azqsl import linalg
from azqsl.errors import (
    InvalidPError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
)
from helpers import mat_pow_integral, random_hermitian, random_unitary


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestEigh:
    def test_identity(self):
        vals, vecs = linalg.eigh(np.eye(2, dtype=complex))
        assert np.allclose(vals, [1.0, 1.0])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(2))

    def test_sigma_x_spectrum(self):
        vals, _ = linalg.eigh(linalg.SIGMA_X)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        vals, _ = linalg.eigh(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(vals, [0.25, 0.75], atol=1e-15)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            linalg.eigh(m)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_reconstruction_and_unitarity(self, rng, dim):
        for _ in range(50):
            m = random_hermitian(rng, dim)
            vals, vecs = linalg.eigh(m)
            assert np.all(np.diff(vals) >= 0)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(rebuilt - m)) <= 1e-12 * dim
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-12


class TestMatPow:
    def test_identity_fixed_point(self):
        out = linalg.mat_pow(np.eye(2, dtype=complex), 0.37)
        assert np.allclose(out, np.eye(2), atol=1e-15)

    def test_scalar_roots(self):
        out = linalg.mat_pow(np.diag([4.0, 9.0]).astype(complex), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_quarter_three_quarter(self):
        out = linalg.mat_pow(np.diag([0.25, 0.75]).astype(complex), 0.5)
        assert np.allclose(out, np.diag([0.5, 0.8660254037844386]), atol=1e-15)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            linalg.mat_pow(np.diag([1.0, -1e-6]).astype(complex), 0.5)

    def test_clamps_tiny_negative(self):
        out = linalg.mat_pow(np.diag([1.0, -1e-11]).astype(complex), 0.5)
        assert out[1, 1] == 0.0

    def test_power_one_and_zero(self, rng):
        for _ in range(20):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = x @ x.conj().T
            assert np.max(np.abs(linalg.mat_pow(m, 1.0) - (m + m.conj().T) / 2)) <= 1e-12
        # rank-deficient: power zero is the support projector
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        proj = np.outer(v, v.conj())
        out = linalg.mat_pow(0.3 * proj, 0.0)
        assert np.max(np.abs(out - proj)) <= 1e-12

    def test_power_composition(self, rng):
        for _ in range(20):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = x @ x.conj().T + 0.1 * np.eye(3)
            a, b = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            lhs = linalg.mat_pow(linalg.mat_pow(m, a), b)
            rhs = linalg.mat_pow(m, a * b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_negative_power_on_support(self):
        m = np.diag([0.5, 0.0]).astype(complex)
        out = linalg.mat_pow(m, -1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-13)


class TestEigenvaluePowers:
    # the one support cut of every matrix and eigenvalue power: at or below
    # SUPPORT_TOL times the largest eigenvalue of its own spectrum, an
    # eigenvalue is zero for every exponent
    def test_cut_is_relative_to_the_largest(self):
        top = 0.75
        edge = linalg.SUPPORT_TOL * top
        values = np.array([[edge, 2.0 * edge, top], [0.0, 0.5 * top, top], [edge, edge, 2e-12]])
        exponents = [0.5, -1.0, 0.01]
        out = linalg.eigenvalue_powers(values, exponents)
        assert out.shape == (3, 3, 3)
        for row, s in zip(out, exponents):
            assert row[0].tolist() == [0.0, *(np.array([2.0 * edge, top]) ** s)]
            assert row[1].tolist() == [0.0, *(np.array([0.5 * top, top]) ** s)]
            assert row[2].tolist() == (np.array([edge, edge, 2e-12]) ** s).tolist()

    def test_batch_equals_one_spectrum_at_a_time(self, rng):
        values = np.sort(rng.uniform(0.0, 1.0, size=(20, 4)) ** 8, axis=-1)
        exponents = list(rng.uniform(-2.0, 2.0, size=7)) + [0.5, 2.0, 1.0]
        out = linalg.eigenvalue_powers(values, exponents)
        for i, spectrum in enumerate(values):
            assert out[:, i].tolist() == linalg.eigenvalue_powers(spectrum, exponents).tolist()
            for j, s in enumerate(exponents):
                assert out[j, i].tolist() == linalg.eigenvalue_powers(spectrum, [s])[0].tolist()


class TestMatPowIntegral:
    def test_identity(self):
        out = mat_pow_integral(np.eye(2, dtype=complex), 0.5)
        assert np.max(np.abs(out - np.eye(2))) <= 1e-6

    def test_scalar_evaluation(self):
        out = mat_pow_integral(np.diag([0.5, 0.5]).astype(complex), 0.37)
        assert np.max(np.abs(out - 0.5**0.37 * np.eye(2))) <= 1e-6

    def test_matches_spectral_path(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        diff = mat_pow_integral(m, 0.5, 2000) - linalg.mat_pow(m, 0.5)
        assert np.max(np.abs(diff)) <= 1e-6

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_agreement(self, rng, s, dim):
        for _ in range(5):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = x @ x.conj().T + 0.05 * np.eye(dim)
            m /= np.real(np.trace(m))
            diff = mat_pow_integral(m, s) - linalg.mat_pow(m, s)
            assert np.max(np.abs(diff)) <= 1e-6

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_pow_integral(np.diag([1.0, 0.0]).astype(complex), 0.5)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidPError):
            mat_pow_integral(np.eye(2, dtype=complex), 1.5)


class TestSchattenNorm:
    def test_sigma_z_norms(self):
        assert linalg.schatten_norm(linalg.SIGMA_Z, 1.0) == pytest.approx(2.0)
        assert linalg.schatten_norm(linalg.SIGMA_Z, math.inf) == pytest.approx(1.0)

    def test_absolute_eigenvalue_sum(self):
        assert linalg.schatten_norm(np.diag([3.0, -4.0]), 1.0) == pytest.approx(7.0)

    def test_general_p(self):
        assert linalg.schatten_norm(np.diag([3.0, -4.0]), 2.0) == pytest.approx(5.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidPError):
            linalg.schatten_norm(np.eye(2), 0.5)

    def test_trace_norm_dominates_trace(self, rng):
        for _ in range(30):
            m = random_hermitian(rng, 3)
            assert linalg.trace_norm(m) >= abs(np.trace(m).real) - 1e-12

    def test_hoelder(self, rng):
        for _ in range(30):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            lhs = abs(np.trace(a.conj().T @ b))
            rhs = linalg.schatten_norm(a, math.inf) * linalg.trace_norm(b)
            assert lhs <= rhs + 1e-10


def svd_sums(stack):
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def sparse_matrix(rng, r, c):
    """Rows and columns split at random into two blocks, each block dense,
    an outer product (rank one, so a 2x2 determinant cancels) or zero,
    then a random zero mask and a scale between 1e-200 and 1e200."""
    m = np.zeros((r, c), dtype=complex)
    rows, cols = rng.permutation(r), rng.permutation(c)
    cut_r, cut_c = rng.integers(0, r + 1), rng.integers(0, c + 1)
    for rs, cs in ((rows[:cut_r], cols[:cut_c]), (rows[cut_r:], cols[cut_c:])):
        kind = rng.integers(3)
        if kind == 0:
            m[np.ix_(rs, cs)] = random_complex(rng, (len(rs), len(cs)))
        elif kind == 1:
            m[np.ix_(rs, cs)] = np.outer(random_complex(rng, len(rs)), random_complex(rng, len(cs)))
    if rng.random() < 0.5:
        m *= rng.random((r, c)) < 0.6
    return m * 10.0 ** rng.uniform(-200.0, 200.0)


@st.composite
def sparse_stacks(draw):
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lead = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([sparse_matrix(rng, r, c) for _ in range(math.prod(lead))])
    return stack.reshape(lead + (r, c))


class TestTraceNorms:
    # a fixed seed keeps the drawn stacks stable when the test body changes
    @seed(20261018)
    @settings(max_examples=300, database=None, deadline=None)
    @given(sparse_stacks())
    def test_agrees_with_svd_and_rows_with_one_matrix_calls(self, stack):
        got = linalg.trace_norms(stack)
        want = svd_sums(stack)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        for index in np.ndindex(stack.shape[:-2]):
            assert linalg.trace_norms(stack[index]) == got[index]

    @seed(20261019)
    @settings(max_examples=100, database=None, deadline=None)
    @given(st.integers(3, 4), st.integers(3, 4), st.integers(0, 2**32 - 1))
    def test_dense_blocks_take_the_svd_sum(self, p, q, draw):
        rng = np.random.default_rng(draw)
        dense = random_complex(rng, (5, p, q)) * 10.0 ** rng.uniform(-200.0, 200.0)
        assert np.array_equal(linalg.trace_norms(dense), svd_sums(dense))
        # the same block inside zero rows and columns, next to a 1x1 block
        padded = np.zeros((5, 5, 5), dtype=complex)
        padded[:, 1:p + 1, :q] = dense
        assert np.array_equal(linalg.trace_norms(padded), svd_sums(dense))
        padded[:, 0, 4] = 2.0
        assert np.array_equal(linalg.trace_norms(padded), svd_sums(dense) + 2.0)

    def test_large_matrices_take_their_blocks(self, rng):
        # a matrix of more than 62 entries takes the path of a small one:
        # its norm sums, in the order of their first row, the norms its
        # blocks have as matrices of their own, and a dense 8x8 is one
        # block, the svd sum
        for shape in [(8, 8), (8, 9), (10, 7)] * 20:
            m, blocks = split_matrix(rng, *shape, hermitian=False)
            want = 0.0
            for rows, cols in blocks:
                want += linalg.trace_norms(m[np.ix_(rows, cols)])
            assert linalg.trace_norms(m) == want
        dense = random_complex(rng, (5, 8, 8))
        assert np.array_equal(linalg.trace_norms(dense), svd_sums(dense))

    def test_closed_forms(self):
        # a diagonal, a rank-one 2x2 block beside a 1x1, and a 2x3 block
        stack = np.zeros((3, 3, 3), dtype=complex)
        stack[0] = np.diag([3.0, -4.0j, 0.0])
        stack[1, :2, :2] = np.outer([1.0, 2.0j], [3.0, 1.0 - 1.0j])
        stack[1, 2, 2] = 0.5
        stack[2, :2] = [[1.0, 0.0, 1e-300], [0.0, 2.0, 1e-300]]
        got = linalg.trace_norms(stack)
        assert got[0] == 7.0
        assert got[1] == pytest.approx(math.sqrt(5.0) * math.sqrt(11.0) + 0.5, rel=1e-15)
        assert got[2] == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3)])
    def test_stacks_of_copies_equal_the_one_matrix_call(self, shape, rng):
        # numpy's complex multiply fuses on contiguous runs and not on a
        # single sample; the minors must not depend on which one they took
        for _ in range(300):
            m = random_complex(rng, shape)
            want = linalg.trace_norms(m)
            for copies in (2, 3, 9):
                assert np.all(linalg.trace_norms(np.stack([m] * copies)) == want)

    def test_subnormal_block_is_finite(self, rng):
        # a largest |entry| below the smallest normal double overflows its
        # reciprocal unless the block is lifted first
        block = np.array([[9e-310, 3e-310j], [-2e-310 + 1e-310j, 5e-310]])
        stack = np.stack([block, random_complex(rng, (2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.trace_norms(stack)
        want = svd_sums(stack)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert got[1] == linalg.trace_norms(stack[1])

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2, 2)])
    def test_huge_block_is_finite(self, rng, shape):
        # a largest |entry| near the largest double must not overflow the
        # lift that only subnormal blocks take
        unit = random_complex(rng, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.trace_norms(1e300 * unit)
        want = 1e300 * svd_sums(unit)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-14 * want

    def test_zero_and_empty_stacks(self):
        assert np.array_equal(linalg.trace_norms(np.zeros((2, 3, 4, 2))), np.zeros((2, 3)))
        assert linalg.trace_norms(np.zeros((0, 2, 2))).shape == (0,)
        assert linalg.trace_norms(np.zeros((2, 2))) == 0.0


def hermitian_block(rng, size, psd, ill_conditioned):
    """A random Hermitian block; PSD ones may have k_min/k_max down to 1e-14."""
    values = rng.uniform(0.1, 1.0, size)
    if ill_conditioned:
        values[0] = 10.0 ** rng.uniform(-14.0, -8.0)
    if not psd:
        values *= rng.choice([-1.0, 1.0], size)
    u = random_unitary(rng, size)
    block = (u * values) @ u.conj().T
    return (block + block.conj().T) / 2


def block_hermitian(rng, dim, psd):
    """Rows split at random into empty rows and 1x1, 2x2 and 3x3 blocks,
    each block Hermitian (PSD when `psd`), then a scale between 1e-200 and
    1e200."""
    m = np.zeros((dim, dim), dtype=complex)
    rows = list(rng.permutation(dim))
    while rows:
        size = min(int(rng.integers(0, 4)), len(rows))
        if size == 0:  # an empty row
            rows.pop()
            continue
        block, rows = rows[:size], rows[size:]
        ill = size == 2 and rng.random() < 0.5
        m[np.ix_(block, block)] = hermitian_block(rng, size, psd, ill)
    return m * 10.0 ** rng.uniform(-200.0, 200.0)


def split_matrix(rng, r, c, hermitian):
    """An r x c matrix whose rows and columns are split at random into
    blocks of at most 3x3 and empty rows and columns, each block dense or
    of rank one (with `hermitian`, square on its diagonal and Hermitian),
    then a scale between 1e-100 and 1e100; with the (rows, columns) of
    its blocks in the order of their first row."""
    m = np.zeros((r, c), dtype=complex)
    rows, cols = list(rng.permutation(r)), list(rng.permutation(c))
    blocks = []
    while rows and cols:
        p, q = (int(k) for k in rng.integers(0, 4, 2))
        block_rows, rows = sorted(rows[:p]), rows[p:]
        if hermitian:
            block_cols = block_rows
        else:
            block_cols, cols = sorted(cols[:q]), cols[q:]
        if not (block_rows and block_cols):
            continue
        shape = (len(block_rows), len(block_cols))
        if hermitian:
            block = hermitian_block(rng, shape[0], bool(rng.integers(2)), False)
        elif rng.integers(2):
            block = random_complex(rng, shape)
        else:
            block = np.outer(random_complex(rng, shape[0]), random_complex(rng, shape[1]))
        m[np.ix_(block_rows, block_cols)] = block
        blocks.append((block_rows, block_cols))
    return m * 10.0 ** rng.uniform(-100.0, 100.0), sorted(blocks)


@st.composite
def hermitian_stacks(draw, psd):
    dim = draw(st.integers(1, 5))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([block_hermitian(rng, dim, psd) for _ in range(math.prod(lead))])
    return stack.reshape(lead + (dim, dim))


def reference_min_eigenvalue(m):
    """Smallest eigenvalue of a Hermitian matrix whose diagonal blocks are
    at most 3x3, as a reference independent of `linalg`: the blocks are the
    connected sets of rows joined by a nonzero entry, a 1x1 block (or an
    empty row, giving 0) is its diagonal entry, a 2x2 block is solved from
    the stored doubles in 40-digit decimal arithmetic, and a 3x3 block
    takes `eigvalsh`, which test_large_blocks_take_eigvalsh pins bit for
    bit."""
    n = len(m)
    linked = (m != 0) | (m.T != 0)
    seen, lows = set(), []
    for start in range(n):
        if start in seen:
            continue
        block, frontier = [start], [start]
        seen.add(start)
        while frontier:
            row = frontier.pop()
            for col in np.flatnonzero(linked[row]):
                if int(col) not in seen:
                    seen.add(int(col))
                    block.append(int(col))
                    frontier.append(int(col))
        block.sort()
        if len(block) == 1:
            lows.append(float(m[start, start].real))
        elif len(block) == 2:
            i, j = block
            with localcontext() as ctx:
                ctx.prec = 40
                a, d = Decimal(m[i, i].real), Decimal(m[j, j].real)
                br, bi = Decimal(m[j, i].real), Decimal(m[j, i].imag)
                half_gap = (a - d) / 2
                radius = (half_gap * half_gap + br * br + bi * bi).sqrt()
                lows.append(float((a + d) / 2 - radius))
        else:
            lows.append(float(np.linalg.eigvalsh(m[np.ix_(block, block)])[0]))
    return min(lows)


class TestMinEigenvalues:
    @seed(20261018)
    @settings(max_examples=200, database=None, deadline=None)
    @given(hermitian_stacks(psd=True))
    def test_agrees_with_the_reference_and_rows_with_one_matrix_calls(self, stack):
        got = linalg.min_eigenvalues(stack)
        assert got.shape == stack.shape[:-2]
        for index in np.ndindex(stack.shape[:-2]):
            m = stack[index]
            scale = np.max(np.abs(m))
            assert abs(got[index] - reference_min_eigenvalue(m)) <= 4 * np.finfo(float).eps * scale
            assert linalg.min_eigenvalues(m) == got[index]
            if np.count_nonzero(m - np.diag(np.diag(m))) == 0:
                assert got[index] == np.min(np.diag(m).real)

    @seed(20261019)
    @settings(max_examples=100, database=None, deadline=None)
    @given(st.integers(3, 4), st.integers(0, 2**32 - 1))
    def test_large_blocks_take_eigvalsh(self, p, draw):
        rng = np.random.default_rng(draw)
        dense = np.stack([hermitian_block(rng, p, True, False) for _ in range(5)])
        dense *= 10.0 ** rng.uniform(-200.0, 200.0)
        want = np.linalg.eigvalsh(dense)[:, 0]
        assert np.array_equal(linalg.min_eigenvalues(dense), want)
        # the same block inside an empty row, next to a larger 1x1 block
        padded = np.zeros((5, 5, 5), dtype=complex)
        padded[:, 1:p + 1, 1:p + 1] = dense
        padded[:, 0, 0] = 2.0 * want
        # at p = 3 row 4 is empty and contributes the eigenvalue 0
        want_padded = np.zeros(5) if p == 3 else want
        assert np.array_equal(linalg.min_eigenvalues(padded), want_padded)

    def test_large_matrices_take_their_blocks(self, rng):
        # as for trace norms: the least of the smallest eigenvalues the
        # blocks have as matrices of their own, and 0 for an empty row; a
        # dense 8x8 takes eigvalsh
        for dim in [8, 9, 10] * 20:
            m, blocks = split_matrix(rng, dim, dim, hermitian=True)
            lows = [linalg.min_eigenvalues(m[np.ix_(rows, rows)]) for rows, _ in blocks]
            if sum(len(rows) for rows, _ in blocks) < dim:
                lows.append(0.0)
            assert linalg.min_eigenvalues(m) == min(lows)
        dense = np.stack([hermitian_block(rng, 8, psd, False) for psd in (True, False)])
        assert np.array_equal(linalg.min_eigenvalues(dense), np.linalg.eigvalsh(dense)[:, 0])

    def test_closed_forms(self):
        stack = np.zeros((5, 3, 3), dtype=complex)
        stack[0] = np.diag([0.75, 0.25, 0.5])
        stack[1, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
        stack[1, 2, 2] = 3.0
        stack[2, :2, :2] = [[-1.0, 2.0j], [-2.0j, -1.0]]
        stack[2, 2, 2] = 1.0
        stack[3] = np.diag([0.75, 0.0, 0.5])
        stack[4, 1:, 1:] = [[1.0, 1.0], [1.0, 1.0]]  # rank one
        assert list(linalg.min_eigenvalues(stack)) == [0.25, 1.0, -3.0, 0.0, 0.0]

    def test_small_eigenvalue_keeps_its_relative_accuracy(self, rng):
        # a decayed coherence as on amplitude-damping trajectories: b ~ g,
        # d ~ g^2, so det = ad - |b|^2 ~ g^2 does not cancel, and the
        # smaller eigenvalue det / (larger eigenvalue) keeps a few ulps
        # down to 1e-14, far below eps * max|entry|
        for g in 10.0 ** rng.uniform(-7.0, -3.0, 50):
            b = g * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(0.1, 0.3)
            m = np.array([[rng.uniform(0.5, 1.0), np.conj(b)],
                          [b, g * g * rng.uniform(0.5, 1.0)]])
            want = reference_min_eigenvalue(m)
            assert abs(linalg.min_eigenvalues(m) - want) <= 4 * np.finfo(float).eps * want

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stacks_of_copies_equal_the_one_matrix_call(self, dim, rng):
        for _ in range(300):
            m = block_hermitian(rng, dim, psd=bool(rng.integers(2)))
            want = linalg.min_eigenvalues(m)
            for copies in (2, 3, 9):
                assert np.all(linalg.min_eigenvalues(np.stack([m] * copies)) == want)

    def test_reads_the_lower_triangle(self, rng):
        stack = np.stack([block_hermitian(rng, 4, False) for _ in range(20)])
        got = linalg.min_eigenvalues(stack)
        assert np.array_equal(linalg.min_eigenvalues(np.tril(stack)), got)
        assert np.array_equal(linalg.min_eigenvalues(stack + 1j * np.eye(4)), got)

    def test_empty_stack(self):
        assert linalg.min_eigenvalues(np.zeros((0, 2, 2))).shape == (0,)
        assert linalg.min_eigenvalues(np.zeros((2, 2))) == 0.0


def sampled_matrix(rng, base, n, hermitian):
    """n samples of one sparse matrix: new random entries on the nonzero
    pattern of `base` (Hermitian when asked), an exact zero at one entry of
    about a third of the samples, and a whole sample zeroed now and then."""
    pattern = base != 0
    # +0 off the pattern, as in a matrix built from its entries
    samples = np.where(pattern, random_complex(rng, (n,) + base.shape), 0.0)
    samples *= 10.0 ** rng.uniform(-100.0, 100.0, (n, 1, 1))
    rows, cols = np.nonzero(pattern)
    for sample in samples[rng.random(n) < 0.35]:
        if len(rows):
            k = rng.integers(len(rows))
            sample[rows[k], cols[k]] = 0.0
            if hermitian:
                sample[cols[k], rows[k]] = 0.0
    samples[rng.random(n) < 0.05] = 0.0
    if hermitian:
        samples = (samples + np.conj(np.swapaxes(samples, 1, 2))) / 2
    return samples


class TestPlannedSpectra:
    # Many samples of one sparse matrix given at some of its positions, as
    # trajectories hand them to `_sample_spectra`: each sample's value is
    # its own one-matrix value, bit for bit, whichever samples share its
    # pattern and whichever are evaluated again on their own.
    @seed(20261021)
    @settings(max_examples=150, database=None, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_trace_norms_equal_the_per_matrix_values(self, r, c, draw):
        rng = np.random.default_rng(draw)
        samples = sampled_matrix(rng, sparse_matrix(rng, r, c), int(rng.integers(1, 40)),
                                 hermitian=False)
        # every structural position, and some that are zero throughout
        positions = np.flatnonzero(samples.any(axis=0) | (rng.random((r, c)) < 0.2))
        values = samples.reshape(len(samples), r * c)[:, positions].T
        got = linalg._sample_spectra(linalg._Patterns([positions], r, c), values)[0]
        assert list(got) == [linalg.trace_norms(m) for m in samples]

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_large_matrices_equal_the_per_matrix_values(self, hermitian, rng):
        # three matrices of more than 62 entries in one call, as a
        # three-qubit trajectory hands them over: every sample has the bits
        # of its one-matrix call
        r, c = (8, 8) if hermitian else (8, 9)
        positions, values, want = [], [], []
        for _ in range(3):
            samples = sampled_matrix(rng, split_matrix(rng, r, c, hermitian)[0], 30, hermitian)
            held = samples.any(axis=0) | (rng.random((r, c)) < 0.2)
            if hermitian:
                held &= np.tri(r, dtype=bool)
            positions.append(np.flatnonzero(held))
            values.append(samples.reshape(30, r * c)[:, positions[-1]].T)
            one = linalg.min_eigenvalues if hermitian else linalg.trace_norms
            want.append([one(m) for m in samples])
        patterns = linalg._Patterns(positions, r, c, hermitian)
        got = linalg._sample_spectra(patterns, np.concatenate(values))
        assert got.tobytes() == np.array(want).tobytes()

    @seed(20261023)
    @settings(max_examples=150, database=None, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matrices_of_one_call_equal_their_own_calls(self, dim, hermitian, draw):
        # matrices with their own patterns and positions, as consecutive
        # rows of one values array: the blocks of one shape are evaluated
        # together, and each matrix still gets its own call's bits
        rng = np.random.default_rng(draw)
        n = int(rng.integers(1, 30))
        positions, values, want = [], [], []
        for _ in range(int(rng.integers(1, 5))):
            if hermitian:
                base = block_hermitian(rng, dim, bool(rng.integers(2)))
                stack = sampled_matrix(rng, base, n, hermitian=True)
                held = np.tri(dim, dtype=bool) & (stack.any(axis=0)
                                                  | (rng.random((dim, dim)) < 0.2))
            else:
                stack = sampled_matrix(rng, sparse_matrix(rng, dim, dim), n, hermitian=False)
                held = stack.any(axis=0) | (rng.random((dim, dim)) < 0.2)
            positions.append(np.flatnonzero(held))
            values.append(stack.reshape(n, dim * dim)[:, positions[-1]].T)
            own = linalg._Patterns([positions[-1]], dim, dim, hermitian)
            want.append(linalg._sample_spectra(own, values[-1])[0])
        patterns = linalg._Patterns(positions, dim, dim, hermitian)
        got = linalg._sample_spectra(patterns, np.concatenate(values))
        assert got.tobytes() == np.array(want).tobytes()

    @seed(20261022)
    @settings(max_examples=150, database=None, deadline=None)
    @given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_min_eigenvalues_equal_the_per_matrix_values(self, dim, psd, draw):
        rng = np.random.default_rng(draw)
        stack = sampled_matrix(rng, block_hermitian(rng, dim, psd), int(rng.integers(1, 40)),
                               hermitian=True)
        want = [linalg.min_eigenvalues(m) for m in stack]
        assert list(linalg.min_eigenvalues(stack)) == want
        # the structural entries of the lower triangle, and some zero throughout
        lower = np.tri(dim, dtype=bool)
        positions = np.flatnonzero(lower & (stack.any(axis=0) | (rng.random((dim, dim)) < 0.2)))
        values = stack.reshape(len(stack), dim * dim)[:, positions].T
        patterns = linalg._Patterns([positions], dim, dim, hermitian=True)
        assert list(linalg._sample_spectra(patterns, values)[0]) == want

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 16, 23, 62, 128, 129, 300])
    def test_sums_keep_the_order_of_a_contiguous_run(self, k, rng):
        # the block kernels sum entry-major rows as numpy sums each matrix's
        # contiguous entries
        rows = 10.0 ** rng.uniform(-20.0, 20.0, (k, 50))
        assert np.array_equal(linalg._sum_rows(rows), np.ascontiguousarray(rows.T).sum(axis=-1))


class TestHermitianTraceNorms:
    @seed(20261020)
    @settings(max_examples=200, database=None, deadline=None)
    @given(hermitian_stacks(psd=False))
    def test_agrees_with_eigenvalue_sums(self, stack):
        want = np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)
        assert np.all(np.abs(linalg.trace_norms(stack) - want) <= 1e-13 * want)


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_with_identity(self):
        out = linalg.kron(linalg.SIGMA_Z, np.eye(2))
        assert np.allclose(out, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_projector_product(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = linalg.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)
