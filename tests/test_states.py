import numpy as np
import pytest

from azqsl import linalg
from azqsl.errors import (
    DimMismatchError,
    InvalidBlochError,
    InvalidStateError,
    InvalidWeightError,
)
from azqsl.states import (
    BlochVector,
    DensityMatrix,
    GHZMixedParams,
    bloch_state,
    ghz_mixed,
    load_state,
    save_state,
    state_from_text,
    state_to_text,
    support_contained,
)


@pytest.fixture
def rng():
    return np.random.default_rng(202)


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.1, -0.1]).astype(complex))

    def test_pure_state_flagged(self):
        dm = pure_state([1.0, 0.0])
        assert not dm.full_rank
        assert dm.k_min == 0.0
        assert dm.k_max == pytest.approx(1.0)

    def test_kmin_kmax_ordering(self, rng):
        for _ in range(50):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = x @ x.conj().T
            dm = DensityMatrix(m / np.real(np.trace(m)))
            assert 0.0 <= dm.k_min <= 1.0 / dm.dim <= dm.k_max <= 1.0

    def test_checks_and_symmetrizes_once(self, rng, monkeypatch):
        # a slightly non-Hermitian input: the state holds its Hermitian part
        # and that part's LAPACK eigendecomposition, bit for bit
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = x @ x.conj().T
        m = m / np.real(np.trace(m))
        m[0, 1] += 1e-12
        want = linalg.hermitian_part(m)
        values, vectors = np.linalg.eigh(want)
        calls = {"asymmetry": 0, "hermitian_part": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(linalg, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(linalg, name, counted)
        dm = DensityMatrix(m)
        assert calls == {"asymmetry": 1, "hermitian_part": 1}
        assert dm.mat.tobytes() == want.tobytes()
        assert dm.eigenvectors.tobytes() == vectors.tobytes()
        assert dm.eigenvalues.tobytes() == np.maximum(values, 0.0).tobytes()

    def test_errors_keep_their_messages(self):
        with pytest.raises(InvalidStateError, match=r"^not Hermitian: asymmetry 1\.000e-01$"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
        with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -1\.000e-01 below -1e-10$"):
            DensityMatrix(np.diag([1.1, -0.1]).astype(complex))


class TestBlochState:
    def test_maximally_mixed(self):
        dm = bloch_state(BlochVector(0.0))
        assert np.allclose(dm.mat, np.eye(2) / 2)
        assert dm.k_min == pytest.approx(0.5)
        assert dm.k_max == pytest.approx(0.5)

    def test_three_quarters_radius(self):
        dm = bloch_state(BlochVector(0.75, 1.1, 2.2))
        assert dm.k_min == pytest.approx(0.125, abs=1e-14)
        assert dm.k_max == pytest.approx(0.875, abs=1e-14)

    def test_pole_state(self):
        dm = bloch_state(BlochVector(1.0, 0.0, 0.0))
        assert np.allclose(dm.mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_rejects_radius_above_one(self):
        with pytest.raises(InvalidBlochError):
            BlochVector(1.0 + 1e-9)

    def test_eigenvalue_formula(self, rng):
        for _ in range(500):
            r = rng.uniform(0.0, 1.0)
            dm = bloch_state(BlochVector(r, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
            assert abs(dm.k_min - (1 - r) / 2) <= 1e-12
            assert abs(dm.k_max - (1 + r) / 2) <= 1e-12


class TestGHZMixed:
    def test_white_noise(self):
        dm = ghz_mixed(GHZMixedParams(0.0))
        assert np.allclose(dm.mat, np.eye(4) / 4)

    def test_quarter_weight(self):
        dm = ghz_mixed(GHZMixedParams(0.25))
        assert dm.k_min == pytest.approx(3.0 / 16.0, abs=1e-14)
        assert dm.k_max == pytest.approx(7.0 / 16.0, abs=1e-14)

    def test_nine_tenths_weight(self):
        dm = ghz_mixed(GHZMixedParams(0.9))
        assert dm.k_min == pytest.approx(1.0 / 40.0, abs=1e-14)
        assert dm.k_max == pytest.approx(37.0 / 40.0, abs=1e-14)

    def test_spectrum_degeneracy(self, rng):
        for _ in range(500):
            p = rng.uniform(0.0, 1.0)
            dm = ghz_mixed(GHZMixedParams(p))
            expected = np.sort([(1 - p) / 4] * 3 + [(1 + 3 * p) / 4])
            assert np.max(np.abs(dm.eigenvalues - expected)) <= 1e-12

    def test_separability_flag(self):
        assert GHZMixedParams(0.25).separable
        assert not GHZMixedParams(0.9).separable

    def test_rejects_bad_weight(self):
        with pytest.raises(InvalidWeightError):
            GHZMixedParams(1.0 + 1e-9)
        with pytest.raises(InvalidWeightError):
            GHZMixedParams(-0.1)


class TestSupportContained:
    def test_full_rank_target(self):
        assert support_contained(pure_state([1, 0]), bloch_state(BlochVector(0.0)))

    def test_rank_deficient_target(self):
        assert not support_contained(bloch_state(BlochVector(0.0)), pure_state([1, 0]))

    def test_equal_supports(self):
        assert support_contained(pure_state([1, 0]), pure_state([1, 0]))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            support_contained(bloch_state(BlochVector(0.0)), ghz_mixed(GHZMixedParams(0.5)))


class TestSerialization:
    def test_round_trip_text(self, rng):
        dm = ghz_mixed(GHZMixedParams(0.33))
        again = state_from_text(state_to_text(dm))
        assert again.allclose(dm, tol=1e-15)

    def test_round_trip_file(self, tmp_path):
        dm = bloch_state(BlochVector(0.6, 0.3, 4.0))
        path = tmp_path / "state.txt"
        save_state(path, dm)
        assert load_state(path).allclose(dm, tol=1e-15)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidStateError):
            state_from_text("2\n1 0\n0 0\n")
        with pytest.raises(InvalidStateError):
            state_from_text("")
