import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from azqsl import cli, oracles
from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import linalg
from azqsl.entropy import EntropyParams
from azqsl.errors import DimMismatchError, InvalidParamsError, SupportViolationError
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import random_density, random_params, random_unitary

# scalar evaluation of sum_k p_k^a q_k^(1-a) for the commuting example
COMMUTING_G = math.sqrt(3.0 / 8.0) + math.sqrt(1.0 / 8.0)  # 0.9659258262890681
COMMUTING_D = -2.0 * math.log(COMMUTING_G)  # 0.06933646419507432


@pytest.fixture
def rng():
    return np.random.default_rng(404)


def pure(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


class TestEntropyParams:
    def test_dpi_classification(self):
        assert EntropyParams(0.3, 0.8).dpi_valid
        assert EntropyParams(0.3, 0.7).dpi_valid  # boundary z = max(a, 1-a)
        assert not EntropyParams(0.3, 0.5).dpi_valid
        assert not EntropyParams(0.3, 1.2).dpi_valid

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParamsError):
                EntropyParams(alpha, 1.0)

    def test_rejects_bad_z(self):
        with pytest.raises(InvalidParamsError):
            EntropyParams(0.5, 0.0)

    def test_swapped(self):
        p = EntropyParams(0.3, 0.9)
        assert p.swapped.alpha == pytest.approx(0.7)
        assert p.swapped.z == 0.9


class TestRelativePurity:
    def test_identical_states(self, rng):
        for dim in (2, 4):
            dm = random_density(rng, dim)
            g = ent.relative_purity(dm, dm, random_params(rng))
            assert g == pytest.approx(1.0, abs=1e-10)

    def test_commuting_example(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        sigma = bloch_state(BlochVector(0.0))
        g = ent.relative_purity(rho, sigma, EntropyParams(0.5, 1.0))
        assert g == pytest.approx(COMMUTING_G, abs=1e-14)

    def test_swap_duality(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            p = random_params(rng)
            lhs = ent.relative_purity(sigma, rho, EntropyParams(1 - p.alpha, p.z))
            rhs = ent.relative_purity(rho, sigma, p)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bounded_by_one(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4]))
            g = ent.relative_purity(
                random_density(rng, dim), random_density(rng, dim), random_params(rng)
            )
            assert g <= 1.0 + 1e-10

    def test_support_violation_raises(self):
        with pytest.raises(SupportViolationError):
            ent.relative_purity(bloch_state(BlochVector(0.0)), pure([1, 0]), EntropyParams(0.5, 1.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            ent.relative_purity(
                bloch_state(BlochVector(0.0)), ghz_mixed(GHZMixedParams(0.2)), EntropyParams(0.5, 1.0)
            )


class TestRenyi:
    def test_identical_states_vanish(self, rng):
        dm = random_density(rng, 3)
        assert ent.renyi_az(dm, dm, random_params(rng)) == pytest.approx(0.0, abs=1e-10)

    def test_support_violation_is_infinite(self):
        assert ent.renyi_az(bloch_state(BlochVector(0.0)), pure([1, 0]), EntropyParams(0.5, 1.0)) == math.inf

    def test_commuting_value(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        sigma = bloch_state(BlochVector(0.0))
        d = ent.renyi_az(rho, sigma, EntropyParams(0.5, 1.0))
        assert d == pytest.approx(COMMUTING_D, abs=1e-14)

    def test_nonnegative(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4]))
            d = ent.renyi_az(random_density(rng, dim), random_density(rng, dim), random_params(rng))
            assert d >= -1e-10

    def test_pure_rho_full_rank_sigma_finite(self, rng):
        d = ent.renyi_az(pure([1, 1j]), random_density(rng, 2), EntropyParams(0.4, 0.8))
        assert math.isfinite(d) and d > 0

    def test_grid_traces_equal_per_core_traces_bitwise(self, rng):
        """The batched power sums of an alpha grid equal `_zpow_trace` taken
        core by core, nearly pure states (unresolved eigenvalues) included."""
        alphas = list(np.linspace(0.01, 0.99, 25))
        for trial in range(60):
            dim = int(rng.choice([2, 3, 4]))
            mix = 10.0 ** -rng.uniform(0.0, 14.0) if trial % 2 else 1.0
            rho = DensityMatrix((1 - mix) * pure(rng.normal(size=dim)).mat
                                + mix * random_density(rng, dim).mat)
            sigma = random_density(rng, dim)
            z = float(rng.uniform(0.2, 1.0))
            outer = linalg.spectral_powers(
                sigma.eigenvalues, sigma.eigenvectors, [(1.0 - a) / (2.0 * z) for a in alphas])
            inner = linalg.spectral_powers(rho.eigenvalues, rho.eigenvectors, [a / z for a in alphas])
            spectra = np.maximum(np.linalg.eigvalsh(
                linalg.hermitian_part(outer @ inner @ outer)), 0.0)
            want = [ent._zpow_trace(v, rho, sigma, a, z) for v, a in zip(spectra, alphas)]
            assert ent._purities([rho], [sigma], alphas, z)[0].tolist() == want


def former_core_trace(rho, sigma, alpha: float) -> float:
    """The z = 1 purity by the sandwiched-core path: the clamped spectrum
    of sigma^((1-a)/2) rho^a sigma^((1-a)/2), summed."""
    outer = linalg.spectral_powers(sigma.eigenvalues, sigma.eigenvectors, [(1.0 - alpha) / 2.0])[0]
    inner = linalg.spectral_powers(rho.eigenvalues, rho.eigenvectors, [alpha])[0]
    core = linalg.hermitian_part(outer @ inner @ outer)
    return float(np.maximum(np.linalg.eigvalsh(core), 0.0).sum())


class TestPetzTraces:
    """At z = 1 the purity is the Petz trace sum_jk mu_j^(1-a)
    |<v_j|u_k>|^2 lambda_k^a, taken from the states' cached spectra."""

    ALPHAS = list(np.linspace(0.01, 0.99, 25))

    @staticmethod
    def hard_states(rng, dim: int) -> list:
        """Full-rank, nearly pure (unresolved eigenvalues), exactly pure and
        rank-deficient states of one dimension, as in
        `TestRenyi.test_grid_traces_equal_per_core_traces_bitwise`."""
        states = []
        for trial in range(8):
            mix = 10.0 ** -rng.uniform(0.0, 14.0) if trial % 2 else 1.0
            states.append(DensityMatrix((1 - mix) * pure(rng.normal(size=dim)).mat
                                        + mix * random_density(rng, dim).mat))
        states.append(pure(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
        u = random_unitary(rng, dim)[:, 1:]
        weights = rng.uniform(0.1, 1.0, size=dim - 1)
        states.append(DensityMatrix((u * (weights / weights.sum())) @ u.conj().T))
        return states

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_batch_equals_per_pair_calls_bitwise(self, rng, dim):
        # the pairs of a sweep batch: (rho_t, rho_0) and (rho_0, rho_t)
        # with one shared rho_0, plus pairs of independent states
        states = self.hard_states(rng, dim)
        start = random_density(rng, dim)
        others = [random_density(rng, dim) for _ in states]
        rhos = states + [start] * len(states) + others
        sigmas = [start] * len(states) + states + states
        batch = ent._purities(rhos, sigmas, self.ALPHAS, 1.0)
        for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
            assert batch[i].tolist() == ent._purities([rho], [sigma], self.ALPHAS, 1.0)[0].tolist()
            for j in (0, 7, 24):
                assert batch[i, j] == ent._purities([rho], [sigma], [self.ALPHAS[j]], 1.0)[0, 0]

    def test_matches_former_core_path(self, rng):
        worst = 0.0
        for _ in range(60):
            dim = int(rng.choice([2, 3, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            got = ent._purities([rho], [sigma], self.ALPHAS, 1.0)[0]
            want = np.array([former_core_trace(rho, sigma, a) for a in self.ALPHAS])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-12

    def test_swap_identity(self, rng):
        # g(rho, sigma, a) = g(sigma, rho, 1 - a)
        for _ in range(60):
            dim = int(rng.choice([2, 3, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            got = ent._purities([rho], [sigma], self.ALPHAS, 1.0)[0]
            swapped = ent._purities([sigma], [rho], [1.0 - a for a in self.ALPHAS], 1.0)[0]
            np.testing.assert_allclose(swapped, got, rtol=1e-14, atol=0.0)

    def test_powers_take_the_support_cut(self, rng):
        # an eigenvalue of rho at or below SUPPORT_TOL times its largest is
        # zero in every power, as in the sandwiched cores: g is the value of
        # rho's top eigenvector alone
        sigma = random_density(rng, 2)
        u = random_unitary(rng, 2)
        for small in (1e-13, 5e-13):
            rho = DensityMatrix(u @ np.diag([small, 1.0 - small]) @ u.conj().T)
            top = rho.eigenvectors[:, -1]
            for alpha in (0.01, 0.5, 0.99):
                outer = linalg.mat_pow(sigma.mat, 1.0 - alpha)
                want = rho.eigenvalues[-1] ** alpha * (top.conj() @ outer @ top).real
                got = ent._purities([rho], [sigma], [alpha], 1.0)[0, 0]
                assert got == pytest.approx(want, rel=1e-13)

    def test_fig2_cells_match_depolarizing_oracle(self):
        # the fig2 preset (z = 1) on a reduced grid
        cfg = replace(cli.figure_panels("fig2")[0], alpha_grid=(0.01, 0.99, 10),
                      time_grid=(0.0, 20.0, 11))
        panel = cli.sweep_rows(cfg)
        d_fwd = panel.values["d_fwd"][:, 0, :]
        for i, alpha in enumerate(panel.alphas):
            for k, t in enumerate(panel.times):
                ref = oracles.depolarizing_entropy(
                    oracles.DepolarizingCase(cfg.r, cfg.gamma * t), float(alpha))
                assert d_fwd[i, k] == pytest.approx(ref, abs=1e-9)

    def test_petz_above_one_is_a_generalized_inverse(self, rng):
        # alpha > 1: sigma^(1 - alpha) inverts sigma on its support
        for dim in (2, 3, 4):
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            for alpha in (1.5, 2.0, 3.0):
                want = np.trace(linalg.mat_pow(rho.mat, alpha) @ linalg.mat_pow(sigma.mat, 1 - alpha))
                assert ent.petz(rho, sigma, alpha) == pytest.approx(
                    math.log(want.real) / (alpha - 1.0), rel=1e-12)
        # a rank-deficient sigma holding rho's support
        u = random_unitary(rng, 3)
        rho = DensityMatrix(u[:, :2] @ np.diag([0.3, 0.7]) @ u[:, :2].conj().T)
        sigma = DensityMatrix(u[:, :2] @ np.diag([0.6, 0.4]) @ u[:, :2].conj().T)
        want = 0.3 ** 2 * 0.6 ** -1 + 0.7 ** 2 * 0.4 ** -1
        assert ent.petz(rho, sigma, 2.0) == pytest.approx(math.log(want), rel=1e-12)


class TestSymmetrized:
    def test_identical_states(self, rng):
        dm = random_density(rng, 2)
        assert ent.renyi_az_symmetrized(dm, dm, random_params(rng)) == pytest.approx(0.0, abs=1e-10)

    def test_argument_swap(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            p = random_params(rng)
            assert ent.renyi_az_symmetrized(rho, sigma, p) == pytest.approx(
                ent.renyi_az_symmetrized(sigma, rho, p), abs=1e-12
            )

    def test_skew_symmetry(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            p = random_params(rng)
            lhs = (1 - p.alpha) * ent.renyi_az_symmetrized(rho, sigma, p)
            rhs = p.alpha * ent.renyi_az_symmetrized(rho, sigma, p.swapped)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_infinite_when_either_direction_diverges(self):
        assert ent.renyi_az_symmetrized(pure([1, 0]), bloch_state(BlochVector(0.0)), EntropyParams(0.4, 1.0)) == math.inf


class TestDirectedSymmetries:
    def test_skew_symmetry(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            p = random_params(rng)
            lhs = (1 - p.alpha) * ent.renyi_az(rho, sigma, p)
            rhs = p.alpha * ent.renyi_az(sigma, rho, p.swapped)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_half_alpha_symmetry(self, rng):
        for _ in range(50):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            z = float(rng.uniform(0.5, 1.0))
            p = EntropyParams(0.5, z)
            assert ent.renyi_az(rho, sigma, p) == pytest.approx(
                ent.renyi_az(sigma, rho, p), abs=1e-10
            )


class TestInvariances:
    def test_unitary_invariance(self, rng):
        for _ in range(50):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            p = random_params(rng)
            u = random_unitary(rng, dim)
            rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
            sigma_u = DensityMatrix(u @ sigma.mat @ u.conj().T)
            assert ent.renyi_az(rho_u, sigma_u, p) == pytest.approx(
                ent.renyi_az(rho, sigma, p), abs=1e-9
            )

    def test_tensor_additivity(self, rng):
        for _ in range(30):
            parts = [random_density(rng, 2) for _ in range(4)]
            p = random_params(rng)
            joint_rho = DensityMatrix(linalg.kron(parts[0].mat, parts[1].mat))
            joint_sigma = DensityMatrix(linalg.kron(parts[2].mat, parts[3].mat))
            lhs = ent.renyi_az(joint_rho, joint_sigma, p)
            rhs = ent.renyi_az(parts[0], parts[2], p) + ent.renyi_az(parts[1], parts[3], p)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_data_processing(self, rng):
        depol = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        ad = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 0.5))
        for _ in range(50):
            p = random_params(rng)  # dpi_valid by construction
            if rng.uniform() < 0.5:
                rho, sigma = random_density(rng, 2), random_density(rng, 2)
                fam = depol
            else:
                rho, sigma = random_density(rng, 4), random_density(rng, 4)
                fam = ad
            t = float(rng.uniform(0.1, 3.0))
            before = ent.renyi_az(rho, sigma, p)
            after = ent.renyi_az(dyn.apply_channel(fam, rho, t), dyn.apply_channel(fam, sigma, t), p)
            assert after <= before + 1e-8


class TestFidelityTruth:
    # The Uhlmann fidelity against mpmath at 30 digits, on 20 draws each
    # at dims 2, 3 and 4. A pure state |a><a| gives F = sqrt(<a|sigma|a>)
    # and two pure states give |<a|b>|; a full-rank pair goes through
    # mpmath's eigendecompositions of the two matrices the states hold.
    # Measured worst relative errors: 1.8e-15 (pure vs mixed, either
    # order), 8.4e-15 (pure vs pure, where a small overlap magnifies the
    # core's rounding) and 1.4e-15 (full rank). A kernel that sums the
    # square roots of a pure core's rounding-noise eigenvalues reads the
    # pure cases 2.7e-8 off.
    PURE, FULL = 1e-14, 3e-14

    @staticmethod
    def ket(rng, dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    @staticmethod
    def mp(x):
        """An mpmath matrix, or column for a vector, holding x's complex floats exactly."""
        return mpmath.matrix(np.asarray(x, dtype=complex).tolist())

    @classmethod
    def mixed_truth(cls, rho, sigma):
        vals, vecs = mpmath.eigh(cls.mp(rho.mat))
        root = vecs * mpmath.diag([mpmath.sqrt(max(v, 0)) for v in vals]) * vecs.H
        core = root * cls.mp(sigma.mat) * root
        return sum(mpmath.sqrt(max(v, 0)) for v in mpmath.eigh((core + core.H) / 2)[0])

    @classmethod
    def pure_truth(cls, a, sigma):
        a = cls.mp(a)
        return mpmath.sqrt(mpmath.re((a.H * cls.mp(sigma.mat) * a)[0]) / mpmath.re((a.H * a)[0]))

    @classmethod
    def overlap_truth(cls, a, b):
        a, b = cls.mp(a), cls.mp(b)
        return abs((a.H * b)[0]) / mpmath.sqrt(mpmath.re((a.H * a)[0] * (b.H * b)[0]))

    def test_matches_mpmath(self, rng):
        errors = {"pure_mixed": [], "pure_pure": [], "full_rank": []}
        with mpmath.workdps(30):
            for dim in (2, 3, 4):
                for _ in range(20):
                    a, b = self.ket(rng, dim), self.ket(rng, dim)
                    rho, sigma = random_density(rng, dim), random_density(rng, dim)
                    want = self.pure_truth(a, sigma)
                    for got in (ent.fidelity(pure(a), sigma), ent.fidelity(sigma, pure(a))):
                        errors["pure_mixed"].append(float(abs(got / want - 1)))
                    want = self.overlap_truth(a, b)
                    got = ent.fidelity(pure(a), pure(b))
                    errors["pure_pure"].append(float(abs(got / want - 1)))
                    want = self.mixed_truth(rho, sigma)
                    errors["full_rank"].append(float(abs(ent.fidelity(rho, sigma) / want - 1)))
        assert max(errors["pure_mixed"]) <= self.PURE
        assert max(errors["pure_pure"]) <= self.PURE
        assert max(errors["full_rank"]) <= self.FULL

    def test_orthogonal_pure_states(self):
        for a, b in (([1, 0], [0, 1]), ([1, 0, 0], [0, 0, 1])):
            assert ent.fidelity(pure(a), pure(b)) == ent.fidelity(pure(b), pure(a)) == 0.0
            assert ent.min_relative(pure(a), pure(b)) == math.inf


class TestChainInequalities:
    def test_araki_lieb_thirring(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            p = random_params(rng)
            g = ent.relative_purity(rho, sigma, p)
            tr = float(np.real(np.trace(
                linalg.mat_pow(rho.mat, p.alpha) @ linalg.mat_pow(sigma.mat, 1 - p.alpha)
            )))
            assert g >= tr - 1e-10

    def test_trace_lower_bound(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            alpha = float(rng.uniform(0.05, 0.95))
            tr = float(np.real(np.trace(
                linalg.mat_pow(rho.mat, alpha) @ linalg.mat_pow(sigma.mat, 1 - alpha)
            )))
            assert tr >= 1 + (1 - alpha) * math.log(sigma.k_min) - 1e-10


class TestSpecialCases:
    def test_fidelity_pure_overlap(self):
        plus = pure([1, 1])
        zero = pure([1, 0])
        assert ent.fidelity(zero, plus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert ent.min_relative(zero, plus) == pytest.approx(math.log(2), abs=1e-12)

    def test_petz_is_z_one(self, rng):
        for _ in range(30):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            alpha = float(rng.uniform(0.05, 0.95))
            assert ent.petz(rho, sigma, alpha) == ent.renyi_az(
                rho, sigma, EntropyParams(alpha, 1.0))

    def test_sandwiched_is_z_alpha(self, rng):
        for _ in range(30):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            alpha = float(rng.uniform(0.05, 0.95))
            assert ent.sandwiched(rho, sigma, alpha) == ent.renyi_az(
                rho, sigma, EntropyParams(alpha, alpha))

    def test_sandwiched_below_petz(self, rng):
        # at dim 2 the determinant rescue certifies the full alpha range;
        # at dim 4 extreme alpha pushes several eigenvalues of the sandwiched
        # product below double precision's resolvable range, so the ordering
        # is asserted where the computation carries reliable digits
        for _ in range(100):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            alpha = float(rng.uniform(0.02, 0.98))
            assert ent.sandwiched(rho, sigma, alpha) <= ent.petz(rho, sigma, alpha) + 1e-9
        for _ in range(100):
            rho, sigma = random_density(rng, 4), random_density(rng, 4)
            alpha = float(rng.uniform(0.12, 0.88))
            assert ent.sandwiched(rho, sigma, alpha) <= ent.petz(rho, sigma, alpha) + 1e-9

    def test_umegaki_bracketed_near_alpha_one(self, rng):
        for dim in (2, 4):
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            u = ent.umegaki(rho, sigma)
            for fn in (ent.petz, ent.sandwiched):
                lo, hi = fn(rho, sigma, 1 - 1e-4), fn(rho, sigma, 1 + 1e-4)
                assert lo - 1e-3 <= u <= hi + 1e-3

    def test_umegaki_identical(self, rng):
        dm = random_density(rng, 3)
        assert ent.umegaki(dm, dm) == pytest.approx(0.0, abs=1e-12)

    def test_umegaki_support_violation(self):
        assert ent.umegaki(bloch_state(BlochVector(0.0)), pure([0, 1])) == math.inf

    def test_max_relative(self, rng):
        dm = random_density(rng, 2)
        assert ent.max_relative(dm, dm) == pytest.approx(0.0, abs=1e-10)
        # scaling: rho vs I/2 has D_max = ln(2 k_max)
        assert ent.max_relative(dm, bloch_state(BlochVector(0.0))) == pytest.approx(
            math.log(2 * dm.k_max), abs=1e-10
        )

    def test_affinity_matches_half_one(self, rng):
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        assert ent.affinity_entropy(rho, sigma) == pytest.approx(
            ent.renyi_az(rho, sigma, EntropyParams(0.5, 1.0)), abs=1e-14
        )

    def test_dispatcher(self, rng):
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        assert ent.special_case(rho, sigma, "fidelity") == pytest.approx(ent.fidelity(rho, sigma))
        assert ent.special_case(rho, sigma, "petz", alpha=0.4) == pytest.approx(
            ent.petz(rho, sigma, 0.4)
        )
        with pytest.raises(InvalidParamsError):
            ent.special_case(rho, sigma, "nope")
        with pytest.raises(InvalidParamsError):
            ent.special_case(rho, sigma, "petz")
