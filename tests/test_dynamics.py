import math

import numpy as np
import pytest

from azqsl import dynamics as dyn
from azqsl import linalg
from azqsl.errors import CompletenessViolationError, DimMismatchError, NotHermitianError
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import random_bloch_state


@pytest.fixture
def rng():
    return np.random.default_rng(303)


def plus_state() -> DensityMatrix:
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def constant_identity_family(dim: int) -> dyn.KrausFamily:
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    return dyn.KrausFamily(dim=dim, n_ops=1, ops_fn=lambda t: [eye], dops_fn=lambda t: [zero])


class TestUnitary:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(NotHermitianError):
            dyn.HamiltonianModel(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stationary_eigenstate(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        traj = dyn.evolve_unitary(h, rho0, 2.0, 51)
        assert np.max(traj.speeds) <= 1e-12
        assert np.max(np.abs(traj.states - rho0.mat[None])) <= 1e-12

    def test_plus_state_speed(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        traj = dyn.evolve_unitary(h, plus_state(), 3.0, 101)
        assert np.max(np.abs(traj.speeds - 2.0)) <= 1e-10

    def test_spectrum_invariance(self, rng):
        for _ in range(20):
            rho0, bv = random_bloch_state(rng)
            h = dyn.HamiltonianModel.qubit(rng.normal(size=3))
            traj = dyn.evolve_unitary(h, rho0, 2.5, 201)
            assert np.max(np.abs(traj.kmins - (1 - bv.r) / 2)) <= 1e-10

    def test_speed_bounded_by_twice_fluctuation(self, rng):
        for _ in range(20):
            rho0, _ = random_bloch_state(rng)
            h = dyn.HamiltonianModel.qubit(rng.normal(size=3))
            traj = dyn.evolve_unitary(h, rho0, 1.0, 51)
            dh = dyn.energy_fluctuation(h, rho0)
            assert np.max(traj.speeds) <= 2 * dh + 1e-8

    def test_pure_state_saturates_speed_bound(self, rng):
        for _ in range(10):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            rho0 = bloch_state(BlochVector(1.0, theta, phi))
            h = dyn.HamiltonianModel.qubit(rng.normal(size=3))
            traj = dyn.evolve_unitary(h, rho0, 1.0, 21)
            dh = dyn.energy_fluctuation(h, rho0)
            assert np.max(np.abs(traj.speeds - 2 * dh)) <= 1e-8

    def test_dim_mismatch(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        with pytest.raises(DimMismatchError):
            dyn.evolve_unitary(h, ghz_mixed(GHZMixedParams(0.5)), 1.0, 11)


class TestEnergyFluctuation:
    def test_maximally_mixed(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        assert dyn.energy_fluctuation(h, bloch_state(BlochVector(0.0))) == pytest.approx(1.0)

    def test_eigenstate(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert dyn.energy_fluctuation(h, rho0) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_axis_closed_form(self):
        h = dyn.HamiltonianModel.qubit([2.0, 0.0, 0.0])
        rho0 = bloch_state(BlochVector(0.5, 0.0, 0.0))  # along z, orthogonal to x
        assert dyn.energy_fluctuation(h, rho0) == pytest.approx(2.0, abs=1e-12)

    def test_qubit_closed_form(self, rng):
        for _ in range(50):
            rho0, bv = random_bloch_state(rng)
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n)
            norm = np.linalg.norm(n)
            expected = norm * math.sqrt(max(1 - (n / norm @ bv.cartesian) ** 2, 0.0))
            assert dyn.energy_fluctuation(h, rho0) == pytest.approx(expected, abs=1e-10)


class TestCoherenceMeasure:
    def test_commuting_is_zero(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert dyn.coherence_measure(h, rho0) == pytest.approx(0.0, abs=1e-14)

    def test_plus_state_value(self):
        h = dyn.HamiltonianModel(linalg.SIGMA_Z)
        assert dyn.coherence_measure(h, plus_state()) == pytest.approx(0.5, abs=1e-14)

    def test_aligned_axes_zero(self):
        h = dyn.HamiltonianModel.qubit([0.0, 0.0, 2.0])
        rho0 = bloch_state(BlochVector(0.6, 0.0, 0.0))
        assert dyn.coherence_measure(h, rho0) == pytest.approx(0.0, abs=1e-14)

    def test_qubit_relation(self, rng):
        for _ in range(50):
            rho0, bv = random_bloch_state(rng)
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n)
            norm = np.linalg.norm(n)
            cosang = n / norm @ bv.cartesian / bv.r
            lhs = 1 - cosang**2
            rhs = 2 * dyn.coherence_measure(h, rho0) / (norm * bv.r) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDepolarizing:
    def test_identity_at_time_zero(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        ops = fam.op_stacks(np.array([0.0]))[0]
        assert np.allclose(ops[0], np.eye(2))
        for k in ops[1:]:
            assert np.max(np.abs(k)) == 0.0

    def test_completeness(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        for ops in fam.op_stacks(np.array([0.0, 0.7, 3.0, 15.0])):
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_speed_term_formula(self, rng):
        gamma = 1.3
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(gamma))
        rho0, _ = random_bloch_state(rng)
        for t in (0.0, 0.4, 2.0):
            terms = dyn.kraus_speed_terms(fam, rho0, t)
            e = math.exp(-gamma * max(t, 1e-9 / gamma))
            expected = np.array([3.0, 1.0, 1.0, 1.0]) * gamma * e / 8.0
            assert np.max(np.abs(terms - expected)) <= 1e-10

    def test_bloch_vector_contraction(self, rng):
        gamma = 0.8
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(gamma))
        rho0, bv = random_bloch_state(rng)
        traj = dyn.evolve_kraus(fam, rho0, 4.0, 101)
        for i in (10, 50, 100):
            t = traj.times[i]
            v = math.exp(-gamma * t) * bv.cartesian
            expected = (
                np.eye(2) + v[0] * linalg.SIGMA_X + v[1] * linalg.SIGMA_Y + v[2] * linalg.SIGMA_Z
            ) / 2
            assert np.max(np.abs(traj.states[i] - expected)) <= 1e-10

    def test_kmin_closed_form(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0, bv = random_bloch_state(rng)
        traj = dyn.evolve_kraus(fam, rho0, 6.0, 121)
        expected = (1 - np.exp(-traj.times) * bv.r) / 2
        assert np.max(np.abs(traj.kmins - expected)) <= 1e-12


class TestAmplitudeDamping:
    def test_gamma_at_time_zero(self):
        assert dyn.decoherence_gamma(0.0, 1.0, 0.5) == pytest.approx(1.0)
        assert dyn.decoherence_gamma(0.0, 1.0, 10.0) == pytest.approx(1.0)

    def test_gamma_closed_limit(self):
        assert dyn.decoherence_gamma(2.0, 1.0, 0.5) == pytest.approx(2.0 / math.e, abs=1e-14)
        grid = np.linspace(0.0, 20.0, 201)
        closed = np.exp(-grid / 2) * (1 + grid / 2)
        assert np.max(np.abs(dyn.decoherence_gamma(grid, 1.0, 0.5) - closed)) <= 1e-10

    def test_gamma_bounded(self):
        grid = np.linspace(0.0, 30.0, 3001)
        for s in (0.1, 0.5, 2.0, 10.0):
            assert np.max(np.abs(dyn.decoherence_gamma(grid, 1.0, s))) <= 1.0 + 1e-12

    def test_gamma_branch_continuity(self):
        for lt in (0.5, 2.0, 7.0):
            lo = dyn.decoherence_gamma(lt, 1.0, 0.5 - 1e-10)
            mid = dyn.decoherence_gamma(lt, 1.0, 0.5)
            hi = dyn.decoherence_gamma(lt, 1.0, 0.5 + 1e-10)
            assert lo == pytest.approx(mid, abs=1e-9)
            assert hi == pytest.approx(mid, abs=1e-9)

    def test_derivative_oscillates_when_non_markovian(self):
        grid = np.linspace(1e-4, 10.0, 2000)
        dg = dyn.decoherence_gamma_dt(grid, 1.0, 10.0)
        sign_changes = int(np.sum(dg[:-1] * dg[1:] < 0))
        assert sign_changes >= 1

    def test_derivative_monotone_when_markovian(self):
        grid = np.linspace(1e-4, 10.0, 2000)
        for s in (0.2, 0.5):
            assert np.all(dyn.decoherence_gamma_dt(grid, 1.0, s) <= 1e-15)

    def test_identity_at_time_zero(self):
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 0.5))
        ops = fam.op_stacks(np.array([0.0]))[0]
        assert np.allclose(ops[0], np.eye(4), atol=1e-12)
        for k in ops[1:]:
            assert np.max(np.abs(k)) <= 1e-12

    def test_completeness(self):
        for s in (0.5, 2.0, 10.0):
            fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
            for ops in fam.op_stacks(np.array([0.0, 0.3, 1.0, 5.0, 18.0])):
                total = sum(k.conj().T @ k for k in ops)
                assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_asymptotic_ground_state(self):
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 0.5))
        rho0 = ghz_mixed(GHZMixedParams(0.7))
        out = dyn.apply_channel(fam, rho0, 60.0)
        ground = np.zeros((4, 4))
        ground[0, 0] = 1.0
        assert np.max(np.abs(out.mat - ground)) <= 1e-8

    def test_markovian_flag(self):
        assert dyn.AmplitudeDampingParams(1.0, 0.5).markovian
        assert not dyn.AmplitudeDampingParams(1.0, 2.0).markovian


class TestTrajectories:
    def test_constant_identity_family_is_stationary(self):
        fam = constant_identity_family(2)
        rho0 = bloch_state(BlochVector(0.5, 1.0, 0.2))
        traj = dyn.evolve_kraus(fam, rho0, 2.0, 41)
        assert np.max(traj.speeds) == 0.0
        assert np.max(np.abs(traj.states - rho0.mat[None])) == 0.0
        assert np.max(np.abs(dyn.kraus_speed_terms(fam, rho0, 1.0))) == 0.0

    def test_trace_preserved(self, rng):
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 10.0))
        traj = dyn.evolve_kraus(fam, ghz_mixed(GHZMixedParams(0.9)), 12.0, 301)
        traces = np.einsum("tii->t", traj.states).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-9

    def test_completeness_violation_raises(self):
        bad = dyn.KrausFamily(
            dim=2,
            n_ops=1,
            ops_fn=lambda t: [0.9 * np.eye(2, dtype=complex)],
            dops_fn=lambda t: [np.zeros((2, 2), dtype=complex)],
        )
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(bad, bloch_state(BlochVector(0.3)), 1.0, 11)

    def test_kraus_triangle_bound(self, rng):
        cases = [
            (dyn.depolarizing_family(dyn.DepolarizingParams(1.0)),
             bloch_state(BlochVector(0.7, 1.0, 0.5)), 5.0),
            (dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 2.0)),
             ghz_mixed(GHZMixedParams(0.4)), 3.0),
        ]
        for fam, rho0, tau in cases:
            traj = dyn.evolve_kraus(fam, rho0, tau, 201)
            terms = dyn.kraus_speed_term_stacks(fam, rho0, traj.times, fd_step=1e-5 * tau)
            assert np.all(traj.speeds <= 2.0 * terms.sum(axis=1) + 1e-8)

    def test_analytic_derivative_matches_finite_difference(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.6, 1.0, 0.5))
        t0 = 0.8
        K, dK = fam.stacks(np.array([t0]))
        drho = np.einsum("tlij,jk,tlmk->im", dK, rho0.mat, K.conj())
        drho = drho + drho.conj().T

        def rho_at(t):
            return dyn.apply_channel(fam, rho0, t).mat

        errs = []
        for h in (1e-3, 5e-4):
            fd = (rho_at(t0 + h) - rho_at(t0 - h)) / (2 * h)
            errs.append(linalg.trace_norm(fd - drho))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order >= 1.8

    def test_fd_fallback_for_user_family(self):
        analytic = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        fd_only = dyn.KrausFamily(
            dim=2, n_ops=4, ops_fn=lambda t: analytic.op_stacks(np.array([t]))[0]
        )
        rho0 = bloch_state(BlochVector(0.5, 0.7, 0.1))
        traj_a = dyn.evolve_kraus(analytic, rho0, 2.0, 101)
        traj_b = dyn.evolve_kraus(fd_only, rho0, 2.0, 101)
        assert np.max(np.abs(traj_a.speeds[1:] - traj_b.speeds[1:])) <= 1e-6
        # below t = h the difference is a forward one; above it, central
        h = 1e-5 * 2.0
        _, dK = fd_only.stacks(traj_b.times, fd_step=h)
        ops = analytic.op_stacks
        assert np.array_equal(dK[0], (ops([h])[0] - ops([0.0])[0]) / h)
        t1 = traj_b.times[1]
        assert np.array_equal(dK[1], (ops([t1 + h])[0] - ops([t1 - h])[0]) / (2.0 * h))


class TestStateFamiliesMatchOracleGamma:
    def test_two_qubit_product_structure(self, rng):
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 2.0))
        for t in (0.3, 1.0, 2.4):
            g = float(dyn.decoherence_gamma(t, 1.0, 2.0))
            e2 = math.sqrt(max(1 - g * g, 0.0))
            k1 = np.array([[1, 0], [0, g]], dtype=complex)
            k2 = np.array([[0, e2], [0, 0]], dtype=complex)
            expected = [np.kron(a, b) for a in (k1, k2) for b in (k1, k2)]
            for got, want in zip(fam.op_stacks(np.array([t]))[0], expected):
                assert np.max(np.abs(got - want)) <= 1e-12


BUILT_IN_FAMILIES = {
    "depolarizing": (
        dyn.depolarizing_family(dyn.DepolarizingParams(1.3)),
        bloch_state(BlochVector(0.6, 0.9, 0.4)),
    ),
    "amplitude_damping": (
        dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 10.0)),
        ghz_mixed(GHZMixedParams(0.4)),
    ),
}


@pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
class TestOneSampleContract:
    # every caller reads a family through its batched stacks, so a batch
    # row must equal the one-sample call at its time bit for bit
    times = np.array([0.0, 1e-10, 0.37, 2.0, 9.5, 17.0])

    def test_stack_rows_equal_one_sample_calls(self, name):
        fam, _ = BUILT_IN_FAMILIES[name]
        K_exact = fam.op_stacks(self.times)
        K, dK = fam.stacks(self.times)
        for i, t in enumerate(self.times):
            assert np.array_equal(K_exact[i], fam.op_stacks(np.array([t]))[0])
            K_one, dK_one = fam.stacks(np.array([t]))
            assert np.array_equal(K[i], K_one[0])
            assert np.array_equal(dK[i], dK_one[0])

    def test_speed_terms_equal_stack_rows(self, name):
        fam, rho0 = BUILT_IN_FAMILIES[name]
        rows = dyn.kraus_speed_term_stacks(fam, rho0, self.times)
        for i, t in enumerate(self.times):
            assert np.array_equal(rows[i], dyn.kraus_speed_terms(fam, rho0, t))

    def test_apply_channel_is_trajectory_endpoint(self, name):
        fam, rho0 = BUILT_IN_FAMILIES[name]
        for t in self.times[1:]:
            endpoint = dyn.evolve_kraus(fam, rho0, t, 3).final_state
            assert np.array_equal(dyn.apply_channel(fam, rho0, t).mat, endpoint.mat)
