import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from azqsl import dynamics as dyn
from azqsl import linalg
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    CompletenessViolationError,
    DimMismatchError,
    InvalidStateError,
    NotHermitianError,
)
from azqsl.qsl import qsl_nonunitary
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import random_bloch_state, random_density, stinespring_family


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
        # per-operator norms 3, 1, 1, 1 times gamma e / 8, at 0, 0.4, ..., 2
        traj = dyn.evolve_kraus(fam, rho0, 2.0, 6, rates=True)
        for t, rate in zip(traj.times, traj.rates):
            e = math.exp(-gamma * max(t, 1e-9 / gamma))
            assert abs(rate - 6.0 * gamma * e / 8.0) <= 1e-10

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
        traj = dyn.evolve_kraus(fam, rho0, 2.0, 41, rates=True)
        assert np.max(traj.speeds) == 0.0
        assert np.max(np.abs(traj.states - rho0.mat[None])) == 0.0
        assert np.max(traj.rates) == 0.0

    @pytest.mark.parametrize(
        "rates", [np.zeros(10), np.full(11, -1e-3), np.full(11, math.nan), np.full(11, math.inf)]
    )
    def test_rejects_bad_rates(self, rates):
        # one finite rate per sample, none negative
        rho0 = bloch_state(BlochVector(0.5))
        traj = dyn.evolve_kraus(constant_identity_family(2), rho0, 1.0, 11)
        with pytest.raises(InvalidStateError):
            replace(traj, rates=rates)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_rejects_bad_speeds(self, bad):
        rho0 = bloch_state(BlochVector(0.5))
        traj = dyn.evolve_kraus(constant_identity_family(2), rho0, 1.0, 11)
        speeds = traj.speeds.copy()
        speeds[7] = bad
        with pytest.raises(InvalidStateError):
            replace(traj, speeds=speeds)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("bad,seed", [(math.nan, 1), (math.inf, 2), (-math.inf, 3)])
    def test_non_finite_derivative_raises(self, bad, seed, rates):
        # one entry of one operator's derivative at one random sample
        rng = np.random.default_rng(2 * seed + rates)
        analytic = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        times = np.linspace(0.0, 2.0, 101)
        t_bad = float(times[rng.integers(len(times))])
        l, i, j = rng.integers(4), rng.integers(2), rng.integers(2)

        def dops(t):
            dK = analytic.stacks(np.array([t]))[1][0]
            if t == t_bad:
                dK[l, i, j] = bad
            return dK

        fam = dyn.KrausFamily(2, 4, lambda t: analytic.op_stacks(np.array([t]))[0], dops)
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        with pytest.raises(InvalidStateError, match="non-finite Kraus derivative"):
            dyn.evolve_kraus(fam, rho0, 2.0, len(times), rates=rates)

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
            traj = dyn.evolve_kraus(fam, rho0, tau, 201, rates=True)
            assert np.all(traj.speeds <= 2.0 * traj.rates + 1e-8)

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
        # the rate at a trajectory's horizon is the one-sample oracle's
        fam, rho0 = BUILT_IN_FAMILIES[name]
        for t in self.times[1:]:
            rate = dyn.evolve_kraus(fam, rho0, t, 3, rates=True).rates[-1]
            want = oracle_contractions(*oracle_pair(fam, np.array([t])), rho0)[3]
            assert rate == want.sum(axis=1)[0]

    def test_apply_channel_is_trajectory_endpoint(self, name):
        fam, rho0 = BUILT_IN_FAMILIES[name]
        for t in self.times[1:]:
            endpoint = dyn.evolve_kraus(fam, rho0, t, 3).final_state
            assert np.array_equal(dyn.apply_channel(fam, rho0, t).mat, endpoint.mat)


def oracle_contractions(K_exact, K, dK, rho0):
    """The trajectory layer as three-operand einsums: states, Schatten
    speeds, k_min and per-operator rate terms from the given stacks. The
    rate terms take the library's trace-norm kernel, which tests/test_linalg.py
    pins against the SVD; this oracle pins the contractions."""
    states = np.einsum("tlij,jk,tlmk->tim", K_exact, rho0.mat, K_exact.conj())
    states = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    half = np.einsum("tlij,jk,tlmk->tim", dK, rho0.mat, K.conj())
    dstates = half + np.conj(np.swapaxes(half, 1, 2))
    speeds = np.abs(np.linalg.eigvalsh(dstates)).sum(axis=-1)
    kmins = np.maximum(np.linalg.eigvalsh(states)[:, 0], 0.0)
    prods = np.einsum("tlij,jk,tlmk->tlim", K, rho0.mat, dK.conj())
    terms = linalg.trace_norms(prods)
    return states, speeds, kmins, terms


def oracle_pair(fam, times):
    """(K at the exact times, K, dK) without the stack shortcuts: the
    amplitude-damping products as one Kronecker einsum per slot, the
    depolarizing pair's K sampled at the clamped times."""
    if isinstance(fam, dyn.AmplitudeDampingFamily):
        S, dS = fam._pair_stacks(times)
        singles = [(S[:, 0], dS[:, 0]), (S[:, 1], dS[:, 1])]

        def kron(a, b):
            return np.einsum("tab,tcd->tacbd", a, b).reshape(len(times), 4, 4)

        K = np.stack([kron(a, b) for a, _ in singles for b, _ in singles], axis=1)
        dK = np.stack(
            [kron(da, b) + kron(a, db) for a, da in singles for b, db in singles], axis=1
        )
        return K, K, dK
    K, dK = fam.stacks(times)
    if isinstance(fam, dyn.DepolarizingFamily):
        floor = dyn.DEPOLARIZING_T_FLOOR / fam.params.gamma
        return fam.op_stacks(times), fam.op_stacks(np.maximum(times, floor)), dK
    return K, K, dK


def bit_flip_family() -> dyn.KrausFamily:
    p = 0.3
    ops = [math.sqrt(1 - p) * np.eye(2, dtype=complex), math.sqrt(p) * linalg.SIGMA_X]
    zeros = [np.zeros((2, 2), dtype=complex)] * 2
    return dyn.KrausFamily(dim=2, n_ops=2, ops_fn=lambda t: ops, dops_fn=lambda t: zeros)


class TableFamily(dyn.KrausFamily):
    """A family given by its (K, dK) stacks on one time grid; it exists at
    those times only."""

    def __init__(self, times, K, dK):
        super().__init__(dim=K.shape[-1], n_ops=K.shape[1], ops_fn=None)
        self.times, self.K, self.dK = times, K, dK

    def __repr__(self):
        return f"TableFamily(dim={self.dim}, n_ops={self.n_ops}, n_times={len(self.times)})"

    def _rows(self, times):
        rows = np.searchsorted(self.times, np.asarray(times, dtype=float))
        assert np.array_equal(self.times[rows], times)
        return rows

    def op_stacks(self, times):
        return self.K[self._rows(times)]

    def stacks(self, times, fd_step=None):
        rows = self._rows(times)
        return self.K[rows], self.dK[rows]


def monomial_stack(amps, perms):
    """Operator l sends column j to row perms[l][j] with amplitude
    amps[:, l, j]; a column whose amplitude is zero at every sample leaves
    its row empty."""
    n_times, n_ops, dim = amps.shape
    K = np.zeros((n_times, n_ops, dim, dim), dtype=complex)
    for l in range(n_ops):
        K[:, l, perms[l], np.arange(dim)] = amps[:, l]
    return K


def random_amplitudes(rng, n_times, n_ops, dim, p_zero, unit_columns):
    """Complex amplitudes with some columns dropped for good and exact zeros
    at random samples. With `unit_columns`, every column has unit norm over
    the operators at every sample, which makes a monomial stack complete;
    one operator per column is never zeroed, so the norm is never 0."""
    amps = rng.normal(size=(n_times, n_ops, dim)) + 1j * rng.normal(size=(n_times, n_ops, dim))
    keeper = (rng.integers(n_ops, size=dim), np.arange(dim))
    dropped = rng.random((n_ops, dim)) < 0.3
    dropped[keeper] = False
    zeros = rng.random((n_times, n_ops, dim)) < p_zero
    zeros[:, keeper[0], keeper[1]] = False
    amps[zeros | dropped] = 0.0
    if unit_columns:
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=1, keepdims=True))
    return amps


@st.composite
def monomial_cases(draw):
    dim = draw(st.integers(1, 4))
    n_ops = draw(st.integers(1, 4))
    n_steps = draw(st.sampled_from([3, 5, 9, 21]))
    p_zero = draw(st.sampled_from([0.0, 0.2, 0.5]))
    tau = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.linspace(0.0, tau, n_steps)
    K = monomial_stack(
        random_amplitudes(rng, n_steps, n_ops, dim, p_zero, unit_columns=True),
        [rng.permutation(dim) for _ in range(n_ops)],
    )
    dK = monomial_stack(
        random_amplitudes(rng, n_steps, n_ops, dim, p_zero, unit_columns=False),
        [rng.permutation(dim) for _ in range(n_ops)],
    )
    if draw(st.booleans()):
        rho0 = random_density(rng, dim)
    else:  # a diagonal probe puts exact zeros into the products
        weights = rng.uniform(0.1, 1.0, size=dim)
        rho0 = DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
    return TableFamily(times, K, dK), rho0, tau, n_steps


def no_call(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


class TestContractions:
    # Operators with at most one nonzero per row and column over all
    # samples are gathered into values and columns, and each entry of a
    # product is the oracle's single triple product, summed over operators
    # in operator order: the same bits. Other families take two-operand
    # einsums that keep the operator sum inside them. The 7e-8 horizons put
    # eleven depolarizing samples below the clamping floor.
    MONOMIAL = {
        "depolarizing": (BUILT_IN_FAMILIES["depolarizing"], (7.0, 7e-8)),
        "amplitude_damping": (BUILT_IN_FAMILIES["amplitude_damping"], (17.0, 7e-8)),
        "amplitude_damping_markovian": (
            (dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(2.0, 0.3)),
             ghz_mixed(GHZMixedParams(0.8))),
            (5.0,),
        ),
        "bit_flip": ((bit_flip_family(), bloch_state(BlochVector(0.6, 0.9, 0.4))), (3.0,)),
    }

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_monomial_families_equal_oracle(self, name):
        (fam, rho0), horizons = self.MONOMIAL[name]
        for tau in horizons:
            traj = dyn.evolve_kraus(fam, rho0, tau, 1001, rates=True)
            want = oracle_contractions(*oracle_pair(fam, traj.times), rho0)
            assert np.array_equal(traj.states, want[0])
            assert np.array_equal(traj.speeds, want[1])
            assert np.array_equal(traj.kmins, want[2])
            assert np.array_equal(traj.rates, want[3].sum(axis=1))

    @seed(20261018)
    @settings(max_examples=80, deadline=None, database=None)
    @given(monomial_cases())
    def test_random_monomial_families_equal_oracle(self, case):
        fam, rho0, tau, n_steps = case
        with mock.patch.object(np, "einsum", no_call("einsum")):
            traj = dyn.evolve_kraus(fam, rho0, tau, n_steps, rates=True)
        want = oracle_contractions(*oracle_pair(fam, traj.times), rho0)
        assert np.array_equal(traj.states, want[0])
        assert np.array_equal(traj.speeds, want[1])
        assert np.array_equal(traj.kmins, want[2])
        assert np.array_equal(traj.rates, want[3].sum(axis=1))

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_monomial_families_skip_einsum(self, name, monkeypatch):
        (fam, rho0), horizons = self.MONOMIAL[name]
        monkeypatch.setattr(np, "einsum", no_call("einsum"))
        for tau in horizons:
            dyn.evolve_kraus(fam, rho0, tau, 1001, rates=True)
            dyn.apply_channel(fam, rho0, tau)

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_built_in_rates_take_closed_forms(self, name, monkeypatch):
        # every block of a built-in product has at most two rows or columns
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called")

        fam, rho0 = BUILT_IN_FAMILIES[name]
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert dyn.evolve_kraus(fam, rho0, 17.0, 1001, rates=True).rates[-1] > 0.0

    def test_amplitude_damping_kronecker_stacks(self):
        fam, _ = BUILT_IN_FAMILIES["amplitude_damping"]
        times = np.linspace(0.0, 17.0, 1001)
        K, dK = fam.stacks(times)
        _, K_want, dK_want = oracle_pair(fam, times)
        assert np.array_equal(K, K_want)
        assert np.array_equal(dK, dK_want)

    @staticmethod
    def assert_dense_matches_oracle(fam, rho0, tau, monkeypatch):
        monkeypatch.setattr(dyn, "_gathered_products", no_call("_gathered_products"))
        traj = dyn.evolve_kraus(fam, rho0, tau, 1001, rates=True)
        states, speeds, kmins, want_terms = oracle_contractions(
            *oracle_pair(fam, traj.times), rho0
        )
        assert np.max(np.abs(traj.states - states)) <= 1e-13
        assert np.max(np.abs(traj.kmins - kmins)) <= 1e-13
        assert np.max(np.abs(traj.speeds - speeds) / speeds) <= 1e-12
        assert np.max(np.abs(traj.rates / want_terms.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("dim,n_ops", [(2, 3), (3, 2), (4, 4)])
    def test_dense_family_matches_oracle(self, dim, n_ops, monkeypatch):
        rng = np.random.default_rng(dim * 10 + n_ops)
        fam = stinespring_family(rng, dim, n_ops)
        self.assert_dense_matches_oracle(fam, random_density(rng, dim), 2.0, monkeypatch)

    def test_switching_permutation_takes_einsum(self, monkeypatch):
        # monomial at every sample, but the permutations change halfway, so
        # the union over samples has two nonzeros in a row
        rng = np.random.default_rng(11)
        times = np.linspace(0.0, 2.0, 1001)
        halves = [np.arange(3)] * 2, [np.array([1, 2, 0]), np.array([2, 1, 0])]
        split = len(times) // 2
        K = np.concatenate([
            monomial_stack(random_amplitudes(rng, n, 2, 3, 0.0, unit_columns=True), perms)
            for n, perms in zip((split, len(times) - split), halves)
        ])
        dK = monomial_stack(random_amplitudes(rng, len(times), 2, 3, 0.0, unit_columns=False),
                            [np.arange(3), np.array([2, 0, 1])])
        fam = TableFamily(times, K, dK)
        self.assert_dense_matches_oracle(fam, random_density(rng, 3), 2.0, monkeypatch)

    def test_not_trace_preserving_raises(self):
        rng = np.random.default_rng(7)
        dense = stinespring_family(rng, 3, 2)
        shrunk = dyn.KrausFamily(
            dim=3, n_ops=2, ops_fn=lambda t: 0.99 * dense.op_stacks([t])[0],
            dops_fn=lambda t: 0.99 * dense.stacks([t])[1][0],
        )
        rho0 = random_density(rng, 3)
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(shrunk, rho0, 1.0, 101)
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(shrunk, rho0, 1.0, 11, rates=True)

    def test_regularized_rows_are_checked(self):
        # only the clamped t = 0 row of this pair breaks completeness: the
        # states pass, the Kraus rates must not
        class BadFloor(dyn.DepolarizingFamily):
            def op_stacks(self, times):
                K = super().op_stacks(times)
                K[np.asarray(times) == dyn.DEPOLARIZING_T_FLOOR / self.params.gamma] *= 1.1
                return K

        fam = BadFloor(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.5))
        dyn.evolve_kraus(fam, rho0, 1.0, 101)
        with pytest.raises(CompletenessViolationError):
            qsl_nonunitary(fam, rho0, 1.0, EntropyParams(0.5, 1.0), 101)
