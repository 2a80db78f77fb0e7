import csv
import io
import math
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from azqsl import cli, linalg, oracles
from azqsl import dynamics as dyn
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    AzqslError,
    CompletenessViolationError,
    DimMismatchError,
    InvalidParamsError,
    InvalidStateError,
    NotHermitianError,
    _attempt,
)
from azqsl.qsl import qsl_nonunitary
from azqsl.states import (
    BlochVector,
    DensityMatrix,
    GHZMixedParams,
    bloch_state,
    ghz_mixed,
    load_state,
)
from helpers import (
    ThreeQubitDampingFamily,
    ghz3_mixed,
    random_bloch_state,
    random_density,
    samples_of,
    stinespring_family,
    time_grids,
)


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

    def test_sweep_matches_purity_oracle(self):
        # D_fwd = log g / (alpha - 1) with g the closed-form relative purity
        # of the rotated probe, on a field that is not along the Bloch axis
        cfg = cli.SweepConfig(model="unitary_qubit", n=(1.0, 0.0, 0.5),
                              alpha_grid=(0.01, 0.99, 10), time_grid=(0.0, 20.0, 11))
        rows = list(csv.DictReader(io.StringIO(cli.run_sweep(cfg))))
        worst, checked = 0.0, 0
        for row in rows:
            d_fwd = float(row["D_fwd"])
            if not math.isfinite(d_fwd):
                continue
            alpha, t = float(row["alpha"]), float(row["t"])
            case = oracles.QubitUnitaryCase(cfg.r, cfg.theta, cfg.phi, cfg.n, t)
            g = oracles.unitary_purity(case, EntropyParams(alpha, float(row["z"])))
            worst = max(worst, abs(d_fwd - math.log(g) / (alpha - 1.0)))
            checked += 1
        assert checked >= 100
        assert worst <= 5e-13

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_speed_and_kmin_are_the_orbit_invariants(self, dim, monkeypatch):
        # taken once from rho_0, with no einsum and no per-sample spectra
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h, rho0 = dyn.HamiltonianModel((x + x.conj().T) / 2), random_density(rng, dim)
        widths = []

        def spectra(positions, values, *args, **kwargs):
            widths.append(values.shape[1])
            return real_spectra(positions, values, *args, **kwargs)

        real_spectra = linalg._sample_spectra
        monkeypatch.setattr(linalg, "_sample_spectra", spectra)
        monkeypatch.setattr(np, "einsum", no_call("einsum"))
        traj = dyn.evolve_unitary(h, rho0, 3.0, 1001)
        assert widths == [1, 1]
        assert np.all(traj.speeds == traj.speeds[0]) and np.all(traj.kmins == traj.kmins[0])
        comm = h.mat @ rho0.mat - rho0.mat @ h.mat
        assert traj.speeds[0] == pytest.approx(np.linalg.svd(comm, compute_uv=False).sum(),
                                               rel=1e-12)
        assert traj.kmins[0] == pytest.approx(max(rho0.k_min, 0.0), abs=1e-15)
        # the states are the orbit, and keep the spectrum of rho_0
        u = scipy.linalg.expm(-3.0j * h.mat)
        assert np.max(np.abs(traj.states[-1] - u @ rho0.mat @ u.conj().T)) <= 1e-12
        spectra_t = np.linalg.eigvalsh(traj.states)
        assert np.max(np.abs(spectra_t - rho0.eigenvalues)) <= 1e-12

    def test_zero_commutator_sweep(self):
        # a probe diagonal in the eigenbasis of a diagonal field does not
        # move: every state is rho_0 bit for bit, so every horizon of an
        # alpha gives the same row, with a zero speed and bound
        cfg = cli.SweepConfig(model="unitary_qubit", r=0.6, theta=0.0,
                              alpha_grid=(0.01, 0.99, 10), time_grid=(0.0, 20.0, 11))
        model, rho0 = cli._model(cfg), cli._probe_state(cfg)
        traj = dyn.evolve_unitary(model, rho0, 20.0, 1001)
        assert np.all(traj.states == rho0.mat) and np.all(traj.speeds == 0.0)
        panel = cli.sweep_rows(cfg)
        assert np.all(panel.values["rhs_sym"] == 0.0)
        rows = list(csv.reader(io.StringIO(cli.rows_to_csv([(cfg, panel)]))))
        t_col = rows[0].index("t")
        moving = [row[:t_col] + row[t_col + 1:] for row in rows[1:] if float(row[t_col]) > 0.0]
        assert len(moving) == 100
        for first in range(0, 100, 10):
            assert all(row == moving[first] for row in moving[first:first + 10])


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

    @staticmethod
    def separate_formulas(t, lam, s):
        """gamma_t and its derivative as two separate closed forms."""
        x = lam * np.asarray(t, dtype=float) / 2.0
        damp = np.exp(-x)
        if abs(s - 0.5) < 1e-9:
            return damp * (1.0 + x), -(lam / 2.0) * x * damp
        if s < 0.5:
            q = np.sqrt(1.0 - 2.0 * s)
            g = damp * (np.cosh(x * q) + np.sinh(x * q) / q)
            return g, -(lam * s / q) * damp * np.sinh(x * q)
        q = np.sqrt(2.0 * s - 1.0)
        g = damp * (np.cos(x * q) + np.sin(x * q) / q)
        return g, -(lam * s / q) * damp * np.sin(x * q)

    @pytest.mark.parametrize("s", [0.0, 0.2, 0.5 - 5e-10, 0.5, 0.5 + 5e-10, 0.7, 10.0])
    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_gamma_pair_keeps_the_separate_formulas_bits(self, s, lam):
        times = np.concatenate([np.linspace(0.0, 20.0, 1001), [1e-300, 3.7, 55.0]])
        g, dg = self.separate_formulas(times, lam, s)
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(lam, s))
        S, dS = fam._pair_stacks(times)
        for got, want in [
            (dyn.decoherence_gamma(times, lam, s), g),
            (dyn.decoherence_gamma_dt(times, lam, s), dg),
            (S[1].real, g),
            (dS[1].real, dg),
        ]:
            np.testing.assert_array_equal(np.asarray(got).view(np.int64), want.view(np.int64))
        for t in (0.0, 2.5):
            g0, dg0 = self.separate_formulas(t, lam, s)
            assert np.float64(dyn.decoherence_gamma(t, lam, s)).view(np.int64) == g0.view(np.int64)
            assert np.float64(dyn.decoherence_gamma_dt(t, lam, s)).view(np.int64) == dg0.view(np.int64)

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

    def test_three_qubit_kmin_matches_mpmath(self):
        # the three-qubit states have 64 entries and split into the 2x2
        # block of the GHZ coherence and 1x1 populations: k_min keeps its
        # relative accuracy as the smallest population decays to 5e-6
        fam, rho0 = SHARING_MODELS["ad3_s0.5"]
        traj = dyn.evolve_kraus(fam, rho0, 5.0, 1001, rates=True)
        for i in np.linspace(0, 1000, 25).astype(int):
            # the Hermitian matrix that k_min reads from the lower triangle
            m = np.tril(traj.states[i]) + np.tril(traj.states[i], -1).conj().T
            m[np.diag_indices(8)] = m.diagonal().real
            with mpmath.workdps(40):
                want = min(mpmath.eigh(mpmath.matrix(m.tolist()), eigvals_only=True))
                assert abs(traj.kmins[i] - want) <= 1e-15 * want

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

    @staticmethod
    def spoiled(values, bad):
        """`values` one sample short or long, or with sample 7 set to `bad`."""
        if bad == "short":
            return values[:-1]
        if bad == "long":
            return np.append(values, values[-1])
        values = values.copy()
        values[7] = bad
        return values

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3, "short", "long"])
    def test_rejects_bad_speeds(self, bad):
        # one finite speed per sample, none negative
        rho0 = bloch_state(BlochVector(0.5))
        traj = dyn.evolve_kraus(constant_identity_family(2), rho0, 1.0, 11)
        with pytest.raises(InvalidStateError):
            replace(traj, speeds=self.spoiled(traj.speeds, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.2, "short", "long"])
    def test_rejects_bad_kmins(self, bad):
        # one finite k_min per sample, none negative: a negative one would
        # otherwise pass as a loose bound and a NaN as a NaN bound
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.5, 0.3, 0.2)), 1.0, 11)
        with pytest.raises(InvalidStateError):
            replace(traj, kmins=self.spoiled(traj.kmins, bad))

    def test_rejects_empty_times(self):
        with pytest.raises(InvalidParamsError):
            dyn.Trajectory(times=np.zeros(0), states=np.zeros((0, 2, 2), dtype=complex),
                           speeds=np.zeros(0), kmins=np.zeros(0))

    # a NaN inside the grid, at its end and at its start, and an infinite
    # end: each step from or to a NaN is NaN, and an infinite end would be
    # an infinite horizon
    @pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, 1.0, math.nan],
                                       [math.nan, 1.0, 2.0], [0.0, 1.0, math.inf]])
    def test_rejects_non_finite_times(self, times):
        rho = bloch_state(BlochVector(0.5, 1.0, 0.2)).mat
        with pytest.raises(InvalidParamsError, match="times must"):
            dyn.Trajectory(times=np.array(times), states=np.repeat(rho[None], 3, axis=0),
                           speeds=np.ones(3), kmins=np.full(3, 0.25))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (1, 2, 2), (2, 2, 3), (2, 4), (2, 1, 2, 2)])
    def test_rejects_states_not_one_matrix_per_sample(self, shape):
        # one (dim, dim) state per sample time: extra states would let
        # final_state read a state at no sample time
        rho = bloch_state(BlochVector(0.5, 1.0, 0.2)).mat
        states = np.resize(np.broadcast_to(rho, (4, 2, 2)), shape).astype(complex)
        with pytest.raises(InvalidStateError, match="states for 2 samples"):
            dyn.Trajectory(times=np.array([0.0, 1.0]), states=states,
                           speeds=np.ones(2), kmins=np.full(2, 0.25))

    def test_rejects_nan_state_entry(self):
        # a NaN off-diagonal entry leaves the trace alone; the asymmetry
        # check must still reject it
        rho = bloch_state(BlochVector(0.5, 1.0, 0.2)).mat
        states = np.repeat(rho[None], 3, axis=0)
        states[1, 0, 1] = math.nan
        with pytest.raises(InvalidStateError, match="asymmetry nan"):
            dyn.Trajectory(times=np.array([0.0, 0.5, 1.0]), states=states,
                           speeds=np.ones(3), kmins=np.full(3, 0.25))

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

    # a scaled identity, and a projector whose second column holds no entry
    @pytest.mark.parametrize("op", [0.9 * np.eye(2), np.diag([1.0, 0.0])])
    def test_completeness_violation_raises(self, op):
        bad = dyn.KrausFamily(
            dim=2,
            n_ops=1,
            ops_fn=lambda t: [op.astype(complex)],
            dops_fn=lambda t: [np.zeros((2, 2), dtype=complex)],
        )
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(bad, bloch_state(BlochVector(0.3)), 1.0, 11)

    @pytest.mark.parametrize("rates", [False, True])
    def test_off_diagonal_completeness_violation_raises(self, rates):
        # K_1 = (|0><0| + |0><1|)/sqrt(2) and K_2 = (|1><0| + |1><1|)/sqrt(2):
        # sum K†K has a unit diagonal and off-diagonal entries of 1, so only
        # a check of the off-diagonal entries finds the violation. The probe
        # without coherence maps to a valid state.
        row = np.full(2, math.sqrt(0.5), dtype=complex)
        ops = [np.array([row, np.zeros(2)]), np.array([np.zeros(2), row])]
        zeros = [np.zeros((2, 2), dtype=complex)] * 2
        fam = dyn.KrausFamily(dim=2, n_ops=2, ops_fn=lambda t: ops, dops_fn=lambda t: zeros)
        for probe in (BlochVector(0.3), BlochVector(0.6, 0.9, 0.4)):
            rho0 = bloch_state(probe)
            with pytest.raises(CompletenessViolationError):
                dyn.evolve_kraus(fam, rho0, 1.0, 11, rates=rates)
            with pytest.raises(CompletenessViolationError):
                dyn.apply_channel(fam, rho0, 0.5)

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

    @pytest.mark.parametrize("rates", [False, True])
    def test_huge_finite_derivative_gives_finite_speeds(self, rates):
        # the bit-flip operators with a derivative of entries 1e300: the
        # speed and rate blocks scale near the largest double and their
        # norms must neither overflow nor warn
        dops = [1e300 * np.eye(2, dtype=complex), 1e300 * linalg.SIGMA_Y]
        fam = dyn.KrausFamily(dim=2, n_ops=2, ops_fn=bit_flip_family()._ops_fn,
                              dops_fn=lambda t: dops)
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        traj = dyn.evolve_kraus(fam, rho0, 1.0, 5, rates=rates)
        assert np.all(np.isfinite(traj.speeds)) and np.all(traj.speeds > 1e299)
        if rates:
            assert np.all(np.isfinite(traj.rates)) and np.all(traj.rates > 1e299)

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


class StacksOnlyFamily(dyn.KrausFamily):
    """A user family that defines only `stacks`: K_0 = cos t I and
    K_1 = sin t sigma_z, with their derivatives."""

    def __init__(self):
        super().__init__(dim=2, n_ops=2, ops_fn=None, dops_fn=None)

    def stacks(self, times):
        c, s = (f(np.asarray(times, dtype=float))[:, None, None] for f in (np.cos, np.sin))
        eye, z = np.eye(2, dtype=complex), linalg.SIGMA_Z
        return np.stack([c * eye, s * z], axis=1), np.stack([-s * eye, c * z], axis=1)


def test_stacks_only_family_has_exact_operators():
    # `op_stacks` and `apply_channel` read the pair of `stacks`
    fam, rho0 = StacksOnlyFamily(), bloch_state(BlochVector(0.6, 0.9, 0.4))
    times = np.array([0.0, 0.37, 2.0])
    assert np.array_equal(fam.op_stacks(times), fam.stacks(times)[0])
    for t in times:
        K = fam.stacks(np.array([t]))[0][0]
        want = np.einsum("lij,jk,lmk->im", K, rho0.mat, K.conj())
        assert np.max(np.abs(dyn.apply_channel(fam, rho0, t).mat - want)) <= 1e-15


USER_FAMILIES = ("bit_flip", "bit_flip_file", "stacks_only", "stinespring")


def user_family_and_probe(name):
    """A user family and its probe: per-time (bit flip), read from a file,
    or batched (stacks-only and Stinespring)."""
    bloch = bloch_state(BlochVector(0.6, 0.9, 0.4))
    if name == "bit_flip":
        return bit_flip_family(), bloch
    if name == "bit_flip_file":
        return cli.load_kraus_file(str(Path(__file__).parent / "data" / "bit_flip.txt")), bloch
    if name == "stacks_only":
        return StacksOnlyFamily(), bloch
    rng = np.random.default_rng(11)
    return stinespring_family(rng, 3, 2), random_density(rng, 3)


class TestOneSampleContract:
    # every caller reads a family through its batched stacks, so a batch
    # row must equal the one-sample call at its time bit for bit
    times = np.array([0.0, 1e-10, 0.37, 2.0, 9.5, 17.0])

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_stack_rows_equal_one_sample_calls(self, name):
        fam, _ = BUILT_IN_FAMILIES[name]
        K_exact = fam.op_stacks(self.times)
        K, dK = fam.stacks(self.times)
        for i, t in enumerate(self.times):
            assert np.array_equal(K_exact[i], fam.op_stacks(np.array([t]))[0])
            K_one, dK_one = fam.stacks(np.array([t]))
            assert np.array_equal(K[i], K_one[0])
            assert np.array_equal(dK[i], dK_one[0])

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_speed_terms_equal_stack_rows(self, name):
        # the rate at a trajectory's horizon is the one-sample oracle's
        fam, rho0 = BUILT_IN_FAMILIES[name]
        for t in self.times[1:]:
            rate = dyn.evolve_kraus(fam, rho0, t, 3, rates=True).rates[-1]
            want = oracle_contractions(*oracle_pair(fam, np.array([t])), rho0)[3]
            assert rate == want.sum(axis=1)[0]

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES) + list(USER_FAMILIES))
    def test_apply_channel_is_trajectory_endpoint(self, name):
        fam, rho0 = BUILT_IN_FAMILIES.get(name) or user_family_and_probe(name)
        for t in self.times[1:]:
            endpoint = dyn.evolve_kraus(fam, rho0, t, 3).final_state
            assert np.array_equal(dyn.apply_channel(fam, rho0, t).mat, endpoint.mat)


def oracle_contractions(K_exact, K, dK, rho0):
    """The trajectory layer as three-operand einsums: states, Schatten
    speeds, k_min and per-operator rate terms from the given stacks. The
    speeds, k_min and rate terms take the library's spectral kernels, which
    tests/test_linalg.py pins against eigvalsh, a 40-digit decimal
    reference and the SVD; this oracle pins the contractions."""
    states = np.einsum("tlij,jk,tlmk->tim", K_exact, rho0.mat, K_exact.conj())
    states = (states + np.conj(np.swapaxes(states, 1, 2))) / 2
    half = np.einsum("tlij,jk,tlmk->tim", dK, rho0.mat, K.conj())
    dstates = half + np.conj(np.swapaxes(half, 1, 2))
    speeds = linalg.trace_norms(dstates)
    kmins = np.maximum(linalg.min_eigenvalues(states), 0.0)
    prods = np.einsum("tlij,jk,tlmk->tlim", K, rho0.mat, dK.conj())
    terms = linalg.trace_norms(prods)
    return states, speeds, kmins, terms


def oracle_pair(fam, times):
    """(K at the exact times, K, dK) as dense stacks. A built-in family's
    are built without its gathered values: the amplitude-damping products
    as one Kronecker einsum per slot of the single-qubit operators, the
    depolarizing operators as a coefficient times a Pauli matrix, with the
    pair sampled at the clamped times. Another family's are its `stacks`."""
    times = np.asarray(times, dtype=float)
    if isinstance(fam, dyn.AmplitudeDampingFamily):
        def single(entries):
            # K_1 = diag(1, gamma) and K_2 = sqrt(1 - gamma^2) |0><1|
            S = np.zeros((len(times), 2, 2, 2), dtype=complex)
            S[:, 0, 0, 0], S[:, 0, 1, 1], S[:, 1, 0, 1] = entries
            return S[:, 0], S[:, 1]

        S, dS = fam._pair_stacks(times)
        singles = list(zip(single(S), single(dS)))

        def kron(a, b):
            return np.einsum("tab,tcd->tacbd", a, b).reshape(len(times), 4, 4)

        K = np.stack([kron(a, b) for a, _ in singles for b, _ in singles], axis=1)
        dK = np.stack(
            [kron(da, b) + kron(a, db) for a, da in singles for b, db in singles], axis=1
        )
        return K, K, dK
    if not isinstance(fam, dyn.DepolarizingFamily):
        K, dK = fam.stacks(times)
        return K, K, dK
    g = fam.params.gamma
    eye = np.eye(2, dtype=complex)

    def paulis(identity, pauli):
        out = np.zeros((len(identity), 4, 2, 2), dtype=complex)
        out[:, 0] = identity[:, None, None] * eye
        for j, sigma in enumerate(linalg.PAULIS, start=1):
            out[:, j] = pauli[:, None, None] * sigma
        return out

    def ops(t):
        e = np.exp(-g * t)
        return paulis(0.5 * np.sqrt(1.0 + 3.0 * e), 0.5 * np.sqrt(np.maximum(1.0 - e, 0.0)))

    tc = np.maximum(times, dyn.DEPOLARIZING_T_FLOOR / g)
    e = np.exp(-g * tc)
    dK = paulis(-(3.0 * g * e / 4.0) / np.sqrt(1.0 + 3.0 * e), (g * e / 4.0) / np.sqrt(1.0 - e))
    return ops(times), ops(tc), dK


class OracleFamily(dyn.KrausFamily):
    """A built-in channel seen only through the dense stacks of
    `oracle_pair`, gathered by detection: the entries nonzero at some
    sample. The samples at which the pair's K differs from the exact-time
    operators are found by comparing the two stacks; the exact-time
    operators there are read at K's entries, outside which they are zero."""

    def __init__(self, fam):
        super().__init__(dim=fam.dim, n_ops=fam.n_ops, ops_fn=None, dops_fn=None)
        self.fam = fam

    def _trajectory_pair(self, times):
        K_exact, K, dK = oracle_pair(self.fam, times)
        regularized = np.any(K != K_exact, axis=(1, 2, 3))
        K = dyn._gather(K)
        exact = np.moveaxis(K_exact[regularized], 0, -1)
        outside = exact.copy()
        outside[K.ops, K.rows, K.cols] = 0
        assert not outside.any()
        return dyn._Pair(K, dyn._gather(dK), regularized, exact[K.ops, K.rows, K.cols])


# regions of the built-in families that the dense-oracle test draws from
BUILT_IN_REGIONS = {
    "ad_s_zero": st.just(0.0),
    "ad_below_half": st.floats(1e-6, 0.49),
    "ad_half": st.just(0.5),
    # within 1e-9 of 1/2, where gamma takes its closed limit
    "ad_near_half": st.floats(-9e-10, 9e-10).map(lambda d: 0.5 + d),
    "ad_above_half": st.floats(0.51, 20.0),
    # 7e-8 puts samples below the clamping floor t_floor / gamma
    "depolarizing_below_floor": st.just(7e-8),
    "depolarizing": st.floats(1e-3, 10.0),
}


@st.composite
def built_in_cases(draw, region):
    """A built-in family, its probe, a horizon and a sample count in the
    given region: amplitude damping by its s (above 1/2 with horizons past
    t_1, the first zero of gamma), depolarizing by its horizon."""
    n_steps = draw(st.sampled_from([2, 3, 17, 201, 1001]))
    value = draw(BUILT_IN_REGIONS[region])
    if region.startswith("ad_"):
        lam, s = draw(st.floats(0.2, 3.0)), value
        if region == "ad_above_half":
            q = math.sqrt(2.0 * s - 1.0)
            t_1 = 2.0 * (math.pi - math.atan(q)) / (q * lam)
            tau = draw(st.floats(1.01, 4.0)) * t_1
        else:
            tau = draw(st.floats(0.05, 40.0)) / lam
        rho0 = ghz_mixed(GHZMixedParams(draw(st.floats(0.02, 0.98))))
        return dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(lam, s)), rho0, tau, n_steps
    probe = BlochVector(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, math.pi)),
                        draw(st.floats(0.0, 2 * math.pi)))
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(draw(st.floats(0.1, 5.0))))
    return fam, bloch_state(probe), value, n_steps


def bit_flip_family() -> dyn.KrausFamily:
    p = 0.3
    ops = [math.sqrt(1 - p) * np.eye(2, dtype=complex), math.sqrt(p) * linalg.SIGMA_X]
    zeros = [np.zeros((2, 2), dtype=complex)] * 2
    return dyn.KrausFamily(dim=2, n_ops=2, ops_fn=lambda t: ops, dops_fn=lambda t: zeros)


class TableFamily(dyn.KrausFamily):
    """A family given by its (K, dK) stacks on one time grid; it exists at
    those times only."""

    def __init__(self, times, K, dK):
        super().__init__(dim=K.shape[-1], n_ops=K.shape[1], ops_fn=None, dops_fn=None)
        self.times, self.K, self.dK = times, K, dK

    def __repr__(self):
        return f"TableFamily(dim={self.dim}, n_ops={self.n_ops}, n_times={len(self.times)})"

    def _rows(self, times):
        rows = np.searchsorted(self.times, np.asarray(times, dtype=float))
        assert np.array_equal(self.times[rows], times)
        return rows

    def stacks(self, times):
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
    # long runs interleave planned samples with fallback ones (exact zeros)
    n_steps = draw(st.sampled_from([3, 5, 9, 21, 101]))
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


def gathered_row(G, op, row):
    """The index of operator `op`'s row `row` among a gathered stack's rows."""
    (k,) = np.flatnonzero((G.ops == op) & (G.rows == row))
    return k


def every_entry(stack):
    """A dense stack gathered with every one of its entries, zero or not."""
    n_times, n_ops, dim, _ = stack.shape
    ops, rows, cols = np.indices((n_ops, dim, dim)).reshape(3, -1)
    return dyn._Gathered(np.moveaxis(stack, 0, -1).reshape(-1, n_times), ops, rows, cols)


def assert_near_oracle(got, want):
    """Within 1e-14 of the oracle's largest entry."""
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def no_call(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


class TestContractions:
    # Every family is contracted from its gathered entries in two stages,
    # K rho_0 and then its product with a conjugated stack. When operators
    # have at most one nonzero per row and column over all samples, every
    # entry of a stage is one term, and each entry of a product is the
    # oracle's single triple product, summed over operators in operator
    # order: the same bits. Other families agree with the oracle up to
    # rounding. The 7e-8 horizons put eleven depolarizing samples below
    # the clamping floor.
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

    @seed(20261021)
    @settings(max_examples=120, deadline=None, database=None)
    @given(monomial_cases(), st.booleans())
    def test_zero_entries_move_no_bit(self, case, rates):
        # a monomial stack gathered with every entry, zero or not, sums
        # exact zeros into every entry of its products: the gathered
        # products' bits stay, so a panel's run may hold entries that are
        # zero at the samples of a horizon whose own call does not
        fam, rho0, tau, n_steps = case
        picked = np.linspace(0.0, tau, n_steps)[[0, n_steps // 2, -1]]
        gathered = dyn.evolve_kraus(fam, rho0, tau, n_steps, rates=rates)
        channel = [dyn.apply_channel(fam, rho0, t).mat for t in picked]
        with mock.patch.object(dyn, "_gather", every_entry):
            padded = dyn.evolve_kraus(fam, rho0, tau, n_steps, rates=rates)
            for t, want in zip(picked, channel):
                assert dyn.apply_channel(fam, rho0, t).mat.tobytes() == want.tobytes()
        for name in ("times", "states", "speeds", "kmins", "rates"):
            got, want = getattr(padded, name), getattr(gathered, name)
            assert (got is None) == (want is None), name
            assert got is None or got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("name", sorted(MONOMIAL) + ["stinespring_2_3", "stinespring_4_4"])
    def test_families_skip_einsum(self, name, monkeypatch):
        if name in self.MONOMIAL:
            (fam, rho0), horizons = self.MONOMIAL[name]
        else:
            dim, n_ops = map(int, name.split("_")[1:])
            rng = np.random.default_rng(dim * 10 + n_ops)
            fam, rho0 = stinespring_family(rng, dim, n_ops), random_density(rng, dim)
            horizons = (2.0,)
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

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_built_in_spectra_take_closed_forms(self, name, monkeypatch):
        # every block of a built-in state or speed matrix is at most 2x2
        fam, rho0 = BUILT_IN_FAMILIES[name]
        monkeypatch.setattr(np.linalg, "eigvalsh", no_call("eigvalsh"))
        monkeypatch.setattr(np.linalg, "svd", no_call("svd"))
        assert dyn.evolve_kraus(fam, rho0, 17.0, 1001, rates=True).kmins[-1] > 0.0
        h = dyn.HamiltonianModel.qubit([1.0, 0.0, 0.5])
        probe = bloch_state(BlochVector(0.75, 1.0, 0.3))
        assert dyn.evolve_unitary(h, probe, 20.0, 1001).speeds[-1] > 0.0

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_built_in_runs_share_one_plan(self, name, monkeypatch):
        # a built-in channel gathers the same entries in every run: its
        # second run builds no plan, and each run hands all of its trace
        # norms to one spectra call and its k_min to another
        fam, rho0 = BUILT_IN_FAMILIES[name]
        built, calls = [], []
        run_plan, sample_spectra = dyn._run_plan, linalg._sample_spectra
        monkeypatch.setattr(linalg, "_PLANS", {})
        monkeypatch.setattr(dyn, "_run_plan", lambda *args: built.append(args) or run_plan(*args))
        monkeypatch.setattr(linalg, "_sample_spectra",
                            lambda *args: calls.append(args) or sample_spectra(*args))
        sample = dyn._kraus_sampler(fam, rho0, True)
        for times in (np.linspace(0.0, 17.0, 1001), np.linspace(17.0, 34.0, 1001)[1:]):
            calls.clear()
            sample(times)
            assert len(built) == 1
            assert len(calls) == 2
            assert [len(patterns.positions) for patterns, _ in calls] == [1 + fam.n_ops, 1]

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FAMILIES))
    def test_built_in_spectra_group_only_t0(self, name, monkeypatch):
        # `_sample_spectra` evaluates its matrices' blocks on every sample
        # at once and evaluates again, in every matrix, only the samples
        # that are zero at one of their entries; in a built-in model those
        # are at t = 0, where dK or the products vanish
        fam, rho0 = BUILT_IN_FAMILIES[name]
        _, K, dK = oracle_pair(fam, np.array([0.0]))
        half = np.einsum("tlij,jk,tlmk->tim", dK, rho0.mat, K.conj())[0]
        at_zero = [half + half.conj().T, rho0.mat,
                   *np.einsum("tlij,jk,tlmk->tlim", K, rho0.mat, dK.conj())[0]]
        whole, again = [], []
        sample_spectra, pattern_spectra = linalg._sample_spectra, linalg._pattern_spectra

        def entering(positions, values, *args, **kwargs):
            whole.append(values)
            return sample_spectra(positions, values, *args, **kwargs)

        def evaluating(values, patterns, nonzero):
            if values is not whole[-1]:  # not the pass over every sample
                r, c = patterns.r, patterns.c
                for column in values.T:
                    for i, positions in enumerate(patterns.positions):
                        m = np.zeros(r * c, dtype=complex)
                        m[list(positions)] = column[patterns.starts[i]:patterns.starts[i + 1]]
                        again.append((m.reshape(r, c), patterns.hermitian))
            return pattern_spectra(values, patterns, nonzero)

        monkeypatch.setattr(linalg, "_sample_spectra", entering)
        monkeypatch.setattr(linalg, "_pattern_spectra", evaluating)
        counts = []
        for n_steps in (101, 1001):
            dyn.evolve_kraus(fam, rho0, 17.0, n_steps, rates=True)
            counts.append(len(again))
            assert whole and counts[-1] <= len(at_zero)
            # a Hermitian sample is read by its lower triangle alone
            assert all(any(np.array_equal(m, np.tril(z) if hermitian else z) for z in at_zero)
                       for m, hermitian in again)
            whole.clear()
            again.clear()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("region", sorted(BUILT_IN_REGIONS))
    def test_built_in_families_equal_dense_oracle(self, region, rates):
        # the gathered closed forms against the same channel read through
        # its independent dense stacks, gathered by detection
        @seed(20261019)
        @settings(max_examples=20, deadline=None, database=None)
        @given(built_in_cases(region))
        def check(case):
            self.assert_equals_dense_oracle(*case, rates)

        check()

    @staticmethod
    def assert_equals_dense_oracle(fam, rho0, tau, n_steps, rates):
        traj = dyn.evolve_kraus(fam, rho0, tau, n_steps, rates=rates)
        want = dyn.evolve_kraus(OracleFamily(fam), rho0, tau, n_steps, rates=rates)
        assert np.array_equal(traj.states, want.states)
        assert np.array_equal(traj.speeds, want.speeds)
        assert np.array_equal(traj.kmins, want.kmins)
        assert (traj.rates is None) == (not rates)
        if rates:
            assert np.array_equal(traj.rates, want.rates)
        for t in (tau, 0.0):
            got = dyn.apply_channel(fam, rho0, t).mat
            assert np.array_equal(got, dyn.apply_channel(OracleFamily(fam), rho0, t).mat)

    @pytest.mark.parametrize("name", sorted(set(MONOMIAL) - {"bit_flip"}))
    def test_built_in_families_skip_dense_stacks(self, name, monkeypatch):
        # the built-in channels hand out their gathered closed forms: no
        # dense stack is built, scanned for its pattern or gathered
        (fam, rho0), horizons = self.MONOMIAL[name]
        monkeypatch.setattr(dyn, "_gather", no_call("_gather"))
        for cls in (dyn.DepolarizingFamily, dyn.AmplitudeDampingFamily):
            for method in ("op_stacks", "stacks"):
                monkeypatch.setattr(cls, method, no_call(f"{cls.__name__}.{method}"))
        for tau in horizons:
            for rates in (False, True):
                dyn.evolve_kraus(fam, rho0, tau, 1001, rates=rates)
            dyn.apply_channel(fam, rho0, tau)
            dyn.apply_channel(fam, rho0, 0.0)

    @pytest.mark.parametrize("name", sorted(MONOMIAL))
    def test_regularized_samples_take_a_second_check(self, name, monkeypatch):
        # the pair's K is checked at every sample when rates are asked for;
        # only the exact-time operators at regularized (clamped
        # depolarizing) samples take a second check, and a family without
        # such samples takes none
        (fam, rho0), horizons = self.MONOMIAL[name]
        checked = []
        check = dyn._check_gathered_completeness
        monkeypatch.setattr(dyn, "_check_gathered_completeness",
                            lambda G, *args: checked.append(G) or check(G, *args))
        for tau in horizons:
            times = np.linspace(0.0, tau, 1001)
            dyn.evolve_kraus(fam, rho0, tau, 1001, rates=True)
            assert checked[0].values.shape[1] == len(times)
            if isinstance(fam, dyn.DepolarizingFamily):
                clamped = times < dyn.DEPOLARIZING_T_FLOOR / fam.params.gamma
                (_, exact) = checked
                assert np.array_equal(dyn._scatter(exact, fam.n_ops, fam.dim),
                                      fam.op_stacks(times[clamped]))
            else:
                assert len(checked) == 1
            checked.clear()

    def test_amplitude_damping_kronecker_stacks(self):
        fam, _ = BUILT_IN_FAMILIES["amplitude_damping"]
        times = np.linspace(0.0, 17.0, 1001)
        K, dK = fam.stacks(times)
        _, K_want, dK_want = oracle_pair(fam, times)
        assert np.array_equal(K, K_want)
        assert np.array_equal(dK, dK_want)

    def test_depolarizing_dense_stacks(self):
        # the scatter of the gathered values: the exact-time operators and
        # the pair at the clamped times, eleven of them below the floor
        fam, _ = BUILT_IN_FAMILIES["depolarizing"]
        times = np.linspace(0.0, 7e-8, 1001)
        K_exact, K_want, dK_want = oracle_pair(fam, times)
        K, dK = fam.stacks(times)
        assert np.array_equal(fam.op_stacks(times), K_exact)
        assert np.array_equal(K, K_want)
        assert np.array_equal(dK, dK_want)
        assert not np.array_equal(K, K_exact)

    @pytest.mark.parametrize("rates", [False, True])
    def test_gathered_non_finite_derivative_raises(self, rates):
        # a NaN in the gathered derivative values of a built-in channel;
        # the completeness check still comes first
        class NaNDerivative(dyn.AmplitudeDampingFamily):
            scale = 1.0

            def _trajectory_pair(self, times):
                pair = super()._trajectory_pair(times)
                pair.dK.values[gathered_row(pair.dK, 2, 0), -1] = math.nan
                pair.K.values[gathered_row(pair.K, 0, 0), -1] *= self.scale
                return pair

        fam = NaNDerivative(dyn.AmplitudeDampingParams(1.0, 10.0))
        rho0 = ghz_mixed(GHZMixedParams(0.4))
        with pytest.raises(InvalidStateError, match="non-finite Kraus derivative"):
            dyn.evolve_kraus(fam, rho0, 3.0, 101, rates=rates)
        fam.scale = 1.1
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(fam, rho0, 3.0, 101, rates=rates)

    @staticmethod
    def assert_dense_matches_oracle(fam, rho0, tau):
        traj = dyn.evolve_kraus(fam, rho0, tau, 1001, rates=True)
        states, speeds, kmins, want_terms = oracle_contractions(
            *oracle_pair(fam, traj.times), rho0
        )
        assert_near_oracle(traj.states, states)
        assert_near_oracle(traj.kmins, kmins)
        assert_near_oracle(traj.speeds, speeds)
        assert_near_oracle(traj.rates, want_terms.sum(axis=1))
        for t in traj.times[[0, len(traj.times) // 2, -1]]:
            assert_near_oracle(dyn.apply_channel(fam, rho0, t).mat,
                               oracle_contractions(*oracle_pair(fam, [t]), rho0)[0][0])

    @pytest.mark.parametrize("dim,n_ops", [(2, 3), (3, 2), (4, 4)])
    def test_dense_family_matches_oracle(self, dim, n_ops):
        rng = np.random.default_rng(dim * 10 + n_ops)
        fam = stinespring_family(rng, dim, n_ops)
        self.assert_dense_matches_oracle(fam, random_density(rng, dim), 2.0)

    def test_monomial_operators_with_dense_derivatives_match_oracle(self):
        # K is monomial, its derivative is dense: the products with dK sum
        # several terms per entry
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 2.0, 1001)
        p = 0.3
        ops = np.array([math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * linalg.SIGMA_X])
        K = np.repeat(ops[None].astype(complex), len(times), axis=0)
        dK = rng.normal(size=K.shape) + 1j * rng.normal(size=K.shape)
        fam = TableFamily(times, K, dK)
        self.assert_dense_matches_oracle(fam, random_density(rng, 2), 2.0)

    def test_switching_permutation_matches_oracle(self):
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
        self.assert_dense_matches_oracle(fam, random_density(rng, 3), 2.0)

    def test_kraus_file_family_matches_oracle(self):
        # two-qubit amplitude damping with decay probability 0.36, rotated
        # by H ⊗ H: K_jl = (H K_j H) ⊗ (H K_l H), entries written to 17
        # digits. Every entry of every operator is nonzero.
        data = Path(__file__).parent / "data"
        fam = cli.load_kraus_file(str(data / "hh_amplitude_damping.txt"))
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        singles = [h @ np.diag([1.0, 0.8]) @ h, h @ np.array([[0.0, 0.6], [0.0, 0.0]]) @ h]
        want = np.array([np.kron(a, b) for a in singles for b in singles])
        assert np.max(np.abs(fam.op_stacks(np.zeros(1))[0] - want)) <= 1e-16
        assert np.all(want != 0)
        rho0 = load_state(data / "ghz_mixed_p0.4.txt")
        assert rho0.mat.tobytes() == ghz_mixed(GHZMixedParams(0.4)).mat.tobytes()
        self.assert_dense_matches_oracle(fam, rho0, 2.0)

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
            def _trajectory_pair(self, times):
                pair = super()._trajectory_pair(times)
                pair.K.values[..., pair.regularized] *= 1.1
                return pair

        fam = BadFloor(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.5))
        dyn.evolve_kraus(fam, rho0, 1.0, 101)
        with pytest.raises(CompletenessViolationError):
            qsl_nonunitary(fam, rho0, 1.0, EntropyParams(0.5, 1.0), 101)

    @pytest.mark.parametrize("rates", [False, True])
    def test_regularized_exact_rows_are_checked(self, rates):
        # the exact-time operators below the clamping floor break
        # completeness by 1e-7; the pair, sampled at the floor, does not
        class BadBelowFloor(dyn.DepolarizingFamily):
            def _trajectory_pair(self, times):
                pair = super()._trajectory_pair(times)
                pair.exact[...] *= 1 + 1e-7
                return pair

        fam = BadBelowFloor(dyn.DepolarizingParams(1.0))
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(fam, bloch_state(BlochVector(0.5)), 7e-8, 1001, rates=rates)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("factor,complete", [(1 + 1e-7, False), (1 + 1e-10, True)])
    def test_gathered_completeness(self, factor, complete, rates):
        # the bit-flip operators on a table, one operator scaled at one
        # sample: sum K†K moves by 0.7 (factor^2 - 1), against the 1e-8 gate
        times = np.linspace(0.0, 1.0, 21)
        p = 0.3
        ops = np.array([math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * linalg.SIGMA_X])
        K = np.repeat(ops[None].astype(complex), len(times), axis=0)
        K[13, 0] *= factor
        fam = TableFamily(times, K, np.zeros_like(K))
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        if complete:
            dyn.evolve_kraus(fam, rho0, 1.0, len(times), rates=rates)
        else:
            with pytest.raises(CompletenessViolationError):
                dyn.evolve_kraus(fam, rho0, 1.0, len(times), rates=rates)


@st.composite
def completeness_cases(draw):
    """A stack of up to 9 samples, (n_times, n_ops, dim, dim), and the
    samples to check (all, or a random subset): monomial (complete, with
    exact zeros at random samples) or the isometries of a Stinespring
    dilation. Then left as it is, scaled by 1 + 1e-4 at one sample,
    stripped of every entry in one column, or given a NaN or an infinity
    at one entry of one sample: deviations far from the tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n_ops, n_times = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        K = monomial_stack(random_amplitudes(rng, n_times, n_ops, dim, 0.2, unit_columns=True),
                           [rng.permutation(dim) for _ in range(n_ops)])
    else:
        K = stinespring_family(rng, dim, n_ops).op_stacks(rng.uniform(0.0, 5.0, n_times))
    t, l, i, c = (int(rng.integers(n)) for n in K.shape)
    defect = draw(st.sampled_from(["none", "scaled", "empty_column", "nan", "inf"]))
    if defect == "scaled":
        K[t] *= 1 + 1e-4
    elif defect == "empty_column":
        K[..., c] = 0.0
    elif defect != "none":  # a NaN or a signed infinity, real or imaginary
        x = math.nan if defect == "nan" else float(rng.choice([math.inf, -math.inf]))
        K[t, l, i, c] = complex(x, 0.0) if rng.random() < 0.5 else complex(0.0, x)
    samples = rng.random(n_times) < 0.5 if draw(st.booleans()) else np.ones(n_times, bool)
    return K, samples


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(completeness_cases())
def test_gathered_completeness_equals_dense_oracle(case):
    # the check raises exactly where the dense einsum oracle's largest
    # |K†K - I| over the checked samples exceeds the tolerance (a NaN
    # deviation exceeds it)
    K, samples = case
    dim = K.shape[-1]
    gram = np.einsum("tlic,tlid->tcd", K[samples].conj(), K[samples])
    deviation = np.max(np.abs(gram - np.eye(dim)), initial=0.0)
    assert not 1e-12 < deviation < 1e-6  # far from the tolerance either way
    try:
        G = dyn._gather(K)
        dyn._check_gathered_completeness(G, dyn._gram_pairs(G, dim), samples)
    except CompletenessViolationError:
        raised = True
    else:
        raised = False
    assert raised == (not deviation <= dyn.COMPLETENESS_TOL), deviation


@pytest.mark.parametrize("entry", [math.inf, -math.inf, 1e200, 1e200j])
def test_huge_operator_entry_fails_completeness(entry):
    # an infinite operator entry, or one whose square overflows, makes the
    # deviation from the identity infinite or NaN: evolve_kraus, with and
    # without rates, and apply_channel raise CompletenessViolationError,
    # with no numpy warning on the way (the suite makes warnings errors)
    ops = [k.copy() for k in bit_flip_family()._ops_fn(0.0)]
    ops[1][0, 1] = entry
    zeros = [np.zeros((2, 2), dtype=complex)] * 2
    fam = dyn.KrausFamily(dim=2, n_ops=2, ops_fn=lambda t: ops, dops_fn=lambda t: zeros)
    rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
    for rates in (False, True):
        with pytest.raises(CompletenessViolationError):
            dyn.evolve_kraus(fam, rho0, 1.0, 11, rates=rates)
    with pytest.raises(CompletenessViolationError):
        dyn.apply_channel(fam, rho0, 1.0)


def damping_family() -> dyn.KrausFamily:
    """K_1 = diag(1, cos t) and K_2 = sin t |0><1|, with their analytic
    derivatives dK_1 = diag(0, -sin t) and dK_2 = cos t |0><1|."""
    def ops(t):
        c, s = math.cos(t), math.sin(t)
        return [np.array([[1.0, 0.0], [0.0, c]], dtype=complex),
                np.array([[0.0, s], [0.0, 0.0]], dtype=complex)]

    def dops(t):
        c, s = math.cos(t), math.sin(t)
        return [np.array([[0.0, 0.0], [0.0, -s]], dtype=complex),
                np.array([[0.0, c], [0.0, 0.0]], dtype=complex)]

    return dyn.KrausFamily(dim=2, n_ops=2, ops_fn=ops, dops_fn=dops)


def switching_family() -> dyn.KrausFamily:
    """sqrt(0.7) I and sqrt(0.3) sigma_x up to t = 1, then 0 and sigma_z:
    monomial at every sample, but the second operator's permutation
    switches at t = 1, so a run of samples on both sides gathers two
    entries in a row of it, each zero on one side, while a run on one side
    gathers one."""
    zero = np.zeros((2, 2), dtype=complex)
    before = [math.sqrt(0.7) * np.eye(2, dtype=complex), math.sqrt(0.3) * linalg.SIGMA_X]
    after = [zero, linalg.SIGMA_Z.astype(complex)]
    return dyn.KrausFamily(dim=2, n_ops=2, ops_fn=lambda t: before if t <= 1.0 else after,
                           dops_fn=lambda t: [zero, zero])


QUBIT_PROBE = bloch_state(BlochVector(0.6, 0.9, 0.4))
SHARING_MODELS = {
    **{f"ad_s{s}": (dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.3, s)),
                    ghz_mixed(GHZMixedParams(0.4)))
       for s in (0.0, 0.3, 0.5, 10.0)},
    "depolarizing": (dyn.depolarizing_family(dyn.DepolarizingParams(1.3)), QUBIT_PROBE),
    "unitary": (dyn.HamiltonianModel.qubit([1.0, 0.3, 0.5]), QUBIT_PROBE),
    "bit_flip": (bit_flip_family(), QUBIT_PROBE),
    "damping": (damping_family(), QUBIT_PROBE),
    "switching": (switching_family(), QUBIT_PROBE),
    "ad3_s0.5": (ThreeQubitDampingFamily(dyn.AmplitudeDampingParams(1.3, 0.5)), ghz3_mixed(0.4)),
}


@st.composite
def horizon_sets(draw):
    """Horizons that share samples: doubling chains (the first half of the
    grid of 2 tau is the even samples of the grid of tau), repeats of one
    horizon, unrelated horizons, and horizons whose grids reach below the
    depolarizing clamping floor t_floor / gamma."""
    kind = draw(st.sampled_from(["doubling", "repeated", "free", "below_floor"]))
    if kind == "doubling":
        base = draw(st.floats(0.05, 3.0))
        return [base * 2.0 ** k for k in range(draw(st.integers(2, 5)))]
    if kind == "repeated":
        a, b = draw(st.floats(0.05, 10.0)), draw(st.floats(0.05, 10.0))
        return [a, b, a, a]
    lo, hi = (1e-3, 20.0) if kind == "free" else (1e-9, 1e-6)
    return draw(st.lists(st.floats(lo, hi), min_size=1, max_size=5))


def evolve_one(model, rho0, tau, n_steps, rates):
    """The public per-horizon call of a model, or the error it raises."""
    try:
        if isinstance(model, dyn.HamiltonianModel):
            return dyn.evolve_unitary(model, rho0, tau, n_steps)
        return dyn.evolve_kraus(model, rho0, tau, n_steps, rates=rates)
    except AzqslError as exc:
        return exc


def column_samples(col: dyn._Column) -> dict:
    """The samples of a column that `_columns` made with `samples_of`."""
    times, kmins, (speeds, rates) = col.table
    return {"times": times, "speeds": speeds, "kmins": kmins, "rates": rates}


def assert_same_outcome(got, want):
    """Equal errors (class and message), or a panel's column for a horizon
    (`dynamics._Column`, made with `samples_of`) equal to its trajectory as
    int64 bits, so signed zeros count: the times, speeds, k_min, rates and
    the two validated end states, or the errors of their validation."""
    if isinstance(want, AzqslError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, dyn._Column), got
    pairs = [(name, samples, getattr(want, name))
             for name, samples in column_samples(got).items()]
    for name in ("initial_state", "final_state"):
        state = _attempt(getattr, want, name)
        if isinstance(state, AzqslError):
            assert_same_outcome(getattr(got, name), state)
        else:
            pairs.append((name, getattr(got, name).mat, state.mat))
    for name, a, b in pairs:
        assert (a is None) == (b is None), name
        if b is not None:
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def panel_times(taus, n_steps: int) -> np.ndarray:
    """The distinct sample times of the grids of the horizons `taus`, the
    times a panel's sample store holds."""
    return np.unique(np.concatenate([dyn._time_grid(tau, n_steps) for tau in taus]))


def recorded_checks(monkeypatch) -> list:
    """The number of samples of every `_check_samples` call, in order,
    from here on."""
    checks = []
    check = dyn._check_samples
    monkeypatch.setattr(dyn, "_check_samples",
                        lambda n, *args: checks.append(n) or check(n, *args))
    return checks


def recorded_runs(monkeypatch) -> list:
    """The sample times of every run of `_kraus_sampler`'s samplers, in
    order, from here on."""
    runs = []
    sampler = dyn._kraus_sampler

    def recording(*args):
        sample = sampler(*args)
        return lambda times: runs.append(times.copy()) or sample(times)

    monkeypatch.setattr(dyn, "_kraus_sampler", recording)
    return runs


class TestSharedSamples:
    # A panel's horizons share their sample times: each distinct time is
    # evaluated once, and every horizon must get the bits (or the error)
    # of its own per-horizon call.
    @seed(20261020)
    @settings(max_examples=120, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(SHARING_MODELS)), taus=horizon_sets(),
           n_steps=st.sampled_from([2, 3, 17, 201, 1001]), rates=st.booleans())
    def test_panel_equals_per_horizon_calls(self, name, taus, n_steps, rates):
        model, rho0 = SHARING_MODELS[name]
        outcomes = dyn._columns(model, rho0, time_grids(taus, n_steps), rates, samples_of)
        assert len(outcomes) == len(taus)
        for tau, got in zip(taus, outcomes):
            assert_same_outcome(got, evolve_one(model, rho0, tau, n_steps, rates))

    @pytest.mark.parametrize("name", ["ad_s10.0", "damping"])
    def test_doubling_chain_shares_samples(self, name, monkeypatch):
        # the first half of the grid of 2 tau is the even samples of the
        # grid of tau: the grids of 1, 2 and 4 hold 17 + 8 + 8 distinct
        # times, evaluated in runs of 17, for a built-in channel and a
        # user family alike
        model, rho0 = SHARING_MODELS[name]
        runs = recorded_runs(monkeypatch)
        dyn._columns(model, rho0, time_grids([1.0, 2.0, 4.0], 17), True, samples_of)
        assert [len(run) for run in runs] == [17, 16]

    def test_sampler_plans_each_entry_set(self, monkeypatch):
        # one sampler's runs before the switch at t = 1, after it, across it
        # and before it again gather three entry sets: each gets a plan of
        # its own, the last run takes the first's, and every run has the
        # bits of a fresh sampler that plans from nothing
        model, rho0 = SHARING_MODELS["switching"]
        grids = [np.linspace(0.05, 0.9, 7), np.linspace(1.2, 3.0, 9),
                 np.linspace(0.5, 2.0, 11), np.linspace(0.1, 0.8, 5)]
        built = []
        run_plan = dyn._run_plan
        monkeypatch.setattr(linalg, "_PLANS", {})
        monkeypatch.setattr(dyn, "_run_plan", lambda *args: built.append(args) or run_plan(*args))
        sample = dyn._kraus_sampler(model, rho0, True)
        runs = [sample(times) for times in grids]
        assert len(built) == 3
        for times, got in zip(grids, runs):
            monkeypatch.setattr(linalg, "_PLANS", {})
            want = dyn._kraus_sampler(model, rho0, True)(times)
            assert np.array_equal(got.state[0], want.state[0])
            for a, b in [(got.state[1], want.state[1]), *zip(got[1:], want[1:])]:
                assert a.tobytes() == b.tobytes()

    def test_switching_family_mixes_entry_sets(self, monkeypatch):
        # the panel's runs on either side of the switch at t = 1 gather one
        # entry per operator row and the runs across it two, as the call
        # of each horizon past the switch does: every horizon still gets
        # its own call's bits
        model, rho0 = SHARING_MODELS["switching"]
        taus = [0.5, 1.5, 3.0]
        shared = []
        gather = dyn._gather

        def recording(stack):
            out = gather(stack)
            rows = out.ops * stack.shape[-1] + out.rows
            shared.append(len(np.unique(rows)) < len(rows))
            return out

        monkeypatch.setattr(dyn, "_gather", recording)
        outcomes = dyn._columns(model, rho0, time_grids(taus, 17), True, samples_of)
        assert True in shared and False in shared
        for tau, got in zip(taus, outcomes):
            shared.clear()
            assert_same_outcome(got, evolve_one(model, rho0, tau, 17, True))
            assert shared[0] == (tau > 1.0)

    def test_horizon_errors_stay_per_horizon(self):
        model, rho0 = SHARING_MODELS["depolarizing"]
        outcomes = dyn._columns(model, rho0, time_grids([1.0, -1.0, math.inf, 2.0], 11),
                                False, samples_of)
        assert isinstance(outcomes[1], InvalidParamsError)
        assert isinstance(outcomes[2], InvalidParamsError)
        for tau, got in zip((1.0, 2.0), outcomes[::3]):
            assert_same_outcome(got, evolve_one(model, rho0, tau, 11, False))

    def test_dim_mismatch_fails_every_horizon(self):
        model, _ = SHARING_MODELS["unitary"]
        outcomes = dyn._columns(model, ghz_mixed(GHZMixedParams(0.5)),
                                time_grids([1.0, 2.0], 11), False, samples_of)
        assert [type(o) for o in outcomes] == [DimMismatchError] * 2

    # each built-in channel in its own regime, and a user family gathered by
    # detection: depolarizing horizons whose grids hold clamped samples
    # beyond t = 0, amplitude damping at s = 0, 1/2 and 10
    STORE_CASES = {
        "depolarizing": ("depolarizing", [7e-8, 1.4e-7, 2.0, 4.0, 9.0]),
        **{f"ad_s{s}": (f"ad_s{s}", [1.0, 2.0, 4.0, 8.5, 20.0]) for s in (0.0, 0.5, 10.0)},
        "damping": ("damping", [0.5, 1.0, 2.0, 3.7]),
    }

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", sorted(STORE_CASES))
    def test_store_holds_each_horizons_own_bits(self, name, rates, monkeypatch):
        # a panel's columns against each horizon's own call: the speeds,
        # k_min, rates and end states as int64, so signed zeros count. No
        # sample fails, so the panel makes its shared runs alone and makes
        # no `_check_samples` call: the store checked each sample once as
        # it was filled. Every column holds the one validated t = 0 state
        model, taus = self.STORE_CASES[name]
        fam, rho0 = SHARING_MODELS[model]
        runs = recorded_runs(monkeypatch)
        checks = recorded_checks(monkeypatch)
        cols = dyn._columns(fam, rho0, time_grids(taus, 201), rates, samples_of)
        assert [len(run) for run in runs[:-1]] == [201] * (len(runs) - 1)
        assert np.array_equal(np.concatenate(runs), panel_times(taus, 201))
        assert checks == []
        assert all(col.initial_state is cols[0].initial_state for col in cols)
        for col, tau in zip(cols, taus):
            assert_same_outcome(col, dyn.evolve_kraus(fam, rho0, tau, 201, rates=rates))


class IncompleteAfter(dyn.AmplitudeDampingFamily):
    """Amplitude damping whose operators grow by 1e-6 after time T."""

    T = 2.5

    def _trajectory_pair(self, times):
        pair = super()._trajectory_pair(times)
        pair.K.values[..., times > self.T] *= 1 + 1e-6
        return pair


class NaNDerivativeAt(dyn.AmplitudeDampingFamily):
    """Amplitude damping whose derivative is NaN at the single time T."""

    T = 1.0

    def _trajectory_pair(self, times):
        pair = super()._trajectory_pair(times)
        pair.dK.values[gathered_row(pair.dK, 2, 0), times == self.T] = math.nan
        return pair


# Operator scale factors that leave completeness within its tolerance (the
# deviation is about twice the excess) but lift the trace of the state above
# the trace-drift tolerance, at single sample times: a state that fails a
# `Trajectory` check, not a sampler check. The two drifts differ, so a
# horizon holding both samples must quote the larger one.
DRIFT_SCALES = {1.0: 1 + 2e-9, 3.0: 1 + 4e-9}


class DriftAt(dyn.AmplitudeDampingFamily):
    """Amplitude damping whose states have trace about 1 + 4e-9 at t = 1
    and 1 + 8e-9 at t = 3."""

    def _trajectory_pair(self, times):
        pair = super()._trajectory_pair(times)
        for t, scale in DRIFT_SCALES.items():
            pair.K.values[..., times == t] *= scale
        return pair


class UndefinedAfter(dyn.AmplitudeDampingFamily):
    """Amplitude damping that refuses any time after T."""

    T = 2.5

    def _trajectory_pair(self, times):
        if np.any(times > self.T):
            raise InvalidParamsError(f"no operators after t = {self.T}")
        return super()._trajectory_pair(times)


class UndefinedAfterDriftAt(UndefinedAfter, DriftAt):
    """The trace drifts of `DriftAt`, refusing any time after T."""


def user_family(defect: str) -> dyn.KrausFamily:
    """The bit-flip family, losing completeness or undefined after t = 2.5,
    with a NaN derivative at t = 1, or with the trace drifts of `DriftAt`."""
    base = bit_flip_family()

    def ops(t):
        if defect == "undefined" and t > 2.5:
            raise InvalidParamsError("no operators after t = 2.5")
        scale = 1 + 1e-6 if defect == "incomplete" and t > 2.5 else 1.0
        if defect == "drift":
            scale = DRIFT_SCALES.get(t, 1.0)
        return [scale * k for k in base._ops_fn(t)]

    def dops(t):
        nan = defect == "nan" and t == 1.0
        return [np.full((2, 2), math.nan, dtype=complex) if nan else k for k in base._dops_fn(t)]

    return dyn.KrausFamily(dim=2, n_ops=2, ops_fn=ops, dops_fn=dops)


# One spoiled sample per condition of `_check_samples`, by its size: a
# trace drift, a NaN diagonal entry (a NaN drift), an asymmetry, a NaN or
# negative speed, a negative k_min and a NaN rate
SPOILS = ("trace_drift", "nan_entry", "asymmetry", "nan_speed", "negative_speed",
          "negative_kmin", "nan_rate")


def spoiling(sampler, spoils: dict):
    """`sampler` (`dynamics._kraus_sampler`) whose runs spoil the sample at
    each time of `spoils` by its (kind, size)."""
    def spoiled(fam, rho0, rates):
        sample = sampler(fam, rho0, rates)

        def run(times):
            samples = sample(times)
            positions, values = samples.state
            dim = rho0.dim
            for t, (kind, size) in spoils.items():
                at = times == t
                if kind == "trace_drift":
                    values[:, at] *= 1.0 + size
                elif kind == "nan_entry":
                    diagonal = np.flatnonzero(positions % dim == positions // dim)
                    values[diagonal[-1], at] = math.nan
                elif kind == "asymmetry":
                    off = np.flatnonzero(positions % dim != positions // dim)
                    values[off[0], at] += 10.0 * size
                elif kind == "nan_speed":
                    samples.speeds[at] = math.nan
                elif kind == "negative_speed":
                    samples.speeds[at] = -size
                elif kind == "negative_kmin":
                    samples.kmins[at] = -size
                else:
                    samples.rates[at] = math.nan
            return samples
        return run
    return spoiled


@st.composite
def spoiled_panels(draw):
    """A panel of a built-in or user family, and one to four of its sample
    times, each spoiled by a kind of `SPOILS` and a size that fails the
    check: (model name, horizons, n_steps, rates, {time: (kind, size)})."""
    name = draw(st.sampled_from(["ad_s0.5", "ad_s10.0", "depolarizing", "damping"]))
    taus = draw(horizon_sets())
    n_steps = draw(st.sampled_from([3, 17, 41]))
    rates = draw(st.booleans())
    times = panel_times(taus, n_steps)
    kinds = [kind for kind in SPOILS if rates or kind != "nan_rate"]
    picks = draw(st.lists(st.tuples(st.integers(0, len(times) - 1), st.sampled_from(kinds),
                                    st.floats(2e-9, 1e-6)), min_size=1, max_size=4))
    return name, taus, n_steps, rates, {float(times[i]): (k, size) for i, k, size in picks}


class TestErrorAttribution:
    # Horizons 1, 2, 3 and 4 on 17 samples: the grids of 2 and 4 hold
    # t = 1 (the grid of 1 ends there), the grid of 3 does not; only the
    # grids of 3 and 4 pass t = 2.5. A family that raises fails the whole
    # run of samples it was asked for, which here also holds samples of
    # the horizon 2.
    TAUS = [1.0, 2.0, 3.0, 4.0, 0.5]
    CASES = {
        "closed_form_incomplete": (
            IncompleteAfter(dyn.AmplitudeDampingParams(1.0, 10.0)), ghz_mixed(GHZMixedParams(0.4)),
            {3.0, 4.0}, CompletenessViolationError),
        "closed_form_nan_derivative": (
            NaNDerivativeAt(dyn.AmplitudeDampingParams(1.0, 10.0)), ghz_mixed(GHZMixedParams(0.4)),
            {1.0, 2.0, 4.0}, InvalidStateError),
        "closed_form_undefined": (
            UndefinedAfter(dyn.AmplitudeDampingParams(1.0, 10.0)), ghz_mixed(GHZMixedParams(0.4)),
            {3.0, 4.0}, InvalidParamsError),
        "user_incomplete": (user_family("incomplete"), QUBIT_PROBE,
                            {3.0, 4.0}, CompletenessViolationError),
        "user_undefined": (user_family("undefined"), QUBIT_PROBE, {3.0, 4.0}, InvalidParamsError),
        "user_nan_derivative": (user_family("nan"), QUBIT_PROBE,
                                {1.0, 2.0, 4.0}, InvalidStateError),
        # the samples pass every sampler check and fail a `Trajectory` one
        "closed_form_trace_drift": (
            DriftAt(dyn.AmplitudeDampingParams(1.0, 10.0)), ghz_mixed(GHZMixedParams(0.4)),
            {1.0, 2.0, 3.0, 4.0}, InvalidStateError),
        "user_trace_drift": (user_family("drift"), QUBIT_PROBE,
                             {1.0, 2.0, 3.0, 4.0}, InvalidStateError),
        # a raising run and a drifting sample: the horizon 2 is evaluated
        # again on its own grid and its drift at t = 1 fails that run's
        # trajectory; the horizons 3 and 4 raise
        "closed_form_undefined_trace_drift": (
            UndefinedAfterDriftAt(dyn.AmplitudeDampingParams(1.0, 10.0)),
            ghz_mixed(GHZMixedParams(0.4)), {1.0, 2.0, 3.0, 4.0}, AzqslError),
    }

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_only_horizons_holding_the_sample_fail(self, name, rates):
        fam, rho0, failing, cls = self.CASES[name]
        outcomes = dyn._columns(fam, rho0, time_grids(self.TAUS, 17), rates, samples_of)
        for tau, got in zip(self.TAUS, outcomes):
            want = evolve_one(fam, rho0, tau, 17, rates)
            assert isinstance(want, cls) == (tau in failing), tau
            assert_same_outcome(got, want)

    @pytest.mark.parametrize("name", ["closed_form_trace_drift", "user_trace_drift"])
    def test_trace_drift_quotes_each_horizons_own_samples(self, name):
        fam, rho0, _, _ = self.CASES[name]
        messages = {tau: str(evolve_one(fam, rho0, tau, 17, True)) for tau in self.TAUS}
        # the horizons holding t = 3 quote its larger drift, the others t = 1's
        assert messages[3.0] == messages[4.0] != messages[1.0] == messages[2.0]
        assert all(m.startswith("trace drift") for t, m in messages.items() if t != 0.5)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_sweep_columns_carry_each_horizons_own_error(self, name, rates):
        # the columns a sweep fills from: a column holding a failing sample
        # gets the error of its own call, the others its samples and states
        fam, rho0, _, _ = self.CASES[name]
        cols = dyn._columns(fam, rho0, time_grids(self.TAUS, 17), rates, samples_of)
        for col, tau in zip(cols, self.TAUS):
            want = evolve_one(fam, rho0, tau, 17, rates)
            if isinstance(want, AzqslError):
                assert type(col) is type(want) and str(col) == str(want), tau
                continue
            assert isinstance(col, dyn._Column), tau
            for field, samples in column_samples(col).items():
                values = getattr(want, field)
                if values is not None:
                    assert samples.tobytes() == values.tobytes(), field
            assert col.final_state.mat.tobytes() == want.final_state.mat.tobytes()
            assert col.initial_state.mat.tobytes() == want.initial_state.mat.tobytes()

    RAISING = sorted(name for name in CASES if "trace_drift" not in name)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", RAISING)
    def test_reevaluated_horizons_hold_their_own_bits(self, name, rates, monkeypatch):
        # a horizon that holds a sample of a run that raised is evaluated
        # again on its own grid, and its rows of the store then hold the
        # bits of its own call
        fam, rho0, failing, _ = self.CASES[name]
        runs = recorded_runs(monkeypatch)
        cols = dyn._columns(fam, rho0, time_grids(self.TAUS, 17), rates, samples_of)
        shared = -(-len(panel_times(self.TAUS, 17)) // 17)
        again = [float(run[-1]) for run in runs[shared:]]
        assert set(again) - failing
        for col, tau in zip(cols, self.TAUS):
            if tau in again and tau not in failing:
                want = dyn.evolve_kraus(fam, rho0, tau, 17, rates=rates)
                assert_same_outcome(col, want)

    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_horizons_run_their_own_grid_at_most_once(self, name, rates, monkeypatch):
        # past the panel's shared runs, each run is the whole grid of one
        # horizon re-evaluated after a run that raised, and no horizon's
        # grid runs twice; a sample failing a `Trajectory` check is settled
        # from the stored rows with no run. So the trace-drift cases, which
        # fail no run, make no run past the shared ones, and the mixed case
        # runs again only the horizons 2, 3 and 4, which hold samples of
        # its raising run
        fam, rho0, failing, _ = self.CASES[name]
        runs = recorded_runs(monkeypatch)
        dyn._columns(fam, rho0, time_grids(self.TAUS, 17), rates, samples_of)
        times = panel_times(self.TAUS, 17)
        shared = -(-len(times) // 17)
        assert np.array_equal(np.concatenate(runs[:shared]), times)
        again = [float(run[-1]) for run in runs[shared:]]
        assert len(again) == len(set(again))
        for run in runs[shared:]:
            assert np.array_equal(run, dyn._time_grid(float(run[-1]), 17))
        if name in ("closed_form_trace_drift", "user_trace_drift"):
            assert again == []
        elif name == "closed_form_undefined_trace_drift":
            assert again == [2.0, 3.0, 4.0]

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    @pytest.mark.parametrize("field", ["speeds", "kmins", "rates"])
    def test_failing_sample_values_fail_their_horizons(self, field, bad, monkeypatch):
        # a speed, k_min or rate spoiled at t = 1 alone, in the panel's
        # runs and in each horizon's own call: the horizons holding t = 1
        # fail their rows' check and take their own call's error with no
        # run past the shared ones
        sampler = dyn._kraus_sampler

        def spoiled(*args):
            sample = sampler(*args)

            def run(times):
                samples = sample(times)
                getattr(samples, field)[times == 1.0] = bad
                return samples
            return run

        monkeypatch.setattr(dyn, "_kraus_sampler", spoiled)
        fam, rho0 = SHARING_MODELS["ad_s10.0"]
        wants = [evolve_one(fam, rho0, tau, 17, True) for tau in self.TAUS]
        assert [isinstance(w, InvalidStateError) for w in wants] == [True, True, False, True, False]
        runs = recorded_runs(monkeypatch)
        cols = dyn._columns(fam, rho0, time_grids(self.TAUS, 17), True, samples_of)
        for got, want in zip(cols, wants):
            assert_same_outcome(got, want)
        assert sum(len(run) for run in runs) == len(np.unique(np.concatenate(runs)))

    def test_refilled_rows_are_not_run_again(self, monkeypatch):
        # the grids of 1, 2 and 4 hold 17 + 8 + 8 distinct times; the run
        # of the last 16 reaches past t = 2.5 and raises. The horizon 2 is
        # evaluated again and refills its rows, the horizon 4 is evaluated
        # again and raises, marking nothing, and the repeated horizon 2
        # finds its rows held and is not run again: both of its columns
        # hold its own call's bits
        fam = UndefinedAfter(dyn.AmplitudeDampingParams(1.0, 10.0))
        rho0 = ghz_mixed(GHZMixedParams(0.4))
        runs = recorded_runs(monkeypatch)
        cols = dyn._columns(fam, rho0, time_grids([1.0, 2.0, 4.0, 2.0], 17), True, samples_of)
        assert [len(run) for run in runs] == [17, 16, 17, 17]
        assert [float(run[-1]) for run in runs[2:]] == [2.0, 4.0]
        assert isinstance(cols[2], InvalidParamsError)
        for col in (cols[1], cols[3]):
            assert_same_outcome(col, dyn.evolve_kraus(fam, rho0, 2.0, 17, rates=True))


    def test_reevaluated_horizon_writes_its_own_end_states(self, monkeypatch):
        # the run of the last 16 of the 33 distinct times of the grids of
        # 1, 2 and 4 raises past t = 2.5, so the horizon 2 is evaluated
        # again on its own grid: the end states its rows hold, at t = 0, 1
        # and 2, are those of its own run, bit for bit, and the end state
        # of the horizon 4, which no run passed, stays unwritten
        fam = UndefinedAfter(dyn.AmplitudeDampingParams(1.0, 10.0))
        rho0 = ghz_mixed(GHZMixedParams(0.4))
        stores = []
        store = dyn._SampleStore

        def recording(*args):
            stores.append(store(*args))
            return stores[-1]

        monkeypatch.setattr(dyn, "_SampleStore", recording)
        runs = recorded_runs(monkeypatch)
        dyn._columns(fam, rho0, time_grids([1.0, 2.0, 4.0], 17), True, samples_of)
        assert [float(run[-1]) for run in runs[2:]] == [2.0, 4.0]
        (store,) = stores
        own = dyn._evolve(fam, rho0, dyn._time_grid(2.0, 17), True)
        rows = np.searchsorted(store.times, own.times)
        assert np.array_equal(store.times[store.ends], [0.0, 1.0, 2.0, 4.0])
        for row in store.ends[:3]:
            (k,) = np.flatnonzero(rows == row)
            assert store.end_state(row).tobytes() == own.states[k].tobytes()
        assert not store.end_state(store.ends[3]).any()

    @seed(20261021)
    @settings(max_examples=80, deadline=None, database=None)
    @given(case=spoiled_panels())
    def test_randomly_failing_samples_fail_their_horizons(self, case):
        # samples spoiled at random, each failing one condition of
        # `_check_samples`, in the panel's runs and in each horizon's own
        # call alike: a horizon that holds one fails with its own call's
        # error class and message (the first condition its samples fail,
        # the largest drift or asymmetry among them), and every other
        # horizon keeps its own call's bits
        name, taus, n_steps, rates, spoils = case
        fam, rho0 = SHARING_MODELS[name]
        with mock.patch.object(dyn, "_kraus_sampler", spoiling(dyn._kraus_sampler, spoils)):
            outcomes = dyn._columns(fam, rho0, time_grids(taus, n_steps), rates, samples_of)
            wants = [_attempt(dyn._evolve, fam, rho0, grid, rates)
                     for grid in time_grids(taus, n_steps)]
        for tau, got, want in zip(taus, outcomes, wants):
            holds = np.isin(dyn._time_grid(tau, n_steps), list(spoils)).any()
            assert isinstance(want, InvalidStateError) == holds, tau
            assert_same_outcome(got, want)


@st.composite
def unequal_grids(draw):
    """One to five sample grids of unequal lengths and spacings that share
    samples: 9 on [0, tau], 17 on [0, 2 tau], the 25 of 17 on [0, tau] and
    9 on [tau, 2 tau] (the first half refined), and 5 to 12 random steps;
    a grid may be drawn more than once."""
    tau = draw(st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.05, 5.0)))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=12))
    pool = [np.linspace(0.0, tau, 9), np.linspace(0.0, 2.0 * tau, 17),
            np.union1d(np.linspace(0.0, tau, 17), np.linspace(tau, 2.0 * tau, 9)),
            np.concatenate([[0.0], np.cumsum(steps) * tau])]
    picks = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=5))
    return [pool[k] for k in picks]


# the sharing models and the families that fail some of their samples
GRID_MODELS = {**SHARING_MODELS,
               **{name: case[:2] for name, case in TestErrorAttribution.CASES.items()}}


class TestGivenGrids:
    # `_columns` evaluates whatever grids it is given: each column gets the
    # bits, or the error, of `_evolve` on its own grid, in runs as long as
    # the longest grid, and a run that raises sends the grids holding its
    # samples back to runs of their own, shorter, length
    @seed(20261022)
    @settings(max_examples=150, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(GRID_MODELS)), grids=unequal_grids(),
           rates=st.booleans())
    def test_columns_equal_own_grid_trajectories(self, name, grids, rates):
        model, rho0 = GRID_MODELS[name]
        outcomes = dyn._columns(model, rho0, grids, rates, samples_of)
        assert len(outcomes) == len(grids)
        for grid, got in zip(grids, outcomes):
            want = _attempt(dyn._evolve, model, rho0, grid, rates)
            assert_same_outcome(got, want)
            if isinstance(got, dyn._Column):
                times = column_samples(got)["times"]
                assert times is not grid and times.base is not grid

    def test_runs_are_as_long_as_the_longest_grid(self, monkeypatch):
        model, rho0 = SHARING_MODELS["ad_s0.5"]
        grids = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 3.0, 31), np.linspace(0.0, 2.0, 17)]
        runs = recorded_runs(monkeypatch)
        dyn._columns(model, rho0, grids, True, samples_of)
        times = np.unique(np.concatenate(grids))
        assert [len(run) for run in runs] == [31, len(times) - 31]
        assert np.array_equal(np.concatenate(runs), times)

    def test_grids_are_freed_before_the_runs(self, monkeypatch):
        # a sweep hands `_columns` its grids as a generator, so none of
        # them outlives the join: no grid is alive when a run starts
        model, rho0 = SHARING_MODELS["ad_s0.5"]
        refs, alive = [], []

        def grids():
            for tau in (1.0, 2.0, 4.0):
                grid = dyn._time_grid(tau, 17)
                refs.append(weakref.ref(grid))
                yield grid

        sampler = dyn._kraus_sampler

        def recording(*args):
            sample = sampler(*args)
            def run(times):
                alive.append(sum(ref() is not None for ref in refs))
                return sample(times)
            return run

        monkeypatch.setattr(dyn, "_kraus_sampler", recording)
        cols = dyn._columns(model, rho0, grids(), True, samples_of)
        assert len(refs) == 3 and alive == [0, 0]
        assert all(isinstance(col, dyn._Column) for col in cols)

    def test_subnormal_horizon_fails_when_its_grid_is_made(self, monkeypatch):
        # 1001 samples on [0, 1e-323] repeat subnormal times: the grid fails
        # its check as it is made, before any run, even for a family whose
        # every run raises; its neighbours keep their own outcomes
        fam, rho0, _, _ = TestErrorAttribution.CASES["closed_form_undefined"]
        message = "times must start at 0 and increase strictly"
        with pytest.raises(InvalidParamsError, match=message):
            dyn._time_grid(1e-323, 1001)
        with pytest.raises(InvalidParamsError, match=message):
            dyn.evolve_kraus(fam, rho0, 1e-323, 1001, rates=True)
        runs = recorded_runs(monkeypatch)
        outcomes = dyn._columns(fam, rho0, time_grids([1.0, 1e-323, 4.0], 1001), True,
                                samples_of)
        assert str(outcomes[1]) == message and isinstance(outcomes[1], InvalidParamsError)
        assert isinstance(outcomes[2], InvalidParamsError) and str(outcomes[2]) != message
        assert_same_outcome(outcomes[0], dyn.evolve_kraus(fam, rho0, 1.0, 1001, rates=True))
        assert not any(((run > 0.0) & (run < 1e-300)).any() for run in runs)


def check_error(fn, *args):
    """The class and message of the error that fn(*args) raises, or None."""
    error = _attempt(fn, *args)
    return (type(error), str(error)) if isinstance(error, AzqslError) else None


def assert_checks_agree(positions, values, speeds, kmins, rates, dim, rows):
    """`_check_samples` on the entry-major deviations of the samples `rows`
    of a run against `Trajectory` on their dense states: the same error
    class and message, or no error from either. Returns that error."""
    n = len(rows)
    states = np.zeros((n, dim * dim), dtype=complex)
    states[:, positions] = values[:, rows].T
    picked = (speeds[rows], kmins[rows], None if rates is None else rates[rows])
    got = check_error(dyn._check_samples, n,
                      *dyn._state_deviations(positions, values[:, rows], dim), *picked)
    want = check_error(dyn.Trajectory, np.linspace(0.0, 1.0, n),
                       states.reshape(n, dim, dim), *picked)
    assert got == want
    return got


def test_sample_checks_agree_with_trajectory_checks(rng):
    # the checks of a subset of a run's samples, given entry-major, raise
    # what a trajectory made of them raises, or pass where it passes; the
    # run lacks some of the positions that hold +0 in its dense states and
    # holds signed zeros at others
    n, dim = 9, 3
    raised = set()
    for trial in range(60):
        support = rng.permutation(dim)[:int(rng.integers(1, dim + 1))]
        states = np.zeros((n, dim, dim), dtype=complex)
        for state in states:
            state[np.ix_(support, support)] = random_density(rng, len(support)).mat
        flat = states.reshape(n, dim * dim)
        rows, cols = np.divmod(np.arange(dim * dim), dim)
        outside = np.flatnonzero(~np.isin(rows, support) | ~np.isin(cols, support))
        absent = outside[rng.random(len(outside)) < 0.5]
        present = np.setdiff1d(np.arange(dim * dim), absent)
        for k in np.setdiff1d(outside, absent):
            flat[:, k] = complex(*rng.choice([0.0, -0.0], size=2))
        speeds, kmins, rates = rng.random(n), rng.random(n), rng.random(n)
        for _ in range(trial % 3):
            i = int(rng.integers(n))
            defect = int(rng.integers(6))
            if defect == 0:
                flat[i] *= 1 + 2e-9 * rng.random()
            elif defect == 1:
                off = present[rows[present] != cols[present]]
                if len(off):
                    flat[i, rng.choice(off)] += 2e-9 * rng.random()
            elif defect == 2:
                flat[i, rng.choice(present)] = math.nan
            else:
                (speeds, kmins, rates)[defect - 3][i] = rng.choice([-1e-300, math.inf, math.nan])
        values = flat[:, present].T.copy()
        subsets = [np.arange(n), np.array([int(rng.integers(n))])]
        subsets += [np.flatnonzero(rng.random(n) < 0.5) for _ in range(4)]
        for with_rates in (None, rates):
            for picked in subsets:
                if len(picked):
                    error = assert_checks_agree(present, values, speeds, kmins, with_rates,
                                                dim, picked)
                    raised.add(error and error[1].split(" ")[0])
    # every defect reached an error: trace drift, asymmetry and non-finite
    # or negative values
    assert {None, "trace", "non-Hermitian", "non-finite", "negative"} <= raised


def test_sample_checks_at_the_tolerances():
    # a 3x3 state held at (0, 0), (0, 1) and (1, 1): its (1, 0) mirror and
    # its (2, 2) diagonal entry are absent. Traces one ulp either side of
    # 1 +- TRACE_DRIFT_TOL, and asymmetries (an entry against its absent
    # mirror, an imaginary diagonal part) at HERMITIAN_TOL and one ulp
    # either side of it
    eps = np.finfo(float).eps
    above = math.floor(dyn.TRACE_DRIFT_TOL / eps)
    below = math.floor(dyn.TRACE_DRIFT_TOL / (eps / 2))
    traces = [1 + above * eps, 1 + (above + 1) * eps,
              1 - below * eps / 2, 1 - (below + 1) * eps / 2]
    tol = linalg.HERMITIAN_TOL
    asymmetries = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)]
    columns = [(t - 0.5, 0.0, 0.5) for t in traces]
    columns += [(0.5, x, 0.5) for x in asymmetries]
    columns += [(0.5 + 0.5j * x, 0.0, 0.5) for x in asymmetries]
    values = np.array(columns, dtype=complex).T
    n = values.shape[1]
    ones, positions = np.ones(n), np.array([0, 1, 4])
    failing = [assert_checks_agree(positions, values, ones, ones, None, 3, np.array([i]))
               is not None for i in range(n)]
    assert failing == [False, True, False, True] + [False, False, True] * 2
    assert assert_checks_agree(positions, values, ones, ones, None, 3, np.arange(n))
