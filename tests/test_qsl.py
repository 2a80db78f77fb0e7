import math
from dataclasses import replace

import numpy as np
import pytest

from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import oracles, qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    DegenerateRangeError,
    DenominatorNearZeroError,
    QuadratureTooCoarseError,
    SingularStateError,
    SpectrumMismatchError,
    ZeroSpeedError,
    ZeroVarianceError,
)
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import random_bloch_state, random_params

H_AT_MIXED_HALF_ONE = 1.0821521301679873  # 2^(-1/2) / |1 - ln(2)/2|


@pytest.fixture
def rng():
    return np.random.default_rng(505)


def qubit_h_closed_form(r: float, alpha: float, z: float) -> float:
    """Bloch-state auxiliary function written out in scalar arithmetic."""
    num = ((1 + r) * (1 - r) ** (z - 1)) ** ((1 - alpha) / z)
    den = 2 ** (1 - alpha) * abs(1 + (1 - alpha) * math.log((1 - r) / 2))
    return num / den


def synthetic_trajectory(times, states, speeds, kmins) -> dyn.Trajectory:
    return dyn.Trajectory(
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=complex),
        speeds=np.asarray(speeds, dtype=float),
        kmins=np.asarray(kmins, dtype=float),
    )


class TestHFunc:
    def test_maximally_mixed_value(self):
        val = qsl.h_func(bloch_state(BlochVector(0.0)), EntropyParams(0.5, 1.0))
        assert val == pytest.approx(H_AT_MIXED_HALF_ONE, abs=1e-14)

    def test_qubit_closed_form(self, rng):
        for _ in range(100):
            rho0, bv = random_bloch_state(rng, r_max=0.9)
            p = random_params(rng)
            assert qsl.h_func(rho0, p) == pytest.approx(
                qubit_h_closed_form(bv.r, p.alpha, p.z), rel=1e-11
            )

    def test_pair_both_finite(self, rng):
        rho0, _ = random_bloch_state(rng, r_max=0.9)
        p = random_params(rng)
        assert qsl.h_func(rho0, p) > 0
        assert qsl.h_func(rho0, p.swapped) > 0

    def test_rejects_rank_deficient(self):
        with pytest.raises(SingularStateError):
            qsl.h_func(bloch_state(BlochVector(1.0)), EntropyParams(0.5, 1.0))

    def test_vanishing_denominator(self):
        # 1 + (1 - a) ln k_min = 0 at k_min = e^(-1/(1-a)); a = 1/2 puts it at e^-2
        k = math.exp(-2.0)
        rho0 = DensityMatrix(np.diag([k, 1.0 - k]).astype(complex))
        with pytest.raises(DenominatorNearZeroError):
            qsl.h_func(rho0, EntropyParams(0.5, 1.0))


class TestPhiFunc:
    def test_alpha_reflection(self, rng):
        for _ in range(100):
            rho0, _ = random_bloch_state(rng, r_max=0.9)
            rho_t, _ = random_bloch_state(rng, r_max=0.9)
            p = random_params(rng)
            assert qsl.phi_func(rho0, rho_t, p) == pytest.approx(
                qsl.phi_func(rho0, rho_t, p.swapped), abs=1e-10
            )

    def test_maximally_mixed_value(self):
        mixed = bloch_state(BlochVector(0.0))
        val = qsl.phi_func(mixed, mixed, EntropyParams(0.5, 1.0))
        assert val == pytest.approx(math.sqrt(2.0) * H_AT_MIXED_HALF_ONE, abs=1e-12)

    def test_grows_as_kmin_shrinks(self):
        rho0 = bloch_state(BlochVector(0.5))
        p = EntropyParams(0.3, 1.0)
        values = [
            qsl.phi_func(rho0, bloch_state(BlochVector(r)), p) for r in (0.0, 0.5, 0.9, 0.99)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_rank_deficient_instantaneous(self):
        with pytest.raises(SingularStateError):
            qsl.phi_func(bloch_state(BlochVector(0.5)), bloch_state(BlochVector(1.0)),
                         EntropyParams(0.5, 1.0))


class TestIntegrateBounds:
    def test_stationary_trajectory(self):
        mixed = bloch_state(BlochVector(0.4, 0.7, 0.3))
        n = 9
        states = np.repeat(mixed.mat[None], n, axis=0)
        traj = synthetic_trajectory(
            np.linspace(0.0, 1.0, n), states, np.zeros(n), np.full(n, mixed.k_min)
        )
        report = qsl.integrate_bounds(traj, EntropyParams(0.4, 1.0))
        assert report.rhs_fwd == 0.0 and report.rhs_bwd == 0.0 and report.rhs_sym == 0.0
        assert report.d_sym == pytest.approx(0.0, abs=1e-12)
        assert report.delta_bound == 0.0

    def test_half_alpha_collapses_directions(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.75, 1.0, 2.0)), 3.0, 201)
        report = qsl.integrate_bounds(traj, EntropyParams(0.5, 1.0))
        assert report.rhs_fwd == pytest.approx(report.rhs_bwd, rel=1e-12)
        assert report.d_fwd == pytest.approx(report.d_bwd, abs=1e-12)

    def test_depolarizing_bound_strict(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.75, 1.0, 2.0)), 5.0, 1001)
        report = qsl.integrate_bounds(traj, EntropyParams(0.3, 1.0))
        assert report.d_fwd < report.rhs_fwd
        assert report.d_bwd < report.rhs_bwd
        assert report.d_sym < report.rhs_sym
        assert report.delta_bound <= 1.0

    def test_quadrature_gate_fires_on_rough_integrand(self):
        mixed = bloch_state(BlochVector(0.0))
        n = 9
        states = np.repeat(mixed.mat[None], n, axis=0)
        speeds = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        traj = synthetic_trajectory(
            np.linspace(0.0, 1.0, n), states, speeds, np.full(n, 0.5)
        )
        with pytest.raises(QuadratureTooCoarseError):
            qsl.integrate_bounds(traj, EntropyParams(0.4, 1.0))

    def test_loose_flag_when_kmin_collapses(self):
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 10.0))
        traj = dyn.evolve_kraus(fam, ghz_mixed(GHZMixedParams(0.5)), 5.0, 401)
        report = qsl.integrate_bounds(traj, EntropyParams(0.4, 1.0))
        assert qsl.WARN_LOOSE_BOUND in report.warnings
        assert report.d_sym <= report.rhs_sym

    def test_chain_sign_flagged(self):
        # k_min = 1/8 makes 1 + (1-a) ln k_min negative at a = 1/2
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.75, 1.0, 2.0)), 2.0, 201)
        report = qsl.integrate_bounds(traj, EntropyParams(0.5, 1.0))
        assert qsl.WARN_CHAIN_SIGN in report.warnings


class TestQslGeneral:
    def test_full_period_returns_to_start(self):
        h = dyn.HamiltonianModel.qubit([0.0, 0.0, 1.0])
        rho0 = bloch_state(BlochVector(0.6, 1.2, 0.4))
        traj = dyn.evolve_unitary(h, rho0, math.pi, 1001)
        report = qsl.qsl_general(traj, EntropyParams(0.3, 1.0))
        assert report.tau_fwd == pytest.approx(0.0, abs=1e-9)
        assert report.tau_qsl == pytest.approx(0.0, abs=1e-9)
        assert report.delta_qsl == pytest.approx(1.0, abs=1e-9)

    def test_alpha_reflection_symmetry(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        for _ in range(10):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            traj = dyn.evolve_kraus(fam, rho0, float(rng.uniform(0.5, 6.0)), 401)
            alpha = float(rng.uniform(0.1, 0.45))
            for z in (1.0, 0.95):
                a_rep = qsl.qsl_general(traj, EntropyParams(alpha, z))
                b_rep = qsl.qsl_general(traj, EntropyParams(1.0 - alpha, z))
                assert a_rep.tau_qsl == pytest.approx(b_rep.tau_qsl, abs=1e-9)
                assert a_rep.tau_fwd == pytest.approx(b_rep.tau_bwd, abs=1e-9)
                assert a_rep.tau_sym == pytest.approx(b_rep.tau_sym, abs=1e-9)

    def test_speed_limit_below_horizon(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        for _ in range(10):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            tau = float(rng.uniform(0.5, 8.0))
            traj = dyn.evolve_kraus(fam, rho0, tau, 401)
            report = qsl.qsl_general(traj, random_params(rng))
            assert report.tau_qsl <= tau + 1e-8
            assert report.delta_qsl <= 1.0

    def test_zero_speed_with_moving_endpoints(self):
        a = np.diag([0.6, 0.4]).astype(complex)
        b = np.diag([0.4, 0.6]).astype(complex)
        n = 9
        states = np.concatenate([a[None], np.repeat(b[None], n - 1, axis=0)])
        traj = synthetic_trajectory(
            np.linspace(0.0, 1.0, n), states, np.zeros(n), np.full(n, 0.4)
        )
        with pytest.raises(ZeroSpeedError):
            qsl.qsl_general(traj, EntropyParams(0.4, 1.0))


class TestQslUnitary:
    def test_rejects_zero_variance(self):
        # an eigenstate of H does not evolve at all
        h = dyn.HamiltonianModel(np.diag([1.0, -1.0]).astype(complex))
        rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ZeroVarianceError):
            qsl.qsl_unitary(h, rho0, rho0, EntropyParams(0.5, 1.0))

    def test_rejects_spectrum_mismatch(self):
        h = dyn.HamiltonianModel.qubit([1.0, 0.0, 0.0])
        with pytest.raises(SpectrumMismatchError):
            qsl.qsl_unitary(
                h,
                bloch_state(BlochVector(0.5)),
                bloch_state(BlochVector(0.7)),
                EntropyParams(0.5, 1.0),
            )

    def test_fidelity_form_vanishes_at_start(self):
        rho0 = bloch_state(BlochVector(0.5, 1.0, 0.3))
        assert qsl.tau_unitary_fidelity(rho0, rho0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_vs_general_trajectory(self, rng):
        # the closed form replaces the constant speed 2 |n x r| by its upper
        # bound 2 dH, so the sampled-general times exceed it by exactly that
        # ratio; both the corrected identity and the ordering are checked
        for _ in range(10):
            rho0, bv = random_bloch_state(rng, r_max=0.85)
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n)
            tau = float(rng.uniform(0.3, 1.5))
            p = random_params(rng)
            traj = dyn.evolve_unitary(h, rho0, tau, 401)
            if traj.speeds[0] < 1e-6:
                continue
            general = qsl.qsl_general(traj, p)
            closed = qsl.qsl_unitary(h, rho0, traj.final_state, p, tau=tau)
            ratio = 2.0 * dyn.energy_fluctuation(h, rho0) / traj.speeds[0]
            assert closed.tau_fwd * ratio == pytest.approx(general.tau_fwd, rel=1e-9)
            assert closed.tau_bwd * ratio == pytest.approx(general.tau_bwd, rel=1e-9)
            assert closed.tau_sym * ratio == pytest.approx(general.tau_sym, rel=1e-9)
            assert closed.tau_qsl <= general.tau_qsl + 1e-12
            assert closed.tau_qsl <= tau + 1e-8

    def test_petz_fast_path_matches(self, rng):
        for _ in range(10):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n)
            traj = dyn.evolve_unitary(h, rho0, 0.9, 41)
            alpha = float(rng.uniform(0.1, 0.9))
            report = qsl.qsl_unitary(h, rho0, traj.final_state, EntropyParams(alpha, 1.0))
            fast = qsl.tau_unitary_petz(
                rho0, traj.final_state, alpha, dyn.energy_fluctuation(h, rho0)
            )
            assert fast == pytest.approx(report.tau_fwd, rel=1e-11)

    def test_fidelity_fast_path_matches(self, rng):
        rho0, _ = random_bloch_state(rng, r_max=0.85)
        h = dyn.HamiltonianModel.qubit([0.4, -1.0, 0.7])
        traj = dyn.evolve_unitary(h, rho0, 0.8, 41)
        report = qsl.qsl_unitary(h, rho0, traj.final_state, EntropyParams(0.5, 0.5))
        fast = qsl.tau_unitary_fidelity(rho0, traj.final_state, dyn.energy_fluctuation(h, rho0))
        assert fast == pytest.approx(report.tau_fwd, rel=1e-11)

    def test_mandelstam_tamm_comparison(self, rng):
        count = 0
        for _ in range(50):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n)
            dh = dyn.energy_fluctuation(h, rho0)
            if dh < 1e-3:
                continue
            tau = 0.02 / float(np.linalg.norm(n))
            traj = dyn.evolve_unitary(h, rho0, tau, 21)
            f = ent.fidelity(traj.final_state, rho0)
            if f <= 0.999:
                continue
            mt = math.sqrt(2.0 * (1.0 - f)) / dh
            assert qsl.tau_unitary_fidelity(rho0, traj.final_state, dh) <= mt * 1.05
            count += 1
        assert count >= 10


class TestQslNonunitary:
    def test_identity_channel(self):
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        fam = dyn.KrausFamily(dim=2, n_ops=1, ops_fn=lambda t: [eye], dops_fn=lambda t: [zero])
        report = qsl.qsl_nonunitary(
            fam, bloch_state(BlochVector(0.5, 0.4, 0.1)), 2.0, EntropyParams(0.4, 1.0), 41
        )
        assert report.tau_qsl == 0.0
        assert report.delta_qsl == 1.0

    @pytest.mark.parametrize("alpha,z,gt", [(0.3, 0.9, 2.0), (0.7, 1.0, 5.0), (0.45, 0.8, 1.0)])
    def test_depolarizing_closed_form(self, alpha, z, gt):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
        report = qsl.qsl_nonunitary(fam, rho0, gt, EntropyParams(alpha, z), 4001)
        ref = oracles.depolarizing_tau(oracles.DepolarizingCase(0.75, gt), EntropyParams(alpha, z))
        assert report.tau_fwd == pytest.approx(ref, rel=1e-8)

    def test_z_monotonicity(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
        traj = dyn.evolve_kraus(fam, rho0, 5.0, 1001, rates=True)
        taus = [qsl.qsl_general(traj, EntropyParams(0.3, z)).tau_qsl for z in (0.7, 0.8, 1.0)]
        assert taus[0] < taus[1] < taus[2]

    def test_never_exceeds_general(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        for _ in range(10):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            tau = float(rng.uniform(0.5, 6.0))
            p = random_params(rng)
            traj = dyn.evolve_kraus(fam, rho0, tau, 401, rates=True)
            nonunitary = qsl.qsl_general(traj, p)
            general = qsl.qsl_general(replace(traj, rates=None), p)
            assert nonunitary.tau_qsl <= general.tau_qsl + 1e-8
            assert nonunitary.tau_qsl <= tau + 1e-8

    def test_pinsker_weighted(self, rng):
        # Renyi-Pinsker with the sharp alpha/2 constant (the unweighted 1/2
        # form fails for alpha < 1 already at small times)
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        for _ in range(30):
            rho0, _ = random_bloch_state(rng, r_max=0.85)
            alpha = float(rng.uniform(0.05, 0.95))
            rho_t = dyn.apply_channel(fam, rho0, float(rng.uniform(0.05, 8.0)))
            r_alpha = ent.petz(rho_t, rho0, alpha)
            tn = float(np.sum(np.abs(np.linalg.eigvalsh(rho_t.mat - rho0.mat))))
            assert r_alpha >= 0.5 * alpha * tn * tn - 1e-8


def trapezoid_sum(times: np.ndarray, vals: np.ndarray) -> float:
    return float(np.sum(np.diff(times) * (vals[1:] + vals[:-1]) / 2.0))


class TestOddIntervalQuadrature:
    # n_steps = 1000 gives 999 intervals, where Simpson does not apply and
    # the trapezoid rule takes over. np.trapezoid only exists from numpy 2.0,
    # above the declared numpy floor, so it is removed for these tests.

    def test_quad_is_trapezoid(self, monkeypatch):
        monkeypatch.delattr(np, "trapezoid", raising=False)
        times = np.linspace(0.0, 3.0, 1000)
        vals = np.exp(-times) * (1.0 + np.sin(3.0 * times) ** 2)
        assert float(qsl._quad(times, vals)) == pytest.approx(
            trapezoid_sum(times, vals), rel=1e-14
        )

    def test_bounds_on_odd_grid(self, monkeypatch):
        monkeypatch.delattr(np, "trapezoid", raising=False)
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        traj = dyn.evolve_kraus(fam, rho0, 3.0, 1000)
        p = EntropyParams(0.3, 1.0)
        report = qsl.integrate_bounds(traj, p)
        kc = np.maximum(traj.kmins, qsl.KMIN_CLAMP)
        i1 = trapezoid_sum(traj.times, kc ** (p.alpha - 1.0) * traj.speeds)
        i2 = trapezoid_sum(traj.times, kc ** (-p.alpha) * traj.speeds)
        h_a, h_b = qsl.h_func(rho0, p), qsl.h_func(rho0, p.swapped)
        assert report.rhs_fwd == pytest.approx(p.alpha * h_a / (1.0 - p.alpha) * i1, rel=1e-12)
        assert report.rhs_bwd == pytest.approx(h_b * i2, rel=1e-12)

    @pytest.mark.parametrize("n_steps, flagged", [(1000, True), (51, True), (1001, False)])
    def test_ungated_grid_is_flagged(self, n_steps, flagged):
        # the half-grid gate needs Simpson on both grids: 4 | intervals >= 8
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        traj = dyn.evolve_kraus(fam, rho0, 3.0, n_steps, rates=True)
        p = EntropyParams(0.3, 1.0)
        reports = (
            qsl.integrate_bounds(traj, p),
            qsl.qsl_general(replace(traj, rates=None), p),
            qsl.qsl_general(traj, p),
        )
        for report in reports:
            assert (qsl.WARN_QUAD_UNGATED in report.warnings) == flagged
            assert qsl.WARN_LOOSE_BOUND not in report.warnings


class TestMappingIdentities:
    def test_rhs_mapping_with_skew_factor(self, rng):
        # the forward and swapped right-hand sides map into each other with
        # the same alpha/(1-alpha) factor the entropies pick up, so the
        # speed-limit times match without any factor
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.6, 0.9, 0.4))
        traj = dyn.evolve_kraus(fam, rho0, 3.0, 401)
        for alpha in (0.2, 0.35, 0.45):
            a_rep = qsl.integrate_bounds(traj, EntropyParams(alpha, 1.0))
            b_rep = qsl.integrate_bounds(traj, EntropyParams(1.0 - alpha, 1.0))
            factor = alpha / (1.0 - alpha)
            assert a_rep.rhs_fwd == pytest.approx(factor * b_rep.rhs_bwd, rel=1e-9)
            assert a_rep.rhs_sym == pytest.approx(factor * b_rep.rhs_sym, rel=1e-9)
            assert a_rep.delta_bound == pytest.approx(b_rep.delta_bound, abs=1e-9)


class TestNormalizeSeries:
    def test_three_point_example(self):
        assert np.allclose(qsl.normalize_series([0.0, 5.0, 10.0]), [0.0, 0.5, 1.0])

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateRangeError):
            qsl.normalize_series([3.0, 3.0, 3.0])

    def test_endpoints_map_to_unit_interval(self, rng):
        vals = rng.normal(size=17)
        out = qsl.normalize_series(vals)
        assert out.min() == 0.0 and out.max() == 1.0
