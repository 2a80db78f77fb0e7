import math

import numpy as np
import pytest

from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import oracles, qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import InvalidParamsError, ZeroVarianceError
from azqsl.states import BlochVector, GHZMixedParams, bloch_state, ghz_mixed

# limit of the depolarizing entropy at r = 3/4, alpha = 1/2:
# -2 ln((sqrt(1/4) + sqrt(7/4))/2)
DEPOL_LIMIT_34_HALF = 0.18546379178782055


@pytest.fixture
def rng():
    return np.random.default_rng(606)


def random_unitary_case(rng, t_max_periods: float = 4.0) -> oracles.QubitUnitaryCase:
    n = tuple(float(x) for x in rng.normal(size=3))
    norm_n = math.sqrt(sum(c * c for c in n))
    return oracles.QubitUnitaryCase(
        r=float(rng.uniform(0.05, 0.9)),
        theta=float(rng.uniform(0.0, math.pi)),
        phi=float(rng.uniform(0.0, 2 * math.pi)),
        n=n,
        t=float(rng.uniform(0.0, t_max_periods * math.pi / norm_n)),
    )


def pipeline_purity(case: oracles.QubitUnitaryCase, p: EntropyParams) -> float:
    rho0 = bloch_state(BlochVector(case.r, case.theta, case.phi))
    h = dyn.HamiltonianModel.qubit(case.n)
    traj = dyn.evolve_unitary(h, rho0, case.t, 3) if case.t > 0 else None
    rho_t = traj.final_state if traj is not None else rho0
    return ent.relative_purity(rho_t, rho0, p)


class TestXi:
    def test_exponent_one(self):
        for r in (0.1, 0.5, 0.9):
            assert oracles.xi_plus(1.0, r) == pytest.approx(1.0, abs=1e-14)
            assert oracles.xi_minus(1.0, r) == pytest.approx(r, abs=1e-14)

    def test_zero_radius(self):
        for s in (0.3, 1.7):
            assert oracles.xi_plus(s, 0.0) == pytest.approx(2.0 ** (1.0 - s), abs=1e-14)
            assert oracles.xi_minus(s, 0.0) == 0.0

    def test_half_radius(self):
        assert oracles.xi(1.0, 0.5, 1) == pytest.approx(1.0)
        assert oracles.xi(1.0, 0.5, -1) == pytest.approx(0.5)

    def test_rejects_bad_sign(self):
        with pytest.raises(InvalidParamsError):
            oracles.xi(1.0, 0.5, 0)


class TestUnitaryPurity:
    def test_returns_to_one_at_periods(self, rng):
        for _ in range(20):
            case = random_unitary_case(rng)
            norm_n = case.norm_n
            for m in (1, 2, 3):
                periodic = oracles.QubitUnitaryCase(
                    case.r, case.theta, case.phi, case.n, m * math.pi / norm_n
                )
                p = EntropyParams(float(rng.uniform(0.1, 0.9)), 1.0)
                assert oracles.unitary_purity(periodic, p) == pytest.approx(1.0, abs=1e-12)

    def test_incoherent_probe_is_stationary(self):
        # Bloch axis parallel to the field axis: nothing moves
        case = oracles.QubitUnitaryCase(0.6, 0.0, 0.0, (0.0, 0.0, 2.0), 0.77)
        for alpha, z in ((0.3, 1.0), (0.7, 0.8)):
            assert oracles.unitary_purity(case, EntropyParams(alpha, z)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_pipeline(self, rng):
        worst = 0.0
        for _ in range(500):
            case = random_unitary_case(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            z = float(rng.uniform(max(alpha, 1 - alpha), 1.0))
            p = EntropyParams(alpha, z)
            worst = max(worst, abs(pipeline_purity(case, p) - oracles.unitary_purity(case, p)))
        assert worst <= 1e-9


class TestUnitaryTau:
    def test_vanishes_at_periods(self):
        case = oracles.QubitUnitaryCase(0.5, 1.0, 0.0, (0.0, 1.0, 1.0), math.pi / math.sqrt(2.0))
        assert oracles.unitary_tau_petz(case, 0.4) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_stationary_probe(self):
        case = oracles.QubitUnitaryCase(0.5, 0.0, 0.0, (0.0, 0.0, 1.0), 0.3)
        with pytest.raises(ZeroVarianceError):
            oracles.unitary_tau_petz(case, 0.4)

    def test_matches_closed_form_path(self, rng):
        for _ in range(500):
            case = random_unitary_case(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            rho0 = bloch_state(BlochVector(case.r, case.theta, case.phi))
            h = dyn.HamiltonianModel.qubit(case.n)
            traj = dyn.evolve_unitary(h, rho0, case.t, 3)
            expected = qsl.tau_unitary_petz(
                rho0, traj.final_state, alpha, dyn.energy_fluctuation(h, rho0)
            )
            assert oracles.unitary_tau_petz(case, alpha) == pytest.approx(expected, abs=1e-9)

    def test_omega_stays_in_unit_band(self):
        grid = np.linspace(0.05, 0.95, 20)
        angles = np.linspace(0.01, math.pi - 0.01, 20)
        values = [
            oracles.omega_ratio(a, r, v) for a in grid for r in grid for v in angles
        ]
        assert min(values) >= 0.0
        assert max(values) <= 1.05


class TestDepolarizingOracles:
    def test_zero_time_vanishes(self):
        case = oracles.DepolarizingCase(0.6, 0.0)
        assert oracles.depolarizing_entropy(case, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_asymptote(self):
        late = oracles.depolarizing_entropy(oracles.DepolarizingCase(0.75, 50.0), 0.5)
        assert late == pytest.approx(DEPOL_LIMIT_34_HALF, abs=1e-12)
        assert oracles.depolarizing_entropy_limit(0.75, 0.5) == pytest.approx(
            DEPOL_LIMIT_34_HALF, abs=1e-15
        )

    def test_small_time_quadratic(self):
        for r, alpha in ((0.75, 0.3), (0.4, 0.7)):
            for gt in (1e-3, 1e-4):
                ratio = oracles.depolarizing_entropy(
                    oracles.DepolarizingCase(r, gt), alpha
                ) / oracles.depolarizing_entropy_small_time(r, alpha, gt)
                assert ratio == pytest.approx(1.0, abs=5e-3 if gt == 1e-3 else 5e-4)

    def test_entropy_not_alpha_symmetric(self):
        case = oracles.DepolarizingCase(0.75, 3.0)
        a, b = oracles.depolarizing_entropy(case, 0.3), oracles.depolarizing_entropy(case, 0.7)
        assert abs(a - b) > 1e-3

    def test_tau_vanishes_at_zero_time(self):
        case = oracles.DepolarizingCase(0.75, 1e-6)
        assert oracles.depolarizing_tau(case, EntropyParams(0.3, 1.0)) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_tau_matches_pipeline(self, rng):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
        for _ in range(5):
            alpha = float(rng.uniform(0.1, 0.9))
            z = float(rng.uniform(max(alpha, 1 - alpha), 1.0))
            gt = float(rng.uniform(0.5, 10.0))
            report = qsl.qsl_nonunitary(fam, rho0, gt, EntropyParams(alpha, z), 2001)
            ref = oracles.depolarizing_tau(oracles.DepolarizingCase(0.75, gt), EntropyParams(alpha, z))
            assert report.tau_fwd == pytest.approx(ref, rel=1e-6)

    def test_tau_small_on_critical_line(self):
        # forward times stay below 0.3% of the horizon at alpha = 1/2
        for gt in np.linspace(0.1, 30.0, 40):
            tau = oracles.depolarizing_tau(oracles.DepolarizingCase(0.75, gt), EntropyParams(0.5, 1.0))
            assert tau <= 0.05 * gt

    def test_qsl_alpha_symmetric_despite_entropy_asymmetry(self):
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
        traj = dyn.evolve_kraus(fam, rho0, 4.0, 401, rates=True)
        a_rep = qsl.qsl_general(traj, EntropyParams(0.3, 1.0))
        b_rep = qsl.qsl_general(traj, EntropyParams(0.7, 1.0))
        assert a_rep.tau_qsl == pytest.approx(b_rep.tau_qsl, abs=1e-9)


class TestAmplitudeDampingOracles:
    def test_kmin_at_start(self):
        for p in (0.1, 0.5, 0.9):
            case = oracles.TwoQubitADCase(p=p, lambda_tau=0.0, s=2.0)
            assert oracles.ad_kmin(case) == pytest.approx((1 - p) / 4, abs=1e-12)

    def test_kmin_vanishes_when_damped(self):
        case = oracles.TwoQubitADCase(p=0.5, lambda_tau=80.0, s=0.5)
        assert oracles.ad_kmin(case) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_closed_form_at_half(self):
        assert oracles.ad_gamma(2.0, 0.5) == pytest.approx(2.0 / math.e, abs=1e-14)

    def test_matches_pipeline(self, rng):
        worst_k, worst_n = 0.0, 0.0
        for _ in range(500):
            p = float(rng.uniform(0.02, 0.98))
            lt = float(rng.uniform(0.0, 20.0))
            s = float(rng.choice([0.5, 2.0, 10.0]))
            case = oracles.TwoQubitADCase(p=p, lambda_tau=lt, s=s)
            fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
            rho0 = ghz_mixed(GHZMixedParams(p))
            rho_t = dyn.apply_channel(fam, rho0, lt)
            worst_k = max(worst_k, abs(rho_t.k_min - oracles.ad_kmin(case)))
            rate = dyn.evolve_kraus(fam, rho0, lt, 3, rates=True).rates[-1]
            worst_n = max(worst_n, abs(float(rate) - oracles.ad_kraus_norm_sum(case)))
        assert worst_k <= 1e-9
        assert worst_n <= 1e-9
