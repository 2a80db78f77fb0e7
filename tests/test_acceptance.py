"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS line on success (run with -s to see them); pytest
failure output identifies the criterion otherwise. Criteria 1-11 exercise
the numerics; criterion 12 checks byte determinism of the figure preset and
that the whole module stayed inside its wall-clock budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from azqsl import cli
from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import linalg, oracles, qsl
from azqsl.entropy import EntropyParams
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import mat_pow_integral, random_density, random_unitary

_MODULE_T0 = time.monotonic()
_TIME_BUDGET_SECONDS = 600.0

# frozen from the closed-form late-time purity ((1-r)^(1-a) + (1+r)^(1-a))/2
# at r = 3/4, a = 1/2
DEPOL_LIMIT_34_HALF = 0.18546379178782055


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _valid_params(rng) -> EntropyParams:
    alpha = float(rng.uniform(0.05, 0.95))
    z = float(rng.uniform(max(alpha, 1.0 - alpha), 1.0))
    return EntropyParams(alpha, z)


def test_criterion_1_unitary_purity_oracle():
    rng = np.random.default_rng(9001)
    worst = 0.0
    for _ in range(500):
        r = float(rng.uniform(0.01, 0.95))
        theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        n = tuple(float(x) for x in rng.normal(size=3))
        norm_n = math.sqrt(sum(c * c for c in n))
        t = float(rng.uniform(0.0, 4 * math.pi / norm_n))
        p = _valid_params(rng)
        case = oracles.QubitUnitaryCase(r=r, theta=theta, phi=phi, n=n, t=t)
        rho0 = bloch_state(BlochVector(r, theta, phi))
        traj = dyn.evolve_unitary(dyn.HamiltonianModel.qubit(n), rho0, t, 3)
        g_pipe = ent.relative_purity(traj.final_state, rho0, p)
        worst = max(worst, abs(g_pipe - oracles.unitary_purity(case, p)))
    assert worst <= 1e-9

    worst_period = 0.0
    for _ in range(50):
        r = float(rng.uniform(0.01, 0.95))
        theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        n = tuple(float(x) for x in rng.normal(size=3))
        norm_n = math.sqrt(sum(c * c for c in n))
        rho0 = bloch_state(BlochVector(r, theta, phi))
        p = _valid_params(rng)
        for m in (1, 2, 3):
            t_m = m * math.pi / norm_n
            traj = dyn.evolve_unitary(dyn.HamiltonianModel.qubit(n), rho0, t_m, 3)
            g = ent.relative_purity(traj.final_state, rho0, p)
            worst_period = max(worst_period, abs(g - 1.0))
    assert worst_period <= 1e-9
    _report(1, f"unitary purity dev {worst:.2e}, period dev {worst_period:.2e}")


def test_criterion_2_depolarizing_entropy_oracle():
    rng = np.random.default_rng(9002)
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    worst = 0.0
    worst_spread = 0.0
    ratio_lo, ratio_hi = math.inf, -math.inf
    for _ in range(500):
        r = float(rng.uniform(0.05, 0.9))
        alpha = float(rng.uniform(0.05, 0.95))
        gt = float(rng.uniform(0.0, 20.0))
        theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        rho0 = bloch_state(BlochVector(r, theta, phi))
        rho_t = dyn.apply_channel(fam, rho0, gt)
        ref = oracles.depolarizing_entropy(oracles.DepolarizingCase(r, gt), alpha)
        z_lo = max(alpha, 1.0 - alpha)
        values = [
            ent.renyi_az(rho_t, rho0, EntropyParams(alpha, z))
            for z in np.linspace(z_lo, 1.0, 5)
        ]
        worst = max(worst, max(abs(v - ref) for v in values))
        worst_spread = max(worst_spread, max(values) - min(values))

        rho_small = dyn.apply_channel(fam, rho0, 1e-3)
        d_small = ent.renyi_az(rho_small, rho0, EntropyParams(alpha, 1.0))
        ratio = d_small / oracles.depolarizing_entropy_small_time(r, alpha, 1e-3)
        ratio_lo, ratio_hi = min(ratio_lo, ratio), max(ratio_hi, ratio)
    assert worst <= 1e-9
    assert worst_spread <= 1e-9
    assert 0.99 <= ratio_lo and ratio_hi <= 1.01
    _report(2, f"entropy dev {worst:.2e}, z spread {worst_spread:.2e}, "
               f"small-time ratio in [{ratio_lo:.4f}, {ratio_hi:.4f}]")


def test_criterion_3_asymptotic_value():
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
    rho_t = dyn.apply_channel(fam, rho0, 50.0)
    d = ent.renyi_az(rho_t, rho0, EntropyParams(0.5, 1.0))
    assert abs(d - DEPOL_LIMIT_34_HALF) <= 1e-6
    assert abs(oracles.depolarizing_entropy_limit(0.75, 0.5) - DEPOL_LIMIT_34_HALF) <= 1e-15
    _report(3, f"D(50/Gamma) = {d:.9f} vs limit {DEPOL_LIMIT_34_HALF:.9f}")


def test_criterion_4_depolarizing_qsl_closed_form():
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
    alphas = np.linspace(0.1, 0.9, 10)
    zs = np.linspace(0.9, 1.0, 10)
    gts = np.linspace(0.5, 15.0, 10)
    worst = 0.0
    for gt in gts:
        traj = dyn.evolve_kraus(fam, rho0, float(gt), 4001, rates=True)
        for alpha in alphas:
            for z in zs:
                p = EntropyParams(float(alpha), float(z))
                got = qsl.qsl_general(traj, p).tau_fwd
                ref = oracles.depolarizing_tau(oracles.DepolarizingCase(0.75, float(gt)), p)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-6
    _report(4, f"max relative dev {worst:.2e} over 10x10x10 grid")


def test_criterion_5_two_qubit_ingredients():
    rng = np.random.default_rng(9005)
    worst_k = worst_sum = 0.0
    for _ in range(500):
        p_mix = float(rng.uniform(0.02, 0.98))
        lt = float(rng.uniform(0.0, 20.0))
        s = float(rng.choice([0.5, 2.0, 10.0]))
        case = oracles.TwoQubitADCase(p=p_mix, lambda_tau=lt, s=s)
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
        rho0 = ghz_mixed(GHZMixedParams(p_mix))
        rho_t = dyn.apply_channel(fam, rho0, lt)
        worst_k = max(worst_k, abs(rho_t.k_min - oracles.ad_kmin(case)))
        rate = dyn.evolve_kraus(fam, rho0, lt, 3, rates=True).rates[-1]
        worst_sum = max(worst_sum, abs(float(rate) - oracles.ad_kraus_norm_sum(case)))
    assert worst_k <= 1e-9
    assert worst_sum <= 1e-9

    grid = np.linspace(0.0, 30.0, 601)
    worst_bound = max(
        abs(oracles.ad_gamma(float(lt), s)) for s in (0.5, 2.0, 10.0) for lt in grid
    )
    assert worst_bound <= 1.0 + 1e-12
    worst_closed = max(
        abs(oracles.ad_gamma(float(lt), 0.5) - math.exp(-lt / 2) * (1 + lt / 2)) for lt in grid
    )
    assert worst_closed <= 1e-10
    _report(5, f"kmin dev {worst_k:.2e}, rate-sum dev {worst_sum:.2e}, "
               f"|gamma| max {worst_bound:.6f}")


def test_criterion_6_bound_validity():
    rng = np.random.default_rng(9006)
    min_slack = math.inf
    max_tau_excess = -math.inf
    ad_tau_ranges = {0.5: (0.2, 8.0), 2.0: (0.2, 1.5), 10.0: (0.2, 0.6)}
    for i in range(200):
        p = _valid_params(rng)
        if i % 2 == 0:
            fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
            rho0 = bloch_state(BlochVector(
                float(rng.uniform(0.1, 0.85)),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            ))
            tau = float(rng.uniform(0.2, 10.0))
        else:
            s = float(rng.choice([0.5, 2.0, 10.0]))
            fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
            rho0 = ghz_mixed(GHZMixedParams(float(rng.uniform(0.05, 0.9))))
            tau = float(rng.uniform(*ad_tau_ranges[s]))
        traj = dyn.evolve_kraus(fam, rho0, tau, 801, rates=True)
        bound = qsl.integrate_bounds(traj, p)
        min_slack = min(
            min_slack,
            bound.rhs_fwd - bound.d_fwd,
            bound.rhs_bwd - bound.d_bwd,
            bound.rhs_sym - bound.d_sym,
        )
        nu = qsl.qsl_general(traj, p)
        general = qsl.qsl_general(replace(traj, rates=None), p)
        max_tau_excess = max(max_tau_excess, nu.tau_qsl - tau, general.tau_qsl - tau)
    assert min_slack >= -1e-8
    assert max_tau_excess <= 1e-8
    _report(6, f"min bound slack {min_slack:.3e}, max tau excess {max_tau_excess:.3e}")


def test_criterion_7_symmetry_suite():
    rng = np.random.default_rng(9007)
    fam_depol = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    worst_tau = worst_phi = worst_skew = worst_half = 0.0
    for i in range(200):
        alpha = float(rng.uniform(0.05, 0.45))
        z = float(rng.uniform(1.0 - alpha, 1.0))
        if i % 2 == 0:
            rho0 = bloch_state(BlochVector(
                float(rng.uniform(0.1, 0.85)), 1.0, float(rng.uniform(0, 2 * math.pi))
            ))
            fam = fam_depol
            tau = float(rng.uniform(0.5, 8.0))
        else:
            s = float(rng.choice([0.5, 2.0]))
            fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
            rho0 = ghz_mixed(GHZMixedParams(float(rng.uniform(0.05, 0.9))))
            tau = float(rng.uniform(0.3, 1.4))
        traj = dyn.evolve_kraus(fam, rho0, tau, 401, rates=True)
        rep_a = qsl.qsl_general(traj, EntropyParams(alpha, z))
        rep_b = qsl.qsl_general(traj, EntropyParams(1 - alpha, z))
        worst_tau = max(worst_tau, abs(rep_a.tau_qsl - rep_b.tau_qsl))

        p = EntropyParams(alpha, z)
        mid = traj.state(traj.n_samples // 2)
        if mid.full_rank:
            worst_phi = max(
                worst_phi,
                abs(qsl.phi_func(rho0, mid, p) - qsl.phi_func(rho0, mid, p.swapped)),
            )

        dim = int(rng.choice([2, 4]))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        lhs = (1 - alpha) * ent.renyi_az(rho, sigma, p)
        rhs = alpha * ent.renyi_az(sigma, rho, p.swapped)
        worst_skew = max(worst_skew, abs(lhs - rhs))

        p_half = EntropyParams(0.5, float(rng.uniform(0.5, 1.0)))
        worst_half = max(
            worst_half,
            abs(ent.renyi_az(rho, sigma, p_half) - ent.renyi_az(sigma, rho, p_half)),
        )
    assert worst_tau <= 1e-9
    assert worst_phi <= 1e-10
    assert worst_skew <= 1e-9
    assert worst_half <= 1e-10
    _report(7, f"tau symmetry {worst_tau:.2e}, phi {worst_phi:.2e}, "
               f"skew {worst_skew:.2e}, half-swap {worst_half:.2e}")


def test_criterion_8_entropy_property_suite():
    rng = np.random.default_rng(9008)
    fam_depol = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    fam_ad = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 0.5))
    worst_dpi = -math.inf
    worst_unitary = worst_add = 0.0
    worst_sandwich = -math.inf
    worst_alt = worst_trace = math.inf
    for i in range(200):
        p = _valid_params(rng)
        dim = int(rng.choice([2, 4]))
        rho, sigma = random_density(rng, dim), random_density(rng, dim)

        fam = fam_depol if dim == 2 else fam_ad
        t = float(rng.uniform(0.1, 2.5))
        before = ent.renyi_az(rho, sigma, p)
        after = ent.renyi_az(
            dyn.apply_channel(fam, rho, t), dyn.apply_channel(fam, sigma, t), p
        )
        worst_dpi = max(worst_dpi, after - before)

        u = random_unitary(rng, dim)
        rotated = ent.renyi_az(
            DensityMatrix(u @ rho.mat @ u.conj().T),
            DensityMatrix(u @ sigma.mat @ u.conj().T),
            p,
        )
        worst_unitary = max(worst_unitary, abs(rotated - before))

        a2, b2 = random_density(rng, 2), random_density(rng, 2)
        c2, d2 = random_density(rng, 2), random_density(rng, 2)
        joint = ent.renyi_az(
            DensityMatrix(linalg.kron(a2.mat, b2.mat)),
            DensityMatrix(linalg.kron(c2.mat, d2.mat)),
            p,
        )
        parts = ent.renyi_az(a2, c2, p) + ent.renyi_az(b2, d2, p)
        worst_add = max(worst_add, abs(joint - parts))

        # dim 4 at extreme alpha exceeds double precision's resolvable
        # spectrum for the sandwiched product; stay in the certifiable band
        alpha_s = float(rng.uniform(0.12, 0.88)) if dim == 4 else float(rng.uniform(0.05, 0.95))
        worst_sandwich = max(
            worst_sandwich, ent.sandwiched(rho, sigma, alpha_s) - ent.petz(rho, sigma, alpha_s)
        )

        g = ent.relative_purity(rho, sigma, p)
        tr = float(np.real(np.trace(
            linalg.mat_pow(rho.mat, p.alpha) @ linalg.mat_pow(sigma.mat, 1 - p.alpha)
        )))
        worst_alt = min(worst_alt, g - tr)
        worst_trace = min(worst_trace, tr - (1 + (1 - p.alpha) * math.log(sigma.k_min)))
    assert worst_dpi <= 1e-8
    assert worst_unitary <= 1e-9
    assert worst_add <= 1e-8
    assert worst_sandwich <= 1e-9
    assert worst_alt >= -1e-10
    assert worst_trace >= -1e-10
    _report(8, f"DPI excess {worst_dpi:.2e}, unitary {worst_unitary:.2e}, "
               f"additivity {worst_add:.2e}, sandwich-petz {worst_sandwich:.2e}")


def test_criterion_9_matrix_power_integral_oracle():
    rng = np.random.default_rng(9009)
    worst = 0.0
    for dim in (2, 4):
        for _ in range(50):
            x = rng.normal(size=(dim, 2 * dim)) + 1j * rng.normal(size=(dim, 2 * dim))
            m = x @ x.conj().T
            m /= np.real(np.trace(m))
            for s in (0.25, 0.5, 0.75):
                diff = mat_pow_integral(m, s, 2000) - linalg.mat_pow(m, s)
                worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-6
    _report(9, f"integral vs spectral max dev {worst:.2e}")


def test_criterion_10_figure_level_shape():
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))

    def tau_qsl(alpha: float, gt: float) -> float:
        return qsl.qsl_nonunitary(fam, rho0, gt, EntropyParams(alpha, 1.0), 1001).tau_qsl

    center = tau_qsl(0.5, 5.0)
    edge = tau_qsl(0.9, 5.0)
    assert center < edge

    values = [tau_qsl(0.9, float(gt)) for gt in np.linspace(1.0, 20.0, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    _report(10, f"tau(0.5, 5) = {center:.4f} < tau(0.9, 5) = {edge:.4f}; "
                f"monotone over 20 points")


def test_criterion_11_z_monotonicity():
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
    traj = dyn.evolve_kraus(fam, rho0, 5.0, 1001, rates=True)
    taus = {z: qsl.qsl_general(traj, EntropyParams(0.3, z)).tau_qsl for z in (0.7, 0.8, 1.0)}
    assert taus[1.0] > taus[0.8] > taus[0.7]
    _report(11, f"tau(z=1.0) = {taus[1.0]:.5f} > tau(z=0.8) = {taus[0.8]:.5f} "
                f"> tau(z=0.7) = {taus[0.7]:.5f}")


def test_criterion_12_determinism_and_budget():
    first = cli.run_figure("fig2")
    second = cli.run_figure("fig2")
    assert first == second
    n_rows = first.count("\n") - 1
    assert n_rows == 100 * 100
    elapsed = time.monotonic() - _MODULE_T0
    assert elapsed < _TIME_BUDGET_SECONDS
    _report(12, f"fig2 byte-identical across runs ({n_rows} rows); "
                f"suite elapsed {elapsed:.1f}s < {_TIME_BUDGET_SECONDS:.0f}s")
