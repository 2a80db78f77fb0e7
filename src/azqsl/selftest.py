"""Built-in cross-checks: the generic matrix pipeline against the scalar
closed forms, plus the bound and speed-limit inequalities on random
instances. Prints one PASS/FAIL line per check."""

from __future__ import annotations

import math

import numpy as np

from . import dynamics as dyn
from . import entropy as ent
from . import oracles, qsl
from .states import BlochVector, GHZMixedParams, bloch_state, ghz_mixed


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"SELFTEST {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _unitary_purity_check(rng, n_draws: int) -> bool:
    worst = 0.0
    for _ in range(n_draws):
        r = rng.uniform(0.05, 0.9)
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        n = tuple(rng.normal(size=3))
        alpha = rng.uniform(0.05, 0.95)
        z = rng.uniform(max(alpha, 1 - alpha), 1.0)
        norm_n = math.sqrt(sum(c * c for c in n))
        t = rng.uniform(0.0, 4 * math.pi / norm_n)
        case = oracles.QubitUnitaryCase(r=r, theta=theta, phi=phi, n=n, t=t)
        p = ent.EntropyParams(alpha, z)
        rho0 = bloch_state(BlochVector(r, theta, phi))
        hmod = dyn.HamiltonianModel.qubit(n)
        traj = dyn.evolve_unitary(hmod, rho0, t, 3)
        g_pipe = ent.relative_purity(traj.final_state, rho0, p)
        worst = max(worst, abs(g_pipe - oracles.unitary_purity(case, p)))
    return _check("unitary_purity", worst <= 1e-9, f"max dev {worst:.3e}")


def _depolarizing_entropy_check(rng, n_draws: int) -> bool:
    worst = 0.0
    fam_cache = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    for _ in range(n_draws):
        r = rng.uniform(0.05, 0.9)
        alpha = rng.uniform(0.05, 0.95)
        gt = rng.uniform(0.01, 20.0)
        rho0 = bloch_state(BlochVector(r, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        rho_t = dyn.apply_channel(fam_cache, rho0, gt)
        z = rng.uniform(max(alpha, 1 - alpha), 1.0)
        d_pipe = ent.renyi_az(rho_t, rho0, ent.EntropyParams(alpha, z))
        d_oracle = oracles.depolarizing_entropy(oracles.DepolarizingCase(r, gt), alpha)
        worst = max(worst, abs(d_pipe - d_oracle))
    return _check("depolarizing_entropy", worst <= 1e-9, f"max dev {worst:.3e}")


def _depolarizing_tau_check(rng, n_draws: int) -> bool:
    worst = 0.0
    fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
    rho0 = bloch_state(BlochVector(0.75, 1.0, 2.0))
    for _ in range(max(n_draws // 10, 3)):
        alpha = rng.uniform(0.1, 0.9)
        z = rng.uniform(max(alpha, 1 - alpha), 1.0)
        gt = rng.uniform(0.5, 12.0)
        report = qsl.qsl_nonunitary(fam, rho0, gt, ent.EntropyParams(alpha, z), n_steps=2001)
        ref = oracles.depolarizing_tau(oracles.DepolarizingCase(0.75, gt), ent.EntropyParams(alpha, z))
        worst = max(worst, abs(report.tau_fwd - ref) / abs(ref))
    return _check("depolarizing_tau", worst <= 1e-6, f"max rel dev {worst:.3e}")


def _amplitude_damping_check(rng, n_draws: int) -> bool:
    worst_k, worst_n = 0.0, 0.0
    for _ in range(n_draws):
        p = rng.uniform(0.02, 0.98)
        lt = rng.uniform(0.0, 20.0)
        s = float(rng.choice([0.5, 2.0, 10.0]))
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, s))
        rho0 = ghz_mixed(GHZMixedParams(p))
        case = oracles.TwoQubitADCase(p=p, lambda_tau=lt, s=s)
        rho_t = dyn.apply_channel(fam, rho0, lt)
        worst_k = max(worst_k, abs(rho_t.k_min - oracles.ad_kmin(case)))
        rate = dyn.evolve_kraus(fam, rho0, lt, 3, rates=True).rates[-1]
        worst_n = max(worst_n, abs(float(rate) - oracles.ad_kraus_norm_sum(case)))
    ok = worst_k <= 1e-9 and worst_n <= 1e-9
    return _check("amplitude_damping", ok, f"kmin dev {worst_k:.3e}, norm dev {worst_n:.3e}")


def _gamma_check(rng, n_draws: int) -> bool:
    worst_closed = max(
        abs(oracles.ad_gamma(lt, 0.5) - math.exp(-lt / 2) * (1 + lt / 2))
        for lt in np.linspace(0.0, 20.0, 101)
    )
    worst_abs = max(
        abs(oracles.ad_gamma(lt, s))
        for s in (0.5, 2.0, 10.0)
        for lt in np.linspace(0.0, 30.0, 601)
    )
    ok = worst_closed <= 1e-10 and worst_abs <= 1.0 + 1e-12
    return _check("decoherence_gamma", ok, f"closed-form dev {worst_closed:.3e}, max |gamma| {worst_abs:.6f}")


def _bound_validity_check(rng, n_draws: int) -> bool:
    worst_slack = math.inf
    worst_tau = -math.inf
    for _ in range(max(n_draws // 5, 5)):
        alpha = rng.uniform(0.1, 0.9)
        z = rng.uniform(max(alpha, 1 - alpha), 1.0)
        p = ent.EntropyParams(alpha, z)
        if rng.uniform() < 0.5:
            fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
            rho0 = bloch_state(BlochVector(rng.uniform(0.1, 0.85), 1.0, 0.5))
        else:
            fam = dyn.amplitude_damping_family(
                dyn.AmplitudeDampingParams(1.0, float(rng.choice([0.5, 2.0])))
            )
            rho0 = ghz_mixed(GHZMixedParams(rng.uniform(0.1, 0.9)))
        tau = rng.uniform(0.5, 6.0)
        traj = dyn.evolve_kraus(fam, rho0, tau, 801, rates=True)
        bound = qsl.integrate_bounds(traj, p)
        worst_slack = min(
            worst_slack,
            bound.rhs_fwd - bound.d_fwd,
            bound.rhs_bwd - bound.d_bwd,
            bound.rhs_sym - bound.d_sym,
        )
        report = qsl.qsl_general(traj, p)
        worst_tau = max(worst_tau, report.tau_qsl - tau)
    ok = worst_slack >= -1e-8 and worst_tau <= 1e-8
    return _check("bound_validity", ok, f"min slack {worst_slack:.3e}, max tau excess {worst_tau:.3e}")


def run(n_draws: int = 100) -> int:
    """Run every cross-check; returns 0 when all pass, 2 otherwise."""
    rng = np.random.default_rng(20240811)
    results = [
        _unitary_purity_check(rng, n_draws),
        _depolarizing_entropy_check(rng, n_draws),
        _depolarizing_tau_check(rng, n_draws),
        _amplitude_damping_check(rng, n_draws),
        _gamma_check(rng, n_draws),
        _bound_validity_check(rng, n_draws),
    ]
    passed = sum(results)
    print(f"SELFTEST summary: {passed}/{len(results)} checks passed")
    return 0 if all(results) else 2
