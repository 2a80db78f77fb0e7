import gc
import math
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import trapezoid

from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl import cli, oracles, qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    DegenerateRangeError,
    DenominatorNearZeroError,
    InvalidParamsError,
    QuadratureTooCoarseError,
    SingularStateError,
    SpectrumMismatchError,
    SupportViolationError,
    ZeroSpeedError,
    ZeroVarianceError,
)
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed
from helpers import random_bloch_state, random_params, time_grids

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


class TestHalfGridGate:
    def test_rows_fail_as_the_scalar_rule(self, monkeypatch):
        # the gate compares every row at once; the rows it rejects and their
        # messages are those of the scalar rule, NaN and infinite rows too
        inf, nan = math.inf, math.nan
        full = [1.0, 1.0, 0.0, 1e-13, nan, 1.0, inf, inf, 1.0, -inf, 2.5, 0.0]
        half = [1.0, 1.1, 1e-17, 2e-13, 1.0, nan, inf, 1.0, inf, 1.0, 2.5 + 1e-5, 1e-15]
        monkeypatch.setattr(qsl, "_quad", lambda times, vals: np.array(
            full if len(times) == 9 else half))
        _, errors = qsl._gated_quads(np.linspace(0.0, 1.0, 9), np.zeros((len(full), 9)), True)
        want = {
            i: f"half-grid check differs by {abs(f - h):.3e} vs {f:.3e}"
            for i, (f, h) in enumerate(zip(full, half))
            if abs(f - h) > qsl.RICHARDSON_REL_TOL * max(abs(f), 1e-12)
        }
        assert errors.shape == (len(full),) and errors.dtype == object
        assert {i: str(e) for i, e in enumerate(errors) if e is not None} == want
        assert sorted(want) == [1, 3, 8, 11]
        assert all(type(errors[i]) is QuadratureTooCoarseError for i in want)


class TestSharedExponents:
    # alpha - 1 at one alpha is -alpha at 1 - alpha, so the weighted
    # integrals take each distinct exponent once; every (integral, alpha)
    # must still get the bits and the gate error of its own integral
    def test_shared_rows_match_per_integral_quads(self):
        # 8 intervals keep the half-grid gate, which this fast decay fails
        fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
        traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.75, 1.0, 0.3)), 8.0, 9, rates=True)
        alphas = [0.3, 0.5, 0.7, 0.9]
        names = ["speeds", "rates"]
        integrals, errors, _ = qsl._integrator(alphas)(
            traj.times, traj.kmins, (traj.speeds, traj.rates))
        assert errors.shape == integrals.shape == (len(names), 2, len(alphas))
        kc = np.maximum(traj.kmins, qsl.KMIN_CLAMP)
        for r, name in enumerate(names):
            rates = getattr(traj, name)
            for k, exponents in enumerate(([a - 1.0 for a in alphas], [-a for a in alphas])):
                weights = kc ** np.array(exponents)[:, None]
                full, failed = qsl._gated_quads(traj.times, weights * rates, True)
                assert np.array_equal(integrals[r, k], full)
                assert ([None if e is None else (type(e), str(e)) for e in errors[r, k]]
                        == [None if e is None else (type(e), str(e)) for e in failed])
        # -0.7 is I1 at 0.3 and I2 at 0.7; it fails the gate for both
        for r in range(len(names)):
            assert errors[r, 0, 0] is not None and errors[r, 1, 2] is not None
            assert str(errors[r, 0, 0]) == str(errors[r, 1, 2])


class TestFig2IntegralTruth:
    # The fig2 panel's speed integrals against their closed forms. The
    # depolarizing probe's Bloch radius is u = r e^(-gamma t), so k_min is
    # (1 - u)/2 and the Schatten speed is -du/dt, which give
    #   I1 = 2^(1-a)/a [(1 - u_tau)^a - (1 - r)^a],
    #   I2 = 2^a/(1-a) [(1 - u_tau)^(1-a) - (1 - r)^(1-a)].
    # Simpson on the 1001 samples of each of the 99 horizons reads them,
    # over the 100 alphas, to a worst relative error of 5.43e-7 and a median
    # of 5.5e-9. The bounds leave 10% and a factor of 1.8 of margin.
    WORST, MEDIAN = 6e-7, 1e-8

    def test_speed_integrals_match_closed_forms(self):
        (cfg,) = cli.figure_panels("fig2")
        rho0, model = cli._probe_and_model(cfg)
        alphas, times = np.linspace(*cfg.alpha_grid).tolist(), np.linspace(*cfg.time_grid)
        taus = times[times != 0.0].tolist()
        cols = dyn._columns(model, rho0, time_grids(taus, cfg.n_steps), True,
                            qsl._integrator(alphas))
        errors = []
        with mpmath.workdps(30):
            r, gamma = mpmath.mpf(cfg.r), mpmath.mpf(cfg.gamma)
            # per alpha: the exponents of I1 and I2, their prefactors and
            # their t = 0 terms
            terms = [(a, 2 ** (1 - a) / a, (1 - r) ** a,
                      1 - a, 2 ** a / (1 - a), (1 - r) ** (1 - a)) for a in map(mpmath.mpf, alphas)]
            for tau, col in zip(taus, cols):
                i1s, i2s = col.table[0][0]  # the speed row
                w = 1 - r * mpmath.exp(-gamma * tau)
                for (e1, c1, s1, e2, c2, s2), i1, i2 in zip(terms, i1s.tolist(), i2s.tolist()):
                    errors += [float(abs(i1 / (c1 * (w ** e1 - s1)) - 1)),
                               float(abs(i2 / (c2 * (w ** e2 - s2)) - 1))]
        assert len(errors) == 2 * len(alphas) * len(taus) == 2 * 100 * 99
        assert max(errors) <= self.WORST
        assert np.median(errors) <= self.MEDIAN


class TestFig2EntropyTruth:
    # The fig2 panel's endpoint entropies against their closed form. rho_t
    # and rho_0 share the Bloch axis, with eigenvalues (1 +- u)/2 for
    # u = r e^(-gamma t) and u = r, so g = sum lambda_t^a lambda_0^(1-a)
    # does not depend on z and D_fwd = ln g / (a - 1); D_bwd swaps the two
    # states. Over the 100 alphas x 99 horizons the panel reads them to a
    # worst relative error of 2.55e-12 (D_fwd) and 3.73e-12 (D_bwd), both
    # at alpha = 0.99 and the first horizon, t = 0.202, where the two
    # states are closest; the medians are 7.1e-15 and 7.8e-15. The bounds
    # leave a third and a factor of 2.5 of margin.
    WORST, MEDIAN = 5e-12, 2e-14

    def test_endpoint_entropies_match_closed_form(self):
        (cfg,) = cli.figure_panels("fig2")
        panel = cli.sweep_rows(cfg)
        live = panel.times != 0.0
        errors = {"d_fwd": [], "d_bwd": []}
        with mpmath.workdps(30):
            r, gamma = mpmath.mpf(cfg.r), mpmath.mpf(cfg.gamma)
            alphas = [mpmath.mpf(a) for a in panel.alphas.tolist()]

            def log_spectrum(u):
                return [mpmath.log((1 + u) / 2), mpmath.log((1 - u) / 2)]

            start = log_spectrum(r)
            for t, fwd, bwd in zip(panel.times[live].tolist(),
                                   panel.values["d_fwd"][:, 0, live].T.tolist(),
                                   panel.values["d_bwd"][:, 0, live].T.tolist()):
                end = log_spectrum(r * mpmath.exp(-gamma * mpmath.mpf(t)))
                for a, got_fwd, got_bwd in zip(alphas, fwd, bwd):
                    for name, got, rho, sigma in (("d_fwd", got_fwd, end, start),
                                                  ("d_bwd", got_bwd, start, end)):
                        g = sum(mpmath.exp(a * x + (1 - a) * y) for x, y in zip(rho, sigma))
                        errors[name].append(float(abs(got / (mpmath.log(g) / (a - 1)) - 1)))
        for name, errs in errors.items():
            assert len(errs) == 100 * 99
            assert max(errs) <= self.WORST, name
            assert np.median(errs) <= self.MEDIAN, name


class TestFig4EntropyTruth:
    # The four fig4 panels' endpoint entropies, on 10 alphas x 10 horizons
    # (t = 2..20), against the truth in mpmath at 40 digits. AD x AD maps
    # the GHZ-mixed probe to an X-state: a {|00>, |11>} block
    # [[a, c], [c, d]] and the population b on |01> and |10>. With
    # m +- r the block's eigenvalues (the smaller taken as det / (m + r))
    # and the probe's block eigenvalues (1 + 3p)/4 on (1, 1)/sqrt 2 and
    # (1 - p)/4 on (1, -1)/sqrt 2, an eigenvector of the damped block
    # overlaps them by (1 +- c/r)/2, so g = Tr rho^a sigma^(1-a) is a sum
    # of weighted products of powers. Measured: on the 260 cells whose
    # k_min is resolved (above 1e-12 times the largest eigenvalue) the
    # worst relative error is 1.23e-12 (D_fwd) and 1.24e-12 (D_bwd); the
    # D_fwd median of each panel is at most 3.2e-14. The other cells
    # show finding G: 24 D_fwd cells more than 1% off (worst 4.14
    # relative) and 140 D_bwd = inf cells whose truth is finite. The
    # bounds leave a factor of 2; the two counts are a ratchet and must
    # not grow.
    WORST, MEDIAN = 2.5e-12, 6e-14
    FWD_OFF, BWD_INF = 24, 140

    @staticmethod
    def truth(p, s, t, alphas):
        """(resolved, D_fwd, D_bwd per alpha) of the panel at horizon t."""
        x = mpmath.mpf(t) / 2
        if s == 0.5:
            gamma = mpmath.exp(-x) * (1 + x)
        else:
            q = mpmath.sqrt(2 * s - 1)
            gamma = mpmath.exp(-x) * (mpmath.cos(x * q) + mpmath.sin(x * q) / q)
        g2 = gamma**2
        d = (1 + p) * g2**2 / 4
        b = g2 * (2 - (1 + p) * g2) / 4
        a, c = 1 - d - 2 * b, p * g2 / 2
        r = mpmath.sqrt(((a - d) / 2) ** 2 + c**2)
        hi = (a + d) / 2 + r
        damped, probe = [hi, (a * d - c**2) / hi, b], [(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4]
        # squared overlaps of the damped eigenvectors (rows) with the probe's
        w = [[(1 + c / r) / 2, (1 - c / r) / 2, 0], [(1 - c / r) / 2, (1 + c / r) / 2, 0],
             [0, 0, 2]]

        def entropy(rho, sigma, alpha, overlap):
            g = sum(rho[i] ** alpha * sigma[j] ** (1 - alpha) * overlap(i, j)
                    for i in range(3) for j in range(3))
            return mpmath.log(g) / (alpha - 1)

        resolved = min(damped[1:]) > mpmath.mpf("1e-12") * hi
        return resolved, [(entropy(damped, probe, a, lambda i, j: w[i][j]),
                           entropy(probe, damped, a, lambda i, j: w[j][i])) for a in alphas]

    def test_endpoint_entropies_match_x_state_truth(self):
        resolved_errors, fwd_off, bwd_inf = [], 0, 0
        for cfg in cli.figure_panels("fig4"):
            cfg = replace(cfg, alpha_grid=(0.01, 0.99, 10), time_grid=(0.0, 20.0, 11))
            panel = cli.sweep_rows(cfg)
            fwd_errors = []
            with mpmath.workdps(40):
                alphas = [mpmath.mpf(a) for a in panel.alphas.tolist()]
                for k, t in enumerate(panel.times.tolist()):
                    if t == 0.0:
                        continue
                    resolved, want = self.truth(mpmath.mpf(cfg.p), cfg.s, t, alphas)
                    for i, (fwd, bwd) in enumerate(want):
                        got_fwd, got_bwd = (panel.values[col][i, 0, k] for col in ("d_fwd", "d_bwd"))
                        err_fwd = float(abs(got_fwd / fwd - 1))
                        fwd_off += err_fwd > 0.01
                        bwd_inf += math.isinf(got_bwd)
                        if resolved:
                            fwd_errors.append(err_fwd)
                            resolved_errors += [err_fwd, float(abs(got_bwd / bwd - 1))]
            assert np.median(fwd_errors) <= self.MEDIAN, (cfg.s, cfg.p)
        assert len(resolved_errors) == 2 * 260
        assert max(resolved_errors) <= self.WORST
        assert fwd_off <= self.FWD_OFF
        assert bwd_inf <= self.BWD_INF


class TestUnitaryTruth:
    # The unitary (alpha, z) golden panel (r = 0.6, theta = 1.2, phi = 0.3,
    # n = (1, 0, 0.5); 10 alphas x z in {0.6, 0.8, 1} x 6 times) against the
    # truth in mpmath at 30 digits. rho_t = e^(-itH) rho_0 e^(itH), and D
    # comes from the sandwiched cores through mpmath's eigendecompositions.
    # The orbit keeps k = (1 - |r|)/2 and the speed S = 2|n x r|, so
    # I1 = tau k^(alpha-1) S and I2 = tau k^(-alpha) S, and h is in closed
    # form. Measured over the 150 live cells: D_fwd worst 7.7e-12 and
    # median 6.8e-14, D_bwd worst 6.7e-12 and median 9.2e-14, both worst at
    # alpha = 0.01 or 0.99 and t = 20; rhs_fwd and rhs_bwd worst 1.0e-14.
    # The bounds leave a third of margin on the worst cells and a factor of
    # 2 on the medians.
    D_WORST, D_MEDIAN, RHS_WORST = 1e-11, 2e-13, 1.5e-14

    @staticmethod
    def power(mat, s):
        vals, vecs = mpmath.eigh(mat)
        return vecs * mpmath.diag([v**s for v in vals]) * vecs.H

    @classmethod
    def entropy(cls, rho, sigma, a, z):
        outer = cls.power(sigma, (1 - a) / (2 * z))
        core = outer * cls.power(rho, a / z) * outer
        vals = mpmath.eigh((core + core.H) / 2)[0]
        return mpmath.log(sum(v**z for v in vals)) / (a - 1)

    def test_panel_matches_mpmath(self):
        cfg = cli.SweepConfig(
            model="unitary_qubit", r=0.6, theta=1.2, phi=0.3, n=(1.0, 0.0, 0.5),
            alpha_grid=(0.01, 0.99, 10), z_grid=(0.6, 1.0, 3), time_grid=(0.0, 20.0, 6))
        panel = cli.sweep_rows(cfg)
        errors = {name: [] for name in ("d_fwd", "d_bwd", "rhs_fwd", "rhs_bwd")}
        with mpmath.workdps(30):
            paulis = [mpmath.matrix([[0, 1], [1, 0]]), mpmath.matrix([[0, -1j], [1j, 0]]),
                      mpmath.matrix([[1, 0], [0, -1]])]
            r, theta, phi = (mpmath.mpf(x) for x in (cfg.r, cfg.theta, cfg.phi))
            bloch = [r * mpmath.sin(theta) * mpmath.cos(phi),
                     r * mpmath.sin(theta) * mpmath.sin(phi), r * mpmath.cos(theta)]
            n = [mpmath.mpf(x) for x in cfg.n]
            def pauli_sum(coefficients):
                return sum((c * s for c, s in zip(coefficients, paulis)), mpmath.zeros(2))

            rho0, h = (mpmath.eye(2) + pauli_sum(bloch)) / 2, pauli_sum(n)
            cross = [n[1] * bloch[2] - n[2] * bloch[1], n[2] * bloch[0] - n[0] * bloch[2],
                     n[0] * bloch[1] - n[1] * bloch[0]]
            speed = 2 * mpmath.sqrt(sum(c**2 for c in cross))
            k, k_max = (1 - r) / 2, (1 + r) / 2

            def h_func(a, z):
                return (k_max * k ** (z - 1)) ** ((1 - a) / z) / abs(1 + (1 - a) * mpmath.log(k))

            for t_idx, t in enumerate(panel.times.tolist()):
                if t == 0.0:
                    continue
                tau = mpmath.mpf(t)
                u = mpmath.expm(-1j * tau * h)
                rho_t = u * rho0 * u.H
                for i, a in enumerate(map(mpmath.mpf, panel.alphas.tolist())):
                    i1, i2 = tau * k ** (a - 1) * speed, tau * k ** (-a) * speed
                    for j, z in enumerate(map(mpmath.mpf, panel.zs.tolist())):
                        want = {"d_fwd": self.entropy(rho_t, rho0, a, z),
                                "d_bwd": self.entropy(rho0, rho_t, a, z),
                                "rhs_fwd": a * h_func(a, z) / abs(1 - a) * i1,
                                "rhs_bwd": h_func(1 - a, z) * i2}
                        for name, value in want.items():
                            got = panel.values[name][i, j, t_idx]
                            errors[name].append(float(abs(got / value - 1)))
        for name in ("d_fwd", "d_bwd"):
            assert len(errors[name]) == 150
            assert max(errors[name]) <= self.D_WORST, name
            assert np.median(errors[name]) <= self.D_MEDIAN, name
        for name in ("rhs_fwd", "rhs_bwd"):
            assert max(errors[name]) <= self.RHS_WORST, name


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

    @pytest.mark.parametrize("entry", [qsl.integrate_bounds, qsl.qsl_general])
    def test_failed_call_leaves_no_reference_cycle(self, entry):
        """A raised error must not keep its trajectory alive until the next
        garbage collection (the error's traceback holds the entry point's
        frame)."""
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 10.0))
        p = EntropyParams(0.5, 1.0)
        gc.disable()
        try:
            traj = dyn.evolve_kraus(fam, ghz_mixed(GHZMixedParams(1.0)), 8.0, 101, rates=True)
            alive = weakref.ref(traj)
            try:
                entry(traj, p)
            except (SingularStateError, SupportViolationError):
                pass
            else:
                pytest.fail("expected the call to fail")
            del traj
            assert alive() is None
        finally:
            gc.enable()


class TestFixedPointTimes:
    # The maximally mixed probe is a fixed point of the depolarizing channel
    # and of every unitary orbit, so its entropies round to about -4.4e-16
    # (g = 1 + 1 ulp). A route whose entropy is below zero gets time 0, not
    # a negative time and a delta_qsl above 1.
    ROUTES = ("tau_fwd", "tau_bwd", "tau_sym", "tau_qsl")

    def test_depolarizing_point(self, capsys):
        assert cli.main(["qsl", "--model", "depolarizing", "--r", "0", "--tau", "1"]) == 0
        values = dict(line.partition(" = ")[::2] for line in capsys.readouterr().out.splitlines())
        assert all(float(values[name]) >= 0.0 for name in self.ROUTES)
        assert float(values["delta_qsl"]) <= 1.0

    def test_depolarizing_sweep(self):
        panel = cli.sweep_rows(cli.SweepConfig(
            model="depolarizing", r=0.0, alpha_grid=(0.01, 0.99, 100), time_grid=(0.0, 20.0, 100)))
        # the entropies keep their computed values
        assert (panel.values["d_fwd"] < 0.0).any()
        for name in self.ROUTES:
            assert not (panel.values[name] < 0.0).any(), name
        assert not (panel.values["delta_qsl"] > 1.0).any()

    def test_unitary_closed_form(self, rng):
        rho0 = bloch_state(BlochVector(0.0))
        for _ in range(200):
            h = dyn.HamiltonianModel.qubit(rng.normal(size=3))
            rho_tau = dyn.evolve_unitary(h, rho0, 1.0, 3).final_state
            p = EntropyParams(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 1.0)))
            report = qsl.qsl_unitary(h, rho0, rho_tau, p, tau=1.0)
            assert all(getattr(report, name) >= 0.0 for name in self.ROUTES)
            assert report.delta_qsl <= 1.0

    def test_unitary_fast_paths(self):
        # seeded fields with Delta H = 1 on the maximally mixed qubit, whose
        # Petz entropy rounds below zero and whose fidelity rounds to 1 or
        # above on some of them
        rng = np.random.default_rng(20261022)
        rho0 = bloch_state(BlochVector(0.0))
        for _ in range(200):
            n = rng.normal(size=3)
            h = dyn.HamiltonianModel.qubit(n / np.linalg.norm(n))
            rho_tau = dyn.evolve_unitary(h, rho0, 1.0, 3).final_state
            assert 0.0 <= qsl.tau_unitary_petz(rho0, rho_tau, 0.4, 1.0) <= 1e-15
            assert 0.0 <= qsl.tau_unitary_fidelity(rho0, rho_tau, 1.0) <= 1e-15


class TestQslUnitary:
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, tau):
        # a zero horizon divided by zero; the others were printed as horizons
        h = dyn.HamiltonianModel.qubit([1.0, 0.0, 0.5])
        rho0 = bloch_state(BlochVector(0.6, 1.2, 0.3))
        rho_tau = dyn.evolve_unitary(h, rho0, 0.9, 101).final_state
        qsl.qsl_unitary(h, rho0, rho_tau, EntropyParams(0.3, 1.0), tau=0.9)
        with pytest.raises(InvalidParamsError,
                           match=f"horizon must be positive and finite, got {tau}"):
            qsl.qsl_unitary(h, rho0, rho_tau, EntropyParams(0.3, 1.0), tau=tau)

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


class TestTrapezoidBits:
    # the odd-count fallback writes out scipy.integrate.trapezoid's
    # arithmetic, so it must keep its bits, row by row
    @pytest.mark.parametrize("n_times", [2, 4, 10, 1000])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_quad_equals_scipy_trapezoid(self, rng, n_times, rows, uniform):
        times = (np.linspace(0.0, 3.7, n_times) if uniform
                 else np.cumsum(rng.uniform(0.01, 1.0, n_times)))
        vals = rng.normal(size=(n_times,) if rows is None else (rows, n_times))
        got = qsl._quad(times, vals)
        want = trapezoid(vals, times, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


class TestOddIntervalQuadrature:
    # n_steps = 1000 gives 999 intervals, where Simpson does not apply and
    # the trapezoid rule takes over.

    def test_quad_is_trapezoid(self):
        times = np.linspace(0.0, 3.0, 1000)
        vals = np.exp(-times) * (1.0 + np.sin(3.0 * times) ** 2)
        assert float(qsl._quad(times, vals)) == pytest.approx(
            trapezoid_sum(times, vals), rel=1e-14
        )

    def test_bounds_on_odd_grid(self):
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # a NaN or an infinity spans no finite range: the affine map would
        # turn the series into NaNs
        for values in ([0.0, bad, 1.0], [bad, 2.0, 3.0]):
            with pytest.raises(DegenerateRangeError, match="non-finite"):
                qsl.normalize_series(values)

    def test_endpoints_map_to_unit_interval(self, rng):
        vals = rng.normal(size=17)
        out = qsl.normalize_series(vals)
        assert out.min() == 0.0 and out.max() == 1.0
