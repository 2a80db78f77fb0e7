"""The column-major sweep against the public per-point calls.

Every row of `cli.sweep_rows` must equal, bit for bit and warnings included,
what a caller gets for its (alpha, z, t) one point at a time: evolve the
probe to t, then `integrate_bounds`, then `qsl_general` (unitary) or
`nonunitary_qsl_from_terms` (channels), each output group degrading to an
`error:<Class>` tag on its own.
"""

import math

import numpy as np
import pytest

from azqsl import cli
from azqsl import dynamics as dyn
from azqsl import qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import AzqslError
from azqsl.states import BlochVector, GHZMixedParams, bloch_state, ghz_mixed


def point_row(cfg: cli.SweepConfig, alpha: float, z: float, t: float):
    """(values, warnings) of one grid point from the public per-point API."""
    p = EntropyParams(alpha, z)
    if cfg.model == "amplitude_damping":
        rho0 = ghz_mixed(GHZMixedParams(cfg.p))
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(cfg.lam, cfg.s))
    else:
        rho0 = bloch_state(BlochVector(cfg.r, cfg.theta, cfg.phi))
        fam = None
        if cfg.model == "depolarizing":
            fam = dyn.depolarizing_family(dyn.DepolarizingParams(cfg.gamma))
    if fam is None:
        traj = dyn.evolve_unitary(dyn.HamiltonianModel.qubit(cfg.n), rho0, t, cfg.n_steps)
        terms = None
    else:
        traj = dyn.evolve_kraus(fam, rho0, t, cfg.n_steps)
        terms = dyn.kraus_speed_term_stacks(fam, rho0, traj.times, fd_step=1e-5 * t).sum(axis=1)

    values, warnings = {}, []

    def note(flags):
        warnings.extend(w for w in flags if w not in warnings)

    if "entropy" in cfg.outputs or "bounds" in cfg.outputs:
        try:
            b = qsl.integrate_bounds(traj, p)
        except AzqslError as exc:
            note([f"error:{type(exc).__name__}"])
        else:
            note(b.warnings)
            if "entropy" in cfg.outputs:
                values.update(D_fwd=b.d_fwd, D_bwd=b.d_bwd, D_sym=b.d_sym)
            if "bounds" in cfg.outputs:
                values.update(rhs_fwd=b.rhs_fwd, rhs_bwd=b.rhs_bwd, rhs_sym=b.rhs_sym,
                              delta_bound=b.delta_bound)
    if "qsl" in cfg.outputs:
        try:
            if terms is None:
                q = qsl.qsl_general(traj, p)
            else:
                q = qsl.nonunitary_qsl_from_terms(traj, terms, p)
        except AzqslError as exc:
            note([f"error:{type(exc).__name__}"])
        else:
            note(q.warnings)
            values.update(tau_fwd=q.tau_fwd, tau_bwd=q.tau_bwd, tau_sym=q.tau_sym,
                          tau_qsl=q.tau_qsl, delta_qsl=q.delta_qsl)
    return values, tuple(warnings)


def normalize_like_sweep(expected: list[dict]) -> None:
    """Min-max normalized error columns over the panel, rows in sweep order."""
    for src, dst in (("delta_bound", "delta_bound_norm"), ("delta_qsl", "delta_qsl_norm")):
        rows = [v for v in expected if math.isfinite(v.get(src, math.nan))]
        assert len(rows) >= 2, f"{src} has too few finite values to normalize"
        for v, norm in zip(rows, qsl.normalize_series([v[src] for v in rows])):
            v[dst] = float(norm)


def exact(values: dict) -> dict:
    """Values keyed for bitwise comparison (repr round-trips floats, nan too)."""
    return {k: repr(float(v)) for k, v in values.items()}


PANELS = {
    "unitary_general_z": cli.SweepConfig(
        model="unitary_qubit", r=0.6, theta=1.1, phi=0.4, n=(1.0, 0.3, 0.5),
        alpha_grid=(0.15, 0.85, 4), z_grid=(0.6, 1.0, 3), time_grid=(0.4, 2.0, 3),
        n_steps=201,
    ),
    "depolarizing": cli.SweepConfig(
        model="depolarizing", r=0.75, theta=1.0, phi=2.0, gamma=1.0,
        alpha_grid=(0.05, 0.95, 5), z_grid=(0.9, 1.0, 2), time_grid=(0.5, 8.0, 4),
        n_steps=401,
    ),
    "amplitude_damping_s10": cli.SweepConfig(
        model="amplitude_damping", lam=1.0, s=10.0, p=0.9,
        alpha_grid=(0.1, 0.9, 3), time_grid=(4.0, 16.0, 4), n_steps=401,
    ),
    "pure_probe": cli.SweepConfig(
        model="depolarizing", r=1.0, alpha_grid=(0.2, 0.8, 3), time_grid=(1.0, 3.0, 2),
        n_steps=101,
    ),
    "errors_output": cli.SweepConfig(
        model="depolarizing", r=0.5, theta=0.7, gamma=0.5,
        alpha_grid=(0.1, 0.9, 4), time_grid=(0.5, 6.0, 3), n_steps=201,
        outputs=("entropy", "bounds", "qsl", "errors"),
    ),
}


@pytest.mark.parametrize("name", sorted(PANELS))
def test_sweep_rows_equal_point_calls(name):
    cfg = PANELS[name]
    rows = cli.sweep_rows(cfg)
    keys = [
        (float(a), float(z), float(t))
        for a in np.linspace(*cfg.alpha_grid)
        for z in np.linspace(*cfg.z_grid)
        for t in np.linspace(*cfg.time_grid)
    ]
    assert [(r.alpha, r.z, r.t) for r in rows] == keys
    expected = [point_row(cfg, *key) for key in keys]
    if "errors" in cfg.outputs:
        normalize_like_sweep([values for values, _ in expected])
    for row, (values, warnings) in zip(rows, expected):
        assert row.warnings == warnings, (row.alpha, row.z, row.t)
        assert exact(row.values) == exact(values), (row.alpha, row.z, row.t)


def test_cases_reach_their_failure_modes():
    tags = {
        name: {w for row in cli.sweep_rows(cfg) for w in row.warnings}
        for name, cfg in PANELS.items()
        if name in ("amplitude_damping_s10", "pure_probe")
    }
    assert "error:SupportViolationError" in tags["amplitude_damping_s10"]
    assert tags["pure_probe"] == {"error:SingularStateError"}
