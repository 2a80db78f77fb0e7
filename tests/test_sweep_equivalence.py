"""The column-major sweep against the public per-point calls.

Every cell of the `cli.sweep_rows` panel must equal, bit for bit and
warnings included, what a caller gets for its (alpha, z, t) one point at a
time: evolve the probe to t (a channel with its Kraus rates), then
`integrate_bounds` and `qsl_general`, each output group degrading to an
`error:<Class>` tag on its own. A zero horizon gives the documented
stationary values.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from azqsl import cli
from azqsl import dynamics as dyn
from azqsl import qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import AzqslError, DegenerateRangeError
from azqsl.states import BlochVector, GHZMixedParams, bloch_state, ghz_mixed


def describe(exc: AzqslError) -> str:
    return f"{type(exc).__name__}: {exc}"


def point_row(cfg: cli.SweepConfig, alpha: float, z: float, t: float):
    """(values, warnings, errors) of one grid point from the public
    per-point API; errors maps each failed report group to its error."""
    if t == 0.0:
        return stationary_row(cfg), (), {}
    p = EntropyParams(alpha, z)
    if cfg.model == "amplitude_damping":
        rho0 = ghz_mixed(GHZMixedParams(cfg.p))
        fam = dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(cfg.lam, cfg.s))
    else:
        rho0 = bloch_state(BlochVector(cfg.r, cfg.theta, cfg.phi))
        fam = None
        if cfg.model == "depolarizing":
            fam = dyn.depolarizing_family(dyn.DepolarizingParams(cfg.gamma))
        elif cfg.model == "custom_kraus_file":
            fam = cli.load_kraus_file(cfg.kraus_file)
    if fam is None:
        traj = dyn.evolve_unitary(dyn.HamiltonianModel.qubit(cfg.n), rho0, t, cfg.n_steps)
    else:
        traj = dyn.evolve_kraus(fam, rho0, t, cfg.n_steps, rates=True)

    values, warnings, errors = {}, [], {}

    def note(flags):
        warnings.extend(w for w in flags if w not in warnings)

    if "entropy" in cfg.outputs or "bounds" in cfg.outputs:
        try:
            b = qsl.integrate_bounds(traj, p)
        except AzqslError as exc:
            note([f"error:{type(exc).__name__}"])
            errors["bounds"] = describe(exc)
        else:
            note(b.warnings)
            if "entropy" in cfg.outputs:
                values.update(D_fwd=b.d_fwd, D_bwd=b.d_bwd, D_sym=b.d_sym)
            if "bounds" in cfg.outputs:
                values.update(rhs_fwd=b.rhs_fwd, rhs_bwd=b.rhs_bwd, rhs_sym=b.rhs_sym,
                              delta_bound=b.delta_bound)
    if "qsl" in cfg.outputs:
        try:
            q = qsl.qsl_general(traj, p)
        except AzqslError as exc:
            note([f"error:{type(exc).__name__}"])
            errors["qsl"] = describe(exc)
        else:
            note(q.warnings)
            values.update(tau_fwd=q.tau_fwd, tau_bwd=q.tau_bwd, tau_sym=q.tau_sym,
                          tau_qsl=q.tau_qsl, delta_qsl=q.delta_qsl)
    return values, tuple(warnings), errors


def stationary_row(cfg: cli.SweepConfig) -> dict:
    """Limit values for a zero-length horizon: all entropies and rates are
    zero, the bound saturates, and the speed limit is the trivial tau >= 0."""
    values = {}
    if "entropy" in cfg.outputs:
        values.update(D_fwd=0.0, D_bwd=0.0, D_sym=0.0)
    if "bounds" in cfg.outputs:
        values.update(rhs_fwd=0.0, rhs_bwd=0.0, rhs_sym=0.0, delta_bound=0.0)
    if "qsl" in cfg.outputs:
        values.update(tau_fwd=0.0, tau_bwd=0.0, tau_sym=0.0, tau_qsl=0.0, delta_qsl=1.0)
    return values


def normalize_like_sweep(expected: list[dict]) -> None:
    """Min-max normalized error columns over the panel, rows in sweep order;
    a column without spread is left out."""
    for src, dst in (("delta_bound", "delta_bound_norm"), ("delta_qsl", "delta_qsl_norm")):
        rows = [v for v in expected if math.isfinite(v.get(src, math.nan))]
        try:
            normed = qsl.normalize_series([v[src] for v in rows])
        except DegenerateRangeError:
            continue
        for v, norm in zip(rows, normed):
            v[dst] = float(norm)


def exact(values: dict) -> dict:
    """Values keyed for bitwise comparison (repr round-trips floats, nan too)."""
    return {k: repr(float(v)) for k, v in values.items()}


# the bit-flip channel with flip probability 0.2, as a Kraus file
BIT_FLIP_FILE = str(Path(__file__).parent / "data" / "bit_flip.txt")

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
    # 8 intervals keep the half-grid gate, too coarse for most horizons
    "depolarizing_coarse": cli.SweepConfig(
        model="depolarizing", r=0.75, theta=1.0, gamma=1.0,
        alpha_grid=(0.05, 0.95, 5), time_grid=(0.0, 8.0, 5), n_steps=9,
        outputs=("entropy", "bounds", "qsl", "errors"),
    ),
    # 99 intervals: trapezoid rule, no gate
    "unitary_ungated": cli.SweepConfig(
        model="unitary_qubit", r=0.6, theta=1.1, n=(1.0, 0.3, 0.5),
        alpha_grid=(0.15, 0.85, 3), time_grid=(0.4, 2.0, 3), n_steps=100,
    ),
    "amplitude_damping_s10_coarse": cli.SweepConfig(
        model="amplitude_damping", lam=1.0, s=10.0, p=0.25,
        alpha_grid=(0.1, 0.9, 3), z_grid=(0.9, 1.0, 2), time_grid=(0.0, 12.0, 4),
        n_steps=17,
    ),
    # subsets of `outputs`: the bound group still runs for the entropy
    # columns, and a group or column not asked for is left out
    "subset_entropy": cli.SweepConfig(
        model="amplitude_damping", lam=1.0, s=10.0, p=0.9,
        alpha_grid=(0.1, 0.9, 3), time_grid=(0.0, 12.0, 4), n_steps=17,
        outputs=("entropy",),
    ),
    "subset_qsl": cli.SweepConfig(
        model="amplitude_damping", lam=1.0, s=10.0, p=0.9,
        alpha_grid=(0.1, 0.9, 3), z_grid=(0.9, 1.0, 2), time_grid=(0.0, 12.0, 4),
        n_steps=17, outputs=("qsl",),
    ),
    "subset_bounds_errors": cli.SweepConfig(
        model="depolarizing", r=0.75, theta=1.0, gamma=1.0,
        alpha_grid=(0.05, 0.95, 5), time_grid=(0.0, 8.0, 5), n_steps=101,
        outputs=("bounds", "errors"),
    ),
    # a user family: its horizons share their samples as the built-ins' do
    "custom_kraus_file": cli.SweepConfig(
        model="custom_kraus_file", kraus_file=BIT_FLIP_FILE, r=0.7, theta=0.3, phi=0.2,
        alpha_grid=(0.15, 0.85, 3), z_grid=(0.8, 1.0, 2), time_grid=(0.0, 3.0, 4), n_steps=101,
    ),
    # one live column: its grid alone fills the panel's sample store
    "one_live_column": cli.SweepConfig(
        model="amplitude_damping", lam=1.0, s=10.0, p=0.9,
        alpha_grid=(0.1, 0.9, 3), z_grid=(0.9, 1.0, 2), time_grid=(0.0, 2.5, 2), n_steps=101,
    ),
    "subset_entropy_qsl_errors": cli.SweepConfig(
        model="depolarizing", r=0.5, theta=0.7, gamma=0.5,
        alpha_grid=(0.1, 0.9, 4), time_grid=(0.0, 6.0, 4), n_steps=17,
        outputs=("entropy", "qsl", "errors"),
    ),
}


def grid_keys(cfg: cli.SweepConfig) -> list[tuple[float, float, float]]:
    """The (alpha, z, t) of every grid point in row order."""
    return [
        (float(a), float(z), float(t))
        for a in np.linspace(*cfg.alpha_grid)
        for z in np.linspace(*cfg.z_grid)
        for t in np.linspace(*cfg.time_grid)
    ]


def cells_of(cfg: cli.SweepConfig, panel: qsl.Panel):
    """((alpha, z, t), values, warnings, errors) of every panel cell in row
    order; values are those of the CSV columns the sweep renders."""
    columns = cli._output_columns(cfg, panel)
    for idx in np.ndindex(panel.warnings.shape):
        i, j, k = idx
        key = (float(panel.alphas[i]), float(panel.zs[j]), float(panel.times[k]))
        values = {col: arr[idx] for col, arr in columns.items()}
        errors = {g: describe(arr[idx]) for g, arr in panel.errors.items() if arr[idx] is not None}
        yield key, values, tuple(filter(None, panel.warnings[idx].split(";"))), errors


@pytest.mark.parametrize("name", sorted(PANELS))
def test_sweep_rows_equal_point_calls(name):
    cfg = PANELS[name]
    cells = list(cells_of(cfg, cli.sweep_rows(cfg)))
    keys = grid_keys(cfg)
    assert [cell[0] for cell in cells] == keys
    expected = [point_row(cfg, *key) for key in keys]
    if "errors" in cfg.outputs:
        normalize_like_sweep([values for values, _, _ in expected])
    for (key, got, got_warnings, got_errors), (values, warnings, errors) in zip(cells, expected):
        assert got_warnings == warnings, key
        # the panel keeps each failed cell's error, message included
        assert got_errors == errors, key
        # a value the point calls leave out is an empty (nan) panel cell
        assert set(values) <= set(got), key
        assert exact(got) == exact({col: values.get(col, math.nan) for col in got}), key


def test_cases_reach_their_failure_modes():
    tags = {
        name: [w for _, _, warnings, _ in cells_of(cfg, cli.sweep_rows(cfg)) for w in warnings]
        for name, cfg in PANELS.items()
    }
    assert "error:SupportViolationError" in tags["amplitude_damping_s10"]
    assert set(tags["pure_probe"]) == {"error:SingularStateError"}
    cfg = PANELS["errors_output"]
    assert {"delta_bound_norm", "delta_qsl_norm"} <= set(cli._output_columns(cfg, cli.sweep_rows(cfg)))
    assert tags["depolarizing_coarse"].count("error:QuadratureTooCoarseError") == 20
    assert tags["unitary_ungated"].count(qsl.WARN_QUAD_UNGATED) == 9


SUBSETS = sorted(name for name in PANELS if name.startswith("subset_"))


@pytest.mark.parametrize("name", SUBSETS)
def test_subset_csv_renders_only_asked_columns(name):
    """The CSV of an `outputs` subset keeps the full header and prints
    exactly the point calls' values of the asked-for groups; every other
    output cell is empty."""
    cfg = PANELS[name]
    text = cli.rows_to_csv([(cfg, cli.sweep_rows(cfg))])
    rows = list(csv.reader(io.StringIO(text)))
    norm = cli.NORM_COLUMNS if "errors" in cfg.outputs else []
    assert rows[0] == cli.BASE_COLUMNS + norm + ["warnings"]
    keys = grid_keys(cfg)
    expected = [point_row(cfg, *key) for key in keys]
    if "errors" in cfg.outputs:
        normalize_like_sweep([values for values, _, _ in expected])
    assert len(rows) == len(keys) + 1
    outputs = rows[0][14:-1]
    for row, key, (values, warnings, _) in zip(rows[1:], keys, expected):
        assert row[-1] == ";".join(warnings), key
        assert row[14:-1] == [cli._fmt(values.get(col, math.nan)) for col in outputs], key


def test_subset_norm_columns_follow_rendered_error_columns():
    cfg = PANELS["subset_entropy_qsl_errors"]
    for _, values, _, _ in cells_of(cfg, cli.sweep_rows(cfg)):
        assert "delta_qsl_norm" in values
        assert "delta_bound" not in values and "delta_bound_norm" not in values
    cfg = PANELS["subset_bounds_errors"]
    for _, values, _, _ in cells_of(cfg, cli.sweep_rows(cfg)):
        assert "delta_bound_norm" in values and "delta_qsl_norm" not in values
