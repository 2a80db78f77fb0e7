"""The panel layer of a sweep: column-wise CSV rendering, the one fill of
a panel, and the work they save.

`cli.rows_to_csv` renders in blocks of rows and formats each distinct float
of a column once per block of rows, so its renderer must print exactly what
the cell formatter prints for every float, signed zeros, infinities, nans
and subnormals included, and must tell apart floats one ulp apart; the text
must not depend on the block size, and a render holds one block's cell
texts at a time. h(rho_0; alpha, z) does not depend on t, so a sweep
computes it once per (alpha, z) for the whole panel.

`qsl._fill` fills every (alpha, z, t) cell of a panel in one call, with
array arithmetic over the cells and batched endpoint entropies. A cell must
not depend on the cells it is batched with: a panel over any subset of the
time columns, alphas and zs gives the same bits, errors and warnings in
its cells as the full panel and as the one-point `integrate_bounds` and
`qsl_general` calls.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from azqsl import cli, qsl
from azqsl import dynamics as dyn
from azqsl import entropy as ent
from azqsl.entropy import EntropyParams
from azqsl.errors import AzqslError, InvalidParamsError
from azqsl.states import BlochVector, GHZMixedParams, bloch_state, ghz_mixed
from helpers import trajectory_columns

SPECIALS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1.0 / 3.0,
]


def _ulp_pair(x: float) -> list[float]:
    return [x, math.nextafter(x, math.inf)]


columns = st.lists(
    st.one_of(
        st.sampled_from(SPECIALS).map(lambda x: [x]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(lambda x: [x]),
        st.floats(allow_nan=False, allow_infinity=False).map(_ulp_pair),
        st.sampled_from(SPECIALS[:-2]).map(_ulp_pair),
    ),
    max_size=40,
).map(lambda parts: [x for part in parts for x in part])


@seed(20250606)
@settings(max_examples=300, database=None, deadline=None)
@given(columns)
def test_column_renderer_equals_cell_formatter(col):
    assert cli._fmt_column(np.array(col, dtype=float)) == [cli._fmt(x) for x in col]


_SIGN, _EXPONENT = 1 << 63, 0x7FF << 52

# any float64 bit pattern, and more often: nans with any payload, zeros
# and subnormals, and the infinities, each of either sign
float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
        lambda p: p[0] * _SIGN | _EXPONENT | p[1]),
    st.tuples(st.booleans(), st.integers(0, 2**52 - 1)).map(lambda p: p[0] * _SIGN | p[1]),
    st.sampled_from([_EXPONENT, _SIGN | _EXPONENT]),
)


@seed(20261019)
@settings(max_examples=300, database=None, deadline=None)
@given(st.lists(float_bits, max_size=60))
def test_column_renderer_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    want = ["" if math.isnan(x) else f"{x:.17g}" for x in values.tolist()]
    assert cli._fmt_column(values) == want


def test_column_renderer_keeps_signed_zero():
    # ln(1) / (alpha - 1) is -0.0, and -0.0 == 0.0 hash alike
    assert cli._fmt_column(np.array([0.0, -0.0, 0.0])) == ["0", "-0", "0"]


# --- rendering in blocks of rows ------------------------------------------------

ALL_OUTPUTS = ("entropy", "bounds", "qsl", "errors")
WARNING_CELLS = np.array([
    "", "chain_sign", "error:SupportViolationError",
    "error:QuadratureTooCoarseError;chain_sign", "loose_bound;chain_sign",
], dtype=object)


def random_panel(rng, shape, specials: bool) -> qsl.Panel:
    """A hand-filled panel of both groups: random floats in every report
    field and, with `specials`, nan, +-inf and -0.0 cells and error-tagged
    warnings."""
    panel = qsl.Panel(*(np.sort(rng.uniform(0.0, 20.0, n)) for n in shape), ["bounds", "qsl"])
    for values in panel.values.values():
        values[...] = rng.random(shape)
        if specials:
            values[...] *= 10.0 ** rng.integers(-20, 20, shape)
            cells = values.reshape(-1)
            for special in (math.nan, math.inf, -math.inf, -0.0):
                cells[rng.integers(0, cells.size, max(cells.size // 6, 1))] = special
    if specials:
        panel.warnings[...] = WARNING_CELLS[rng.integers(0, len(WARNING_CELLS), shape)]
    return panel


@pytest.mark.parametrize("n_rows", [6, 7, 8, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                                    cli._CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("block", [1, 7, cli._CSV_BLOCK_ROWS])
def test_blocks_of_rows_render_the_same_text(monkeypatch, block, n_rows):
    """The CSV text does not depend on the block size: two panels with
    `_norm` columns, special cells and error-tagged warnings, with row
    counts below, at and one past a block, render as one whole block."""
    rng = np.random.default_rng(n_rows)
    panels = [
        (cli.SweepConfig(outputs=ALL_OUTPUTS), random_panel(rng, (n_rows, 1, 1), True)),
        (cli.SweepConfig(model="amplitude_damping", s=10.0, outputs=ALL_OUTPUTS),
         random_panel(rng, (3, 2, 4), True)),
    ]
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 10**9)
    whole = cli.rows_to_csv(panels)
    lines = whole.split("\n")
    assert lines[0].split(",")[-3:] == cli.NORM_COLUMNS + ["warnings"]
    assert len(lines) == 1 + n_rows + 24 + 1 and lines[-1] == ""
    cells = {cell for line in lines[1:] for cell in line.split(",")}
    assert {"", "inf", "-inf", "-0", "error:SupportViolationError"} <= cells
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
    assert cli.rows_to_csv(panels) == whole


@pytest.mark.parametrize("shape, bound", [((100, 1, 200), 2.5), ((10, 1, 41), 4.5)])
def test_render_peak_memory_is_a_small_multiple_of_the_text(shape, bound):
    """Rendering holds one block's cell texts at a time: a 20 000-row panel
    of random floats peaks at no more than 2.5 times its text (the joined
    blocks and the result), and a 410-row panel, one block, at 4.5 times."""
    panels = [(cli.SweepConfig(), random_panel(np.random.default_rng(11), shape, False))]
    cli.rows_to_csv(panels)  # first-call allocations are not the renderer's
    tracemalloc.start()
    try:
        text = cli.rows_to_csv(panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + math.prod(shape)
    assert peak <= bound * len(text), peak / len(text)


def test_h_computed_once_per_alpha_z(monkeypatch):
    """On the fig2 golden grid (20 alphas, one z, 20 nonzero times) a panel
    computes h at alpha and at 1 - alpha once per (alpha, z)."""
    calls = []
    h_func = qsl.h_func

    def counted(rho0, p):
        calls.append((p.alpha, p.z))
        return h_func(rho0, p)

    monkeypatch.setattr(qsl, "h_func", counted)
    (cfg,) = cli.figure_panels("fig2")
    cli.sweep_rows(replace(cfg, alpha_grid=(0.01, 0.99, 20), time_grid=(0.0, 20.0, 21)))
    assert len(calls) == 2 * 20


# --- one fill per panel -------------------------------------------------------

FIG4_AD = dict(alpha_grid=(0.01, 0.99, 25), time_grid=(0.0, 20.0, 41))


def test_fig4_ad_panel_checks_each_sample_once(monkeypatch):
    """A fig4_ad-shaped panel (40 horizons of 1001 samples) checks each of
    its 19 970 distinct samples once, not the 40 040 its horizons hold;
    validates its probe state once and each of the 40 end states once;
    and makes dense only the states it validates, building no
    trajectory."""
    checked, validated, dense = [], [], []
    failing, density_matrix, to_dense = dyn._failing_samples, dyn.DensityMatrix, dyn._dense
    monkeypatch.setattr(dyn, "_failing_samples",
                        lambda s, dim: checked.append(len(s.speeds)) or failing(s, dim))
    monkeypatch.setattr(dyn, "DensityMatrix",
                        lambda m: validated.append(m.tobytes()) or density_matrix(m))

    def recording(*args):
        states = to_dense(*args)
        dense.extend(m.tobytes() for m in states)
        return states

    monkeypatch.setattr(dyn, "_dense", recording)
    monkeypatch.setattr(dyn, "Trajectory", None)  # building one would fail
    cfg = replace(cli.figure_panels("fig4")[3], **FIG4_AD)  # s = 10, p = 0.9
    panel = cli.sweep_rows(cfg)
    assert sum(checked) == 19970
    # the probe and the 40 end states, each matrix once
    assert len(validated) == len(set(validated)) == 1 + 40
    assert sorted(dense) == sorted(validated)
    assert (panel.errors["qsl"] != None).any()  # noqa: E711 - the panel was filled


def test_fig4_ad_panel_writes_no_dense_stack(monkeypatch):
    """From the closed forms to the sample store, a fig4_ad-shaped panel
    holds its operators, products and states entry by entry: no gathered
    stack is scattered, and states are made dense only at its 41 end-state
    samples (t = 0 and each horizon)."""
    dense, to_dense = [], dyn._dense
    monkeypatch.setattr(dyn, "_scatter", lambda *args: pytest.fail("_scatter called"))
    monkeypatch.setattr(dyn, "_dense", lambda positions, values, dim: dense.append(
        values.shape[1]) or to_dense(positions, values, dim))
    cfg = replace(cli.figure_panels("fig4")[3], **FIG4_AD)  # s = 10, p = 0.9
    assert (cli.sweep_rows(cfg).errors["qsl"] != None).any()  # noqa: E711
    assert sum(dense) == 41


def test_panel_fills_in_one_call(monkeypatch):
    calls = []
    fill = qsl._fill
    monkeypatch.setattr(qsl, "_fill", lambda *args: calls.append(args) or fill(*args))
    (cfg,) = cli.figure_panels("fig2")
    cli.sweep_rows(replace(cfg, alpha_grid=(0.01, 0.99, 5), time_grid=(0.0, 20.0, 6)))
    assert len(calls) == 1


def handmade(first, last, speeds) -> dyn.Trajectory:
    """Nine samples on [0, 1]: `first` for every state but the last, which
    is `last`, with the given Schatten speeds and Kraus rates and k_min
    0.2."""
    states = np.array([first] * 8 + [last], dtype=complex)
    speeds = np.asarray(speeds, dtype=float)
    return dyn.Trajectory(np.linspace(0.0, 1.0, 9), states, speeds, np.full(9, 0.2), speeds)


MIXED, OTHER, PURE = np.diag([0.7, 0.3]), np.diag([0.4, 0.6]), np.diag([1.0, 0.0])
NOT_PSD = np.diag([1.1, -0.1])

# name -> (model and probe, or the columns themselves; alphas; zs; times);
# each reaches one special path of the fill (`test_kinds_reach_their_paths`)
KINDS = {
    # tiny z: sandwiched cores with an unresolved smallest eigenvalue take
    # the determinant reconstruction
    "unresolved_core": ((dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 0.5)),
                         ghz_mixed(GHZMixedParams(0.9))),
                        (0.05, 0.95, 4), (0.05, 0.3, 3), (0.0, 12.0, 4)),
    # the amplitude of s = 10 crosses zero: late states are singular
    "support_violation": ((dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(1.0, 10.0)),
                           ghz_mixed(GHZMixedParams(0.25))),
                          (0.1, 0.9, 3), (0.8, 1.0, 2), (0.0, 16.0, 5)),
    # states that jump without moving, a column that failed, an end state
    # that is not a state, and a clean column
    "zero_speed_and_failed": ([
        handmade(MIXED, OTHER, np.zeros(9)),
        InvalidParamsError("no trajectory to this horizon"),
        handmade(MIXED, PURE, np.zeros(9)),
        handmade(MIXED, NOT_PSD, np.ones(9)),
        handmade(MIXED, OTHER, np.full(9, 0.3)),
    ], (0.2, 0.8, 3), (0.6, 1.0, 2), None),
}
N_STEPS = 33


def kind_columns(name: str, picked: list[int]):
    """The time values, columns and per-column trajectories (or errors) of
    the time columns `picked` of a kind, in order."""
    source, _, _, grid = KINDS[name]
    if grid is None:
        trajs = [source[k] for k in picked]
        return np.ones(len(picked)), trajectory_columns(trajs), trajs
    model, rho0 = source
    times = np.linspace(*grid)[picked]
    live = times != 0.0
    trajs = [None if t == 0.0 else dyn.evolve_kraus(model, rho0, t, N_STEPS, rates=True)
             for t in times.tolist()]
    cols = dyn._columns(*dyn._outcomes(model, rho0, times[live].tolist(), N_STEPS, True))
    return times, cols, trajs


def kind_panel(name: str, alphas: list[int], zs: list[int], picked: list[int]):
    """The panel of a kind over the given alpha, z and time indices, and
    the trajectory (or error, or None at t = 0) of each of its columns."""
    _, alpha_grid, z_grid, _ = KINDS[name]
    times, cols, trajs = kind_columns(name, picked)
    panel = qsl.Panel(np.linspace(*alpha_grid)[alphas], np.linspace(*z_grid)[zs], times,
                      ["bounds", "qsl"])
    qsl._fill(panel, cols, times != 0.0 if KINDS[name][3] else np.ones(len(times), bool))
    return panel, trajs


def cell(panel, idx) -> tuple:
    """A cell's values (by their bits), errors (class and message) and
    warnings."""
    values = tuple(arr[idx].tobytes() for arr in panel.values.values())
    errors = tuple(None if e[idx] is None else (type(e[idx]), str(e[idx]))
                   for e in panel.errors.values())
    return values, errors, panel.warnings[idx]


def point_cell(traj, alpha: float, z: float) -> tuple:
    """`cell` of the one-point calls at (alpha, z) along a trajectory, a
    failed column's error, or the stationary limit (None)."""
    values, errors, tags = [], [], []
    for group, fn in (("bounds", qsl.integrate_bounds), ("qsl", qsl.qsl_general)):
        fields = qsl._GROUP_FIELDS[group]
        if traj is None:
            limit = dict.fromkeys(fields, 0.0) | ({"delta_qsl": 1.0} if group == "qsl" else {})
            values += [np.float64(limit[f]).tobytes() for f in fields]
            errors.append(None)
            continue
        try:
            report = traj if isinstance(traj, AzqslError) else fn(traj, EntropyParams(alpha, z))
            if isinstance(report, AzqslError):
                raise report
        except AzqslError as exc:
            values += [np.float64(math.nan).tobytes()] * len(fields)
            errors.append((type(exc), str(exc)))
            own = (f"error:{type(exc).__name__}",)
        else:
            values += [np.float64(getattr(report, f)).tobytes() for f in fields]
            errors.append(None)
            own = report.warnings
        tags += [w for w in own if w not in tags]
    return tuple(values), tuple(errors), ";".join(tags)


def subsets(n: int):
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted)


@st.composite
def panel_subsets(draw):
    name = draw(st.sampled_from(sorted(KINDS)))
    source, alpha_grid, z_grid, grid = KINDS[name]
    n_times = len(source) if grid is None else grid[2]
    return name, draw(subsets(alpha_grid[2])), draw(subsets(z_grid[2])), draw(subsets(n_times))


@seed(20261019)
@settings(max_examples=40, database=None, deadline=None)
@given(panel_subsets())
def test_cells_do_not_depend_on_their_batch(case):
    name, alphas, zs, picked = case
    _, alpha_grid, z_grid, grid = KINDS[name]
    n_times = len(KINDS[name][0]) if grid is None else grid[2]
    full, _ = kind_panel(name, list(range(alpha_grid[2])), list(range(z_grid[2])),
                         list(range(n_times)))
    part, trajs = kind_panel(name, alphas, zs, picked)
    for i, a in enumerate(alphas):
        for j, z in enumerate(zs):
            for k, t in enumerate(picked):
                got = cell(part, (i, j, k))
                assert got == cell(full, (a, z, t)), (name, a, z, t)
                assert got == point_cell(trajs[k], float(part.alphas[i]), float(part.zs[j])), (
                    name, a, z, t)


def test_kinds_reach_their_paths(monkeypatch):
    # _zpow_trace reconstructs a core's one unresolved eigenvalue from the
    # determinant
    reconstructions = []
    zpow = ent._zpow_trace

    def counted(vals, *rest):
        if np.count_nonzero(vals < ent._ZPOW_NOISE_REL * vals[-1]) == 1:
            reconstructions.append(vals)
        return zpow(vals, *rest)

    monkeypatch.setattr(ent, "_zpow_trace", counted)
    tags = {}
    for name, (source, alpha_grid, z_grid, grid) in KINDS.items():
        n_times = len(source) if grid is None else grid[2]
        panel, _ = kind_panel(name, list(range(alpha_grid[2])), list(range(z_grid[2])),
                              list(range(n_times)))
        tags[name] = {w for cell_tags in panel.warnings.ravel() for w in cell_tags.split(";")}
        if name == "unresolved_core":
            assert reconstructions
    assert "error:SupportViolationError" in tags["support_violation"]
    assert {"error:ZeroSpeedError", "error:InvalidParamsError",
            "error:InvalidStateError"} <= tags["zero_speed_and_failed"]
