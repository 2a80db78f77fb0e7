"""Command-line surface: single evaluations, (alpha, z, t) sweeps, figure
presets, CSV emission, and plot-script generation.

Sweeps write one CSV row per grid point, ordered by (alpha, z, t), with 17
significant digits and '\\n' line endings so identical configs produce
byte-identical files. Grid points that fail numerically degrade to rows
with empty numeric cells and an error flag in the warnings column; they
never abort the sweep.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import dynamics as dyn
from . import entropy as ent
from . import qsl
from .errors import (
    AzqslError,
    ConfigError,
    DegenerateRangeError,
    InvalidParamsError,
    MissingColumnError,
    _attempt,
)
from .states import (
    BlochVector,
    DensityMatrix,
    GHZMixedParams,
    bloch_state,
    ghz_mixed,
    load_state,
)

MODELS = ("unitary_qubit", "depolarizing", "amplitude_damping", "custom_kraus_file")
OUTPUT_GROUPS = ("entropy", "bounds", "qsl", "errors")
MAX_GRID_COUNT = 10_000


@dataclass(frozen=True)
class _Param:
    field: str  # its `SweepConfig` field, or the vector field holding it
    models: tuple[str, ...]  # the models whose CSV rows print it
    index: int | None = None  # its component of that vector field
    probe: bool = False  # it describes the built-in probe, which `state_file` replaces

    def value(self, cfg: SweepConfig) -> float:
        value = getattr(cfg, self.field)
        return value if self.index is None else value[self.index]


_BLOCH = ("unitary_qubit", "depolarizing")
# model parameter -> where it is kept and printed; each key is at once a
# config key, a single-point flag and a CSV column, in this order
PARAMS = {
    "r": _Param("r", _BLOCH, probe=True),
    "theta": _Param("theta", _BLOCH, probe=True),
    "phi": _Param("phi", _BLOCH, probe=True),
    "nx": _Param("n", ("unitary_qubit",), index=0),
    "ny": _Param("n", ("unitary_qubit",), index=1),
    "nz": _Param("n", ("unitary_qubit",), index=2),
    "gamma": _Param("gamma", ("depolarizing",)),
    "lambda": _Param("lam", ("amplitude_damping",)),
    "s": _Param("s", ("amplitude_damping",)),
    "p": _Param("p", ("amplitude_damping",), probe=True),
}

_KEY_COLUMNS = ["model", *PARAMS, "alpha", "z", "t"]
BASE_COLUMNS = _KEY_COLUMNS + [
    "D_fwd", "D_bwd", "D_sym",
    "rhs_fwd", "rhs_bwd", "rhs_sym",
    "tau_fwd", "tau_bwd", "tau_sym", "tau_qsl",
    "delta_bound", "delta_qsl",
]
NORM_COLUMNS = ["delta_bound_norm", "delta_qsl_norm"]


@dataclass(frozen=True)
class SweepConfig:
    """One sweep panel: a dynamics model plus (alpha, z, t) grids."""

    model: str = "depolarizing"
    r: float = 0.75
    theta: float = math.pi / 2
    phi: float = 0.0
    n: tuple[float, float, float] = (0.0, 0.0, 1.0)
    gamma: float = 1.0
    lam: float = 1.0
    s: float = 0.5
    p: float = 0.25
    alpha_grid: tuple[float, float, int] = (0.5, 0.5, 1)
    z_grid: tuple[float, float, int] = (1.0, 1.0, 1)
    time_grid: tuple[float, float, int] = (1.0, 1.0, 1)
    n_steps: int = 1001
    outputs: tuple[str, ...] = ("entropy", "bounds", "qsl")
    state_file: str | None = None
    kraus_file: str | None = None

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        for name, param in PARAMS.items():
            value = param.value(self)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("alpha_grid", "z_grid", "time_grid"):
            lo, hi, count = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{name} bounds must be finite, got [{lo}, {hi}]")
            if count < 1 or count > MAX_GRID_COUNT:
                raise ConfigError(f"{name} count {count} outside [1, {MAX_GRID_COUNT}]")
            if hi < lo:
                raise ConfigError(f"{name} has max {hi} < min {lo}")
        alo, ahi, _ = self.alpha_grid
        if alo <= 0.0 or ahi >= 1.0:
            raise ConfigError(f"alpha grid [{alo}, {ahi}] must lie inside (0, 1)")
        zlo, zhi, _ = self.z_grid
        if zlo <= 0.0 or zhi > 1.0:
            raise ConfigError(f"z grid [{zlo}, {zhi}] must lie inside (0, 1]")
        if self.time_grid[0] < 0.0:
            raise ConfigError("time grid must be nonnegative")
        if self.n_steps < 2:
            raise ConfigError(f"n_steps must be >= 2, got {self.n_steps}")
        unknown = set(self.outputs) - set(OUTPUT_GROUPS)
        if unknown:
            raise ConfigError(f"unknown outputs {sorted(unknown)}; choose from {OUTPUT_GROUPS}")
        if not set(self.outputs) & set(_GROUP_COLUMNS):
            raise ConfigError(f"outputs name no report group of {list(_GROUP_COLUMNS)}")
        if self.model == "custom_kraus_file" and not self.kraus_file:
            raise ConfigError("custom_kraus_file model requires kraus_file")


def parse_grid(text: str) -> tuple[float, float, int]:
    """Parse "min,max,count" (or colon-separated) into a grid triple."""
    parts = text.replace(":", ",").split(",")
    if len(parts) == 1:
        value = float(parts[0])
        return (value, value, 1)
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must be value or min,max,count")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


_CONFIG_KEYS = {
    "model": str,
    **dict.fromkeys(PARAMS, float),
    "alpha_grid": parse_grid, "z_grid": parse_grid, "time_grid": parse_grid,
    "n_steps": int,
    "outputs": lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
    "state_file": str, "kraus_file": str,
}


def _config_fields(base: SweepConfig | type[SweepConfig], items: dict) -> dict:
    """The `SweepConfig` fields these config keys set; a vector field's other
    components come from `base`."""
    out = {}
    for key, value in items.items():
        param = PARAMS.get(key) or _Param(key, ())  # any other key is a field
        if param.index is not None:
            vector = list(out.get(param.field, getattr(base, param.field)))
            vector[param.index] = value
            value = tuple(vector)
        out[param.field] = value
    return out


def _apply_config_item(cfg: SweepConfig, item: str, bad_item: str) -> SweepConfig:
    """`cfg` with the "key = value" `item` applied; `bad_item` is the error without "="."""
    if "=" not in item:
        raise ConfigError(bad_item)
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in _CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        parsed = _CONFIG_KEYS[key](value)
    except ValueError as exc:
        raise ConfigError(f"bad value {value!r} for {key}: {exc}") from exc
    return replace(cfg, **_config_fields(cfg, {key: parsed}))


def _with_overrides(cfg: SweepConfig, overrides: list[str] | None) -> SweepConfig:
    """Apply command-line key=value overrides, then validate."""
    for item in overrides or []:
        cfg = _apply_config_item(cfg, item, f"override {item!r} is not key=value")
    cfg.validate()
    return cfg


def load_config(path: str, overrides: list[str] | None = None) -> SweepConfig:
    """Flat key=value file plus command-line overrides."""
    cfg = SweepConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            cfg = _apply_config_item(cfg, line, f"bad config line {raw.strip()!r}")
    return _with_overrides(cfg, overrides)


def load_kraus_file(path: str) -> dyn.KrausFamily:
    """Constant Kraus family: header "n_ops dim", then n_ops blocks of dim^2
    lines "re im" in row-major order. Derivatives are identically zero."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ConfigError(f"cannot read kraus file {path}: {exc}") from exc
    if len(tokens) < 2:
        raise ConfigError("kraus file too short")
    try:
        n_ops, dim = int(tokens[0]), int(tokens[1])
        vals = np.array([float(t) for t in tokens[2:]])
    except ValueError as exc:
        raise ConfigError(f"kraus file {path}: {exc}") from exc
    if n_ops < 1 or dim < 1:
        raise ConfigError(f"kraus file {path}: header asks for {n_ops} operators of dim {dim}, "
                          "need at least one operator of dim >= 1")
    need = 2 + 2 * n_ops * dim * dim
    if len(tokens) != need:
        raise ConfigError(f"kraus file: expected {need} fields, found {len(tokens)}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"kraus file {path}: non-finite entry")
    return _ConstantFamily((vals[0::2] + 1j * vals[1::2]).reshape(n_ops, dim, dim))


class _ConstantFamily(dyn.KrausFamily):
    """The same operators at every time, with zero derivatives: its stacks
    are the one (n_ops, dim, dim) operator stack, and a zero one, repeated
    over a run's times, with no call per sample time."""

    def __init__(self, ops: np.ndarray):
        n_ops, dim, _ = ops.shape
        super().__init__(dim=dim, n_ops=n_ops, ops_fn=None, dops_fn=None)
        self._ops = ops

    def stacks(self, times: np.ndarray):
        K = np.repeat(self._ops[None], len(times), axis=0)
        return K, np.zeros_like(K)


def _probe_state(cfg: SweepConfig) -> DensityMatrix:
    if cfg.state_file:
        return load_state(cfg.state_file)
    if cfg.model == "amplitude_damping":
        return ghz_mixed(GHZMixedParams(cfg.p))
    return bloch_state(BlochVector(cfg.r, cfg.theta, cfg.phi))


def _probe_and_model(
    cfg: SweepConfig,
) -> tuple[DensityMatrix, dyn.HamiltonianModel | dyn.KrausFamily]:
    """The probe state and the model of a panel or a single point, whose
    dims must match. A model or probe parameter out of its range is a
    ConfigError; a bad state file stays an invalid probe."""
    try:
        rho0 = _probe_state(cfg)
        model = _model(cfg)
    except InvalidParamsError as exc:
        raise ConfigError(str(exc)) from exc
    if model.dim != rho0.dim:
        raise ConfigError(f"probe dim {rho0.dim} does not match model dim {model.dim}")
    return rho0, model


def _model(cfg: SweepConfig) -> dyn.HamiltonianModel | dyn.KrausFamily:
    """The panel's Kraus family, or its Hamiltonian for the unitary model."""
    if cfg.model == "depolarizing":
        return dyn.depolarizing_family(dyn.DepolarizingParams(cfg.gamma))
    if cfg.model == "amplitude_damping":
        return dyn.amplitude_damping_family(dyn.AmplitudeDampingParams(cfg.lam, cfg.s))
    if cfg.model == "custom_kraus_file":
        return load_kraus_file(cfg.kraus_file)
    return dyn.HamiltonianModel.qubit(cfg.n)


def _fmt(x: float) -> str:
    if x is None or math.isnan(x):
        return ""
    return f"{x:.17g}"


def _model_param_cells(cfg: SweepConfig) -> list[str]:
    """The model, then each parameter, blank where the row's model or probe does not use it."""
    return [cfg.model] + [
        _fmt(param.value(cfg))
        if cfg.model in param.models and not (param.probe and cfg.state_file) else ""
        for param in PARAMS.values()
    ]


# output group -> CSV columns; a column's report field is its lower-case name
_GROUP_COLUMNS = {
    "entropy": ("D_fwd", "D_bwd", "D_sym"),
    "bounds": ("rhs_fwd", "rhs_bwd", "rhs_sym", "delta_bound"),
    "qsl": ("tau_fwd", "tau_bwd", "tau_sym", "tau_qsl", "delta_qsl"),
}


def sweep_rows(cfg: SweepConfig) -> qsl.Panel:
    """Evaluate the panel on its (alpha, z, t) grid.

    Each nonzero time value is a time column: the trajectory of the probe
    (with its Kraus rates) on that horizon's grid (`dynamics._time_grid`).
    `dynamics._columns` evaluates every distinct sample time of the
    panel's grids once, into one sample store, and hands out each column's
    integral table (`qsl._integrator`) and states, and one `qsl._fill`
    call fills every column from them (see `qsl.Panel`); a grid or
    trajectory that fails fails only its own column. A single-point
    command evolves its one grid in one run without a store
    (`dynamics._evolve`), and gets the same samples. A zero horizon gives
    the stationary limit: all entropies and rates are zero, the bound
    saturates, and the speed limit is the trivial tau >= 0."""
    cfg.validate()
    rho0, model = _probe_and_model(cfg)
    alphas, zs, times = (np.linspace(*g) for g in (cfg.alpha_grid, cfg.z_grid, cfg.time_grid))
    want_bounds = "entropy" in cfg.outputs or "bounds" in cfg.outputs
    want_qsl = "qsl" in cfg.outputs
    groups = [g for g, want in (("bounds", want_bounds), ("qsl", want_qsl)) if want]
    panel = qsl.Panel(alphas, zs, times, groups)
    live = times != 0.0
    # a generator: `_columns` frees the grids before its runs
    grids = (_attempt(dyn._time_grid, t, cfg.n_steps) for t in times[live].tolist())
    integrate = qsl._integrator(alphas.tolist())
    qsl._fill(panel, dyn._columns(model, rho0, grids, want_qsl, integrate), live)
    return panel


def _output_columns(cfg: SweepConfig, panel: qsl.Panel) -> dict[str, np.ndarray]:
    """The panel's array of each CSV column that `cfg.outputs` asks for. With
    "errors", the rendered error columns also get min-max normalized copies
    over their finite values; a column without spread is left out."""
    columns = {col: panel.values[col.lower()]
               for out in cfg.outputs for col in _GROUP_COLUMNS.get(out, ())}
    if "errors" in cfg.outputs:
        for src in ("delta_bound", "delta_qsl"):
            if src not in columns:
                continue
            values = columns[src]
            finite = np.isfinite(values)
            try:
                normed = qsl.normalize_series(values[finite])
            except DegenerateRangeError:
                continue
            columns[src + "_norm"] = np.full(values.shape, math.nan)
            columns[src + "_norm"][finite] = normed
    return columns


def _fmt_column(values: np.ndarray) -> list[str]:
    """[_fmt(x) for x in values]: each distinct float, told apart by its bits
    (so -0.0 keeps its sign), formatted once, all in one "%.17g" call,
    which prints as f"{x:.17g}" does; a nan of any bits is ""."""
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    floats = bits.view(np.float64)
    shown = ~np.isnan(floats)
    texts = np.full(len(bits), "", dtype=object)
    texts[shown] = ("%.17g\n" * int(shown.sum()) % tuple(floats[shown].tolist())).split("\n")[:-1]
    return texts[inverse.ravel()].tolist()


# rows per rendered block: a block's cell texts are the largest objects of a
# render, so only one block's are alive at a time
_CSV_BLOCK_ROWS = 1000


def _csv_columns(cfgs: list[SweepConfig]) -> list[str]:
    """The CSV header of a run of these panels."""
    with_norm = any("errors" in cfg.outputs for cfg in cfgs)
    return BASE_COLUMNS + (NORM_COLUMNS if with_norm else []) + ["warnings"]


def rows_to_csv(panels: list[tuple[SweepConfig, qsl.Panel]]) -> str:
    """Render one or more panels as a single deterministic CSV string,
    column by column within each block of `_CSV_BLOCK_ROWS` rows."""
    columns = _csv_columns([cfg for cfg, _ in panels])
    blocks = []
    lines = [",".join(columns)]  # the header opens the first block
    for cfg, panel in panels:
        rendered = _output_columns(cfg, panel)
        params = ",".join(_model_param_cells(cfg))
        shape = panel.warnings.shape
        axes = (panel.alphas[:, None, None], panel.zs[None, :, None], panel.times[None, None, :])
        flat = [np.broadcast_to(axis, shape).ravel() for axis in axes]
        flat += [rendered[col].ravel() if col in rendered else None
                 for col in columns[len(_KEY_COLUMNS):-1]]
        warnings = panel.warnings.ravel()
        for start in range(0, warnings.size, _CSV_BLOCK_ROWS):
            rows = slice(start, min(start + _CSV_BLOCK_ROWS, warnings.size))
            m = rows.stop - start
            cells = [[params] * m]
            cells += [[""] * m if values is None else _fmt_column(values[rows]) for values in flat]
            cells.append(warnings[rows].tolist())
            lines += map(",".join, zip(*cells))
            del cells  # before the block's join
            lines.append("")  # each line's newline, the last one's included
            blocks.append("\n".join(lines))
            lines = []
    if lines:  # no rows: the header alone
        blocks.append(lines[0] + "\n")
    return "".join(blocks)


def run_sweep(cfg: SweepConfig) -> str:
    """CSV for a single-panel sweep."""
    return rows_to_csv([(cfg, sweep_rows(cfg))])


# --- figure presets ---------------------------------------------------------

# figure preset -> its panels. The captions fix the model parameters; the
# 100x100 grid resolution is a documented default since none is stated.
# fig3 and fig5 add the errors columns to fig2 and fig4, and fig6 is fig5.
_GRIDS = dict(alpha_grid=(0.01, 0.99, 100), z_grid=(1.0, 1.0, 1), time_grid=(0.0, 20.0, 100))
_DEPOLARIZING = [SweepConfig(model="depolarizing", r=0.75, gamma=1.0, **_GRIDS)]
_DAMPING = [SweepConfig(model="amplitude_damping", lam=1.0, s=s, p=p, **_GRIDS)
            for s in (0.5, 10.0) for p in (0.25, 0.9)]
FIGURES = {
    "fig2": _DEPOLARIZING,
    "fig3": [replace(cfg, outputs=cfg.outputs + ("errors",)) for cfg in _DEPOLARIZING],
    "fig4": _DAMPING,
    "fig5": [replace(cfg, outputs=cfg.outputs + ("errors",)) for cfg in _DAMPING],
    "fig6": [replace(cfg, outputs=cfg.outputs + ("errors",)) for cfg in _DAMPING],
}
_FIGURE_SPAN = f"{list(FIGURES)[0]}..{list(FIGURES)[-1]}"


def figure_panels(name: str) -> list[SweepConfig]:
    """A new list of the named preset's panels, which reproduce the
    published parameter grids."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose {_FIGURE_SPAN}")
    return list(FIGURES[name])


def run_figure(name: str) -> str:
    return rows_to_csv([(cfg, sweep_rows(cfg)) for cfg in figure_panels(name)])


# --- plot scripts ------------------------------------------------------------

# names enter a script as Python literals (`repr`), so the quotes and
# backslashes of a path keep their meaning
_HEATMAP_DOC = "Render {column} from {csv_name} as heatmaps (x = t, y = alpha)."
_HEATMAP_TEMPLATE = '''#!/usr/bin/env python3
{doc}
import csv
from collections import defaultdict

import matplotlib.pyplot as plt
import numpy as np

panels = defaultdict(dict)
with open({csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        cell = row[{column!r}]
        if cell in ("", "inf", "-inf"):
            continue
        key = (row["model"], row["s"], row["p"], row["r"])
        panels[key][(float(row["alpha"]), float(row["t"]))] = float(cell)

fig, axes = plt.subplots(1, max(len(panels), 1), squeeze=False, figsize=(6 * len(panels), 5))
for ax, (key, data) in zip(axes[0], sorted(panels.items())):
    alphas = sorted({{a for a, _ in data}})
    times = sorted({{t for _, t in data}})
    grid = np.full((len(alphas), len(times)), np.nan)
    for (a, t), v in data.items():
        grid[alphas.index(a), times.index(t)] = v
    im = ax.pcolormesh(times, alphas, grid, shading="nearest")
    ax.set_xlabel("t")
    ax.set_ylabel("alpha")
    ax.set_title(" ".join(filter(None, key)))
    fig.colorbar(im, ax=ax, label={column!r})
fig.tight_layout()
fig.savefig({out_name!r}, dpi=150)
print("wrote", {out_name!r})
'''

_LINE_DOC = "Plot {column} against t from {csv_name}, one curve per (panel, alpha)."
_LINE_TEMPLATE = '''#!/usr/bin/env python3
{doc}
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(list)
with open({csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        cell = row[{column!r}]
        if cell in ("", "inf", "-inf"):
            continue
        key = (row["model"], row["s"], row["p"], row["alpha"])
        curves[key].append((float(row["t"]), float(cell)))

fig, ax = plt.subplots(figsize=(7, 5))
for key, pts in sorted(curves.items()):
    pts.sort()
    ax.plot([t for t, _ in pts], [v for _, v in pts], label="alpha=" + key[3])
ax.set_xlabel("t")
ax.set_ylabel({column!r})
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig({out_name!r}, dpi=150)
print("wrote", {out_name!r})
'''


def emit_plot_script(csv_text: str, csv_name: str, kind: str, column: str) -> str:
    """Self-contained matplotlib script referencing the CSV by relative path."""
    header = csv_text.partition("\n")[0].split(",") if csv_text else []
    if column not in header:
        raise MissingColumnError(f"column {column!r} not in dataset header {header}")
    if kind not in ("heatmap", "line"):
        raise ConfigError(f"plot kind must be heatmap or line, got {kind!r}")
    doc, template = ((_HEATMAP_DOC, _HEATMAP_TEMPLATE) if kind == "heatmap"
                     else (_LINE_DOC, _LINE_TEMPLATE))
    out_name = os.path.splitext(csv_name)[0] + f"_{column}.png"
    return template.format(doc=repr(doc.format(csv_name=csv_name, column=column)),
                           csv_name=csv_name, column=column, out_name=out_name)


# --- single-point commands ----------------------------------------------------

def _cfg_from_args(args) -> SweepConfig:
    cfg = SweepConfig(
        model=args.model,
        **_config_fields(SweepConfig, {key: getattr(args, key) for key in PARAMS}),
        alpha_grid=(args.alpha, args.alpha, 1),
        z_grid=(args.z, args.z, 1),
        time_grid=(args.tau, args.tau, 1),
        n_steps=args.steps,
        state_file=args.state_file,
        kraus_file=args.kraus_file,
    )
    cfg.validate()
    if args.tau == 0.0:  # the stationary limit is a sweep's t = 0 row, not a command
        raise ConfigError("single-point commands need a positive horizon --tau, got 0")
    return cfg


def _print_report(pairs) -> None:
    for key, value in pairs:
        if isinstance(value, tuple):  # the warnings
            value = ";".join(value)
        print(f"{key} = {_fmt(value) if isinstance(value, float) else value}")


def _cmd_entropy(args) -> int:
    rho0, model = _probe_and_model(_cfg_from_args(args))
    # rho_tau from a three-sample trajectory
    rho_tau = dyn._evolve(model, rho0, dyn._time_grid(args.tau, 3), rates=False).final_state
    p = ent.EntropyParams(args.alpha, args.z)
    g = ent.relative_purity(rho_tau, rho0, p)
    d_fwd = ent.renyi_az(rho_tau, rho0, p)
    d_bwd = ent.renyi_az(rho0, rho_tau, p)
    _print_report([
        ("g", g), ("D_fwd", d_fwd), ("D_bwd", d_bwd), ("D_sym", d_fwd + d_bwd),
        ("dpi_valid", str(p.dpi_valid).lower()),
    ])
    return 0


# single-point command -> whether its trajectory takes Kraus rates, and
# the report it prints
_REPORTS = {"bound": (False, qsl.integrate_bounds), "qsl": (True, qsl.qsl_general)}


def _cmd_report(args) -> int:
    """`bound` or `qsl`: the report's fields in order, `d_*` as `D_*`."""
    rates, report_of = _REPORTS[args.command]
    cfg = _cfg_from_args(args)
    rho0, model = _probe_and_model(cfg)
    traj = dyn._evolve(model, rho0, dyn._time_grid(args.tau, cfg.n_steps), rates=rates)
    report = report_of(traj, ent.EntropyParams(args.alpha, args.z))
    _print_report([
        ("D_" + f.name[2:] if f.name.startswith("d_") else f.name, getattr(report, f.name))
        for f in fields(report)
    ])
    return 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _check_plot_column(args, cfgs: list[SweepConfig]) -> None:
    """With --plot, a --column the run's CSV will lack is a config error,
    found before any panel is evaluated."""
    columns = _csv_columns(cfgs)
    if args.plot and args.column not in columns:
        raise ConfigError(f"plot column {args.column!r} not in the CSV columns {columns}")


def _write_outputs(args, csv_text: str, default_out: str) -> int:
    """Write the CSV and, when asked, the plot script next to it."""
    out = args.out or default_out
    _write_text(out, csv_text)
    if args.plot:
        script = emit_plot_script(csv_text, out, args.plot, args.column)
        _write_text(os.path.splitext(out)[0] + "_plot.py", script)
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        cfg = load_config(args.config, args.set)
    else:
        cfg = _with_overrides(SweepConfig(), args.set)
    _check_plot_column(args, [cfg])
    return _write_outputs(args, run_sweep(cfg), "sweep.csv")


def _cmd_figure(args) -> int:
    _check_plot_column(args, figure_panels(args.name))
    return _write_outputs(args, run_figure(args.name), f"{args.name}.csv")


def _cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run(n_draws=args.draws)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    """The single-point flags, each defaulting to its `SweepConfig` value."""
    cfg = SweepConfig()
    sub.add_argument("--model", default=cfg.model, choices=MODELS)
    sub.add_argument("--alpha", type=float, default=cfg.alpha_grid[0])
    sub.add_argument("--z", type=float, default=cfg.z_grid[0])
    for key, param in PARAMS.items():
        sub.add_argument(f"--{key}", type=float, default=param.value(cfg))
    sub.add_argument("--tau", type=float, default=cfg.time_grid[0])
    sub.add_argument("--steps", type=int, default=cfg.n_steps)
    sub.add_argument("--state-file", default=cfg.state_file)
    sub.add_argument("--kraus-file", default=cfg.kraus_file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azqsl",
        description="Entropy bounds and entropic speed limits for small quantum systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("entropy", _cmd_entropy), ("bound", _cmd_report), ("qsl", _cmd_report)):
        sub = subs.add_parser(name, help=f"single-point {name} evaluation")
        _add_model_flags(sub)
        sub.set_defaults(func=fn)

    sweep = subs.add_parser("sweep", help="grid sweep to CSV")
    sweep.add_argument("--config", default=None, help="flat key=value config file")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    sweep.set_defaults(func=_cmd_sweep)

    figure = subs.add_parser("figure", help=f"built-in figure presets {_FIGURE_SPAN}")
    figure.add_argument("name", choices=tuple(FIGURES))
    figure.set_defaults(func=_cmd_figure)

    for sub in (sweep, figure):  # each writes a CSV and, with --plot, its script
        sub.add_argument("--out", default=None)
        sub.add_argument("--plot", choices=("heatmap", "line"), default=None)
        sub.add_argument("--column", default="tau_qsl")

    selftest = subs.add_parser("selftest", help="oracle cross-checks")
    selftest.add_argument("--draws", type=int, default=100)
    selftest.set_defaults(func=_cmd_selftest)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: each parser is a
    reference cycle, left for the cyclic collector when dropped."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except AzqslError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
