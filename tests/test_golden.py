"""Reduced-grid goldens for the fig2 and fig4 presets.

The presets run on coarser (alpha, t) grids with their own horizon, probes
and 1001-sample trajectories: fig2 on 20 alphas x 21 times, the four fig4
panels on 10 alphas x 11 times (the s = 10 panels keep their late-time rows
whose speed-limit group fails with SupportViolationError). Every cell is
compared with the checked-in CSV: the warnings column and all text cells
exactly, numeric cells at a relative tolerance of 1e-12.

Regenerate the goldens, only for a change that moves the outputs on purpose,
from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest

from azqsl import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
CASES = {
    "fig2_20x21.csv": ("fig2", (0.01, 0.99, 20), (0.0, 20.0, 21)),
    "fig4_10x11.csv": ("fig4", (0.01, 0.99, 10), (0.0, 20.0, 11)),
}


def render(name: str) -> str:
    figure, alpha_grid, time_grid = CASES[name]
    panels = [
        replace(cfg, alpha_grid=alpha_grid, time_grid=time_grid)
        for cfg in cli.figure_panels(figure)
    ]
    return cli.rows_to_csv([(cfg, cli.sweep_rows(cfg)) for cfg in panels])


def _as_number(cell: str):
    if cell in ("", "inf", "-inf"):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def cell_mismatches(got_text: str, want_text: str) -> list[str]:
    got = list(csv.reader(io.StringIO(got_text)))
    want = list(csv.reader(io.StringIO(want_text)))
    if got[0] != want[0]:
        return [f"header {got[0]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, golden has {len(want) - 1}"]
    header = want[0]
    bad = []
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for col, g, w in zip(header, g_row, w_row):
            w_num, g_num = _as_number(w), _as_number(g)
            if col == "warnings" or w_num is None or g_num is None:
                same = g == w
            else:
                same = math.isclose(g_num, w_num, rel_tol=RTOL, abs_tol=0.0)
            if not same:
                bad.append(f"line {line} {col}: {g!r} != golden {w!r}")
    return bad


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    bad = cell_mismatches(render(name), want)
    assert not bad, f"{len(bad)} cells differ; first: " + "; ".join(bad[:5])


def test_fig4_golden_keeps_failing_rows():
    text = (GOLDEN_DIR / "fig4_10x11.csv").read_text()
    assert "error:SupportViolationError" in text


def test_comparison_catches_a_moved_cell():
    text = (GOLDEN_DIR / "fig2_20x21.csv").read_text()
    lines = text.split("\n")
    col = lines[0].split(",").index("rhs_fwd")
    cells = lines[2].split(",")  # t = 1, the first row past the stationary one
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-11))
    lines[2] = ",".join(cells)
    assert len(cell_mismatches("\n".join(lines), text)) == 1


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN_DIR / case).write_text(render(case), newline="\n")
        print(f"wrote {GOLDEN_DIR / case}")
