"""Reduced-grid goldens for the fig2 and fig4 presets, and the exact
output of the single-point commands.

The presets run on coarser (alpha, t) grids with their own horizon, probes
and 1001-sample trajectories: fig2 on 20 alphas x 21 times, the four fig4
panels on 10 alphas x 11 times (the s = 10 panels keep their late-time rows
whose speed-limit group fails with SupportViolationError). A unitary qubit
panel covers the (alpha, z) plane: 10 alphas x 3 z values x 6 times. Every cell is
compared with the checked-in CSV: the warnings column and all text cells
exactly, numeric cells at a relative tolerance of 1e-12.

The single-point golden `points.txt` holds the stdout, stderr and exit
code of `azqsl entropy`, `bound` and `qsl` for a fixed list of cases and is
compared byte for byte.

Regenerate the goldens, only for a change that moves the outputs on purpose,
from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py

This rewrites a CSV golden only when its header or row count changed or a
cell moved beyond the test tolerance, so a host's last bits are not
committed, and `points.txt` only when it differs; it prints each file it
wrote.

With `--diff` the script writes nothing and prints, per CSV golden and
column, the largest relative move of a cell and the number of cells that
moved, and the number of lines of `points.txt` that differ.

With `--md5` it writes nothing and prints the md5 of the full-preset CSVs
that `azqsl figure fig2`, `fig3` and `fig4` write, and of a user Kraus
family's sweep (`BIT_FLIP_SWEEP`), in `md5sum` format, so two checkouts on
one host can be compared byte for byte.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from azqsl import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# the sweep of the bit-flip file family on the figure grid, as
#   azqsl sweep --set model=custom_kraus_file --set kraus_file=tests/data/bit_flip.txt
#     --set alpha_grid=0.01,0.99,100 --set time_grid=0,20,100
BIT_FLIP_SWEEP = cli.SweepConfig(
    model="custom_kraus_file",
    kraus_file=str(Path(__file__).resolve().parent / "data" / "bit_flip.txt"),
    alpha_grid=(0.01, 0.99, 100), time_grid=(0.0, 20.0, 100),
)
RTOL = 1e-12


def reduced(figure: str, alpha_grid, time_grid) -> list[cli.SweepConfig]:
    """The panels of a figure preset on coarser alpha and time grids."""
    return [replace(cfg, alpha_grid=alpha_grid, time_grid=time_grid)
            for cfg in cli.figure_panels(figure)]


# golden file -> the panels it holds
CASES = {
    "fig2_20x21.csv": reduced("fig2", (0.01, 0.99, 20), (0.0, 20.0, 21)),
    "fig4_10x11.csv": reduced("fig4", (0.01, 0.99, 10), (0.0, 20.0, 11)),
    # the unitary qubit over alpha and z, as
    #   azqsl sweep --set model=unitary_qubit --set r=0.6 --set theta=1.2 --set phi=0.3
    #     --set nx=1 --set nz=0.5 --set alpha_grid=0.01,0.99,10 --set z_grid=0.6,1,3
    #     --set time_grid=0,20,6
    "unitary_az_10x3x6.csv": [cli.SweepConfig(
        model="unitary_qubit", r=0.6, theta=1.2, phi=0.3, n=(1.0, 0.0, 0.5),
        alpha_grid=(0.01, 0.99, 10), z_grid=(0.6, 1.0, 3), time_grid=(0.0, 20.0, 6),
    )],
}


def render(name: str) -> str:
    return cli.rows_to_csv([(cfg, cli.sweep_rows(cfg)) for cfg in CASES[name]])


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


def column_moves(got_text: str, want_text: str) -> dict[str, tuple[float, int]]:
    """Per column, the largest relative move of a cell and the number of
    cells that moved; a changed text cell counts as an infinite move. The
    two texts must have the same header and row count."""
    got = list(csv.reader(io.StringIO(got_text)))
    want = list(csv.reader(io.StringIO(want_text)))
    moves = {col: (0.0, 0) for col in want[0]}
    for g_row, w_row in zip(got[1:], want[1:]):
        for col, g, w in zip(want[0], g_row, w_row):
            if g == w:
                continue
            g_num, w_num = _as_number(g), _as_number(w)
            if col == "warnings" or g_num is None or w_num is None:
                rel = math.inf
            else:
                rel = abs(g_num - w_num) / abs(w_num) if w_num else math.inf
            largest, count = moves[col]
            moves[col] = (max(largest, rel), count + 1)
    return moves


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    bad = cell_mismatches(render(name), want)
    assert not bad, f"{len(bad)} cells differ; first: " + "; ".join(bad[:5])


POINT_COMMANDS = ("entropy", "bound", "qsl")
KRAUS_FILE = "KRAUS_FILE"  # stands for a bit-flip family written at run time
POINT_CASES = [
    ["--model", "depolarizing", "--r", "0.75", "--alpha", "0.4", "--z", "1", "--tau", "3"],
    ["--model", "depolarizing", "--r", "0.6", "--theta", "0.9", "--phi", "0.4",
     "--alpha", "0.3", "--z", "0.8", "--tau", "2"],
    ["--model", "amplitude_damping", "--p", "0.25", "--s", "0.5", "--alpha", "0.4", "--tau", "2"],
    ["--model", "amplitude_damping", "--p", "0.25", "--s", "10", "--alpha", "0.4", "--tau", "17"],
    ["--model", "unitary_qubit", "--r", "0.6", "--theta", "1.2", "--phi", "0.3",
     "--nx", "1", "--nz", "0.5", "--alpha", "0.35", "--tau", "0.9"],
    ["--model", "depolarizing", "--r", "1.0", "--alpha", "0.4", "--tau", "1"],
    ["--model", "custom_kraus_file", "--kraus-file", KRAUS_FILE, "--r", "0.7", "--theta", "0",
     "--alpha", "0.45", "--tau", "1"],
    ["--model", "depolarizing", "--r", "0.75", "--alpha", "0.3", "--tau", "2", "--steps", "1000"],
]


def render_points(workdir: Path) -> str:
    """Every single-point case as `$ azqsl <args>`, its exit code, stdout
    and stderr."""
    kraus = workdir / "bitflip.txt"
    a, b = math.sqrt(0.8), math.sqrt(0.2)
    kraus.write_text(f"2 2\n{a!r} 0\n0 0\n0 0\n{a!r} 0\n0 0\n{b!r} 0\n{b!r} 0\n0 0\n")
    blocks = []
    for case in POINT_CASES:
        for command in POINT_COMMANDS:
            argv = [command] + [str(kraus) if arg == KRAUS_FILE else arg for arg in case]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            blocks.append(
                f"$ azqsl {' '.join([command] + case)}\nexit {code}\n"
                f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"
            )
    return "\n".join(blocks)


def test_single_point_commands_match_golden(tmp_path):
    """Regenerate with `PYTHONPATH=src python tests/test_golden.py`."""
    assert render_points(tmp_path) == (GOLDEN_DIR / "points.txt").read_text()


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


def regenerate() -> list[Path]:
    """Rewrite each golden whose output changed, as the module docstring
    says, and return the files written."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: render(name) for name in CASES} | {"points.txt": render_points(Path(tmp))}
    written = []
    for name, got in outputs.items():
        path = GOLDEN_DIR / name
        want = path.read_text() if path.exists() else None
        if want is None or (cell_mismatches(got, want) if name in CASES else got != want):
            path.write_text(got, newline="\n")
            written.append(path)
    return written


def test_regeneration_writes_only_moved_goldens(tmp_path, monkeypatch):
    # the committed goldens in a temporary GOLDEN_DIR, with outputs that
    # move a cell by one part in 1e14 (within RTOL)
    goldens = {name: (GOLDEN_DIR / name).read_text() for name in [*CASES, "points.txt"]}
    for name, text in goldens.items():
        (tmp_path / name).write_text(text, newline="\n")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)

    def moved(text: str, scale: float) -> str:
        lines = text.split("\n")
        cells = lines[2].split(",")
        col = lines[0].split(",").index("rhs_fwd")
        cells[col] = repr(float(cells[col]) * scale)
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    outputs = {name: moved(goldens[name], 1.0 + 1e-14) for name in CASES}
    points = goldens["points.txt"]
    monkeypatch.setattr(sys.modules[__name__], "render", lambda name: outputs[name])
    monkeypatch.setattr(sys.modules[__name__], "render_points", lambda workdir: points)
    assert regenerate() == []
    assert {name: (tmp_path / name).read_text() for name in goldens} == goldens
    # a cell moved beyond RTOL and a changed points.txt are written
    outputs["fig4_10x11.csv"] = moved(goldens["fig4_10x11.csv"], 1.0 + 1e-11)
    points = goldens["points.txt"] + "\n"
    assert regenerate() == [tmp_path / "fig4_10x11.csv", tmp_path / "points.txt"]
    assert (tmp_path / "fig4_10x11.csv").read_text() == outputs["fig4_10x11.csv"]
    assert (tmp_path / "fig2_20x21.csv").read_text() == goldens["fig2_20x21.csv"]
    assert (tmp_path / "points.txt").read_text() == points


def print_diff() -> None:
    for case in CASES:
        want = (GOLDEN_DIR / case).read_text()
        got = render(case)
        got_lines, want_lines = got.splitlines(), want.splitlines()
        if got_lines[0] != want_lines[0] or len(got_lines) != len(want_lines):
            print(f"{case}: the header or the row count differs")
            continue
        moves = {col: m for col, m in column_moves(got, want).items() if m[1]}
        print(f"{case}: {len(moves) or 'no'} columns moved")
        for col, (largest, count) in moves.items():
            print(f"  {col:<12} {count:>6} cells, largest relative move {largest:.2e}")
    with tempfile.TemporaryDirectory() as tmp:
        got = render_points(Path(tmp)).split("\n")
    want = (GOLDEN_DIR / "points.txt").read_text().split("\n")
    moved = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    print(f"points.txt: {moved} of {len(want)} lines differ")


def print_md5() -> None:
    for name in ("fig2", "fig3", "fig4"):
        digest = hashlib.md5(cli.run_figure(name).encode()).hexdigest()
        print(f"{digest}  {name}.csv")
    digest = hashlib.md5(cli.run_sweep(BIT_FLIP_SWEEP).encode()).hexdigest()
    print(f"{digest}  bit_flip.csv")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or compare the goldens.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--diff", action="store_true",
                      help="print the moves against the committed goldens; write nothing")
    mode.add_argument("--md5", action="store_true",
                      help="print the md5 of the full-preset fig2, fig3 and fig4 CSVs "
                           "and of the bit-flip file family's sweep; write nothing")
    args = parser.parse_args()
    if args.diff:
        print_diff()
    elif args.md5:
        print_md5()
    else:
        written = regenerate()
        for path in written:
            print(f"wrote {path}")
        if not written:
            print("no golden changed")
