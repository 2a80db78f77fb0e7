"""Output checks behind `wrong_frac`, and failure accounting per output
group.

Sweep CSVs are checked three ways: `D_fwd` of the depolarizing preset
against the closed-form oracle, the bound inequalities `D_sym <= rhs_sym`
and `tau_qsl <= t` on every row whose `D_sym` is finite, and a stored sample
of reference rows compared cell by cell (numbers at a relative tolerance,
the `warnings` column exactly).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance for oracle and reference comparisons, with an absolute
# floor for cells that are zero up to rounding.
RTOL = 1e-9
ATOL = 1e-12
# Slack on the bound inequalities, relative to the right-hand side.
INEQ_RTOL = 1e-9

GROUP_COLUMNS = {
    "entropy": ("D_fwd", "D_bwd", "D_sym"),
    "bounds": ("rhs_fwd", "rhs_bwd", "rhs_sym", "delta_bound"),
    "qsl": ("tau_fwd", "tau_bwd", "tau_sym", "tau_qsl", "delta_qsl"),
}
# Groups a sweep evaluates in one try block, in evaluation order; a failure
# blanks every group of its unit and appends one `error:<Class>` tag.
SWEEP_UNITS = (("entropy", "bounds"), ("qsl",))


def close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * abs(b) + atol


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), ATOL)


def iter_rows(text: str, header: list[str]):
    """Rows of a CSV body as dicts, one at a time (sweep CSVs have no
    quoted cells)."""
    for line in text.split("\n")[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        yield dict(zip(header, cells))


def csv_header(text: str) -> list[str]:
    return text.split("\n", 1)[0].split(",")


def cell(row: dict[str, str], col: str) -> float | None:
    """Numeric value of a cell; None when blank."""
    text = row.get(col, "")
    return None if text == "" else float(text)


def error_tags(row: dict[str, str]) -> list[str]:
    return [w[len("error:"):] for w in row["warnings"].split(";") if w.startswith("error:")]


def infer_failed_groups(row: dict[str, str], groups=tuple(GROUP_COLUMNS)) -> dict[str, str]:
    """{group: error class} for the requested output groups a row lost.

    The sweep's `error:<Class>` tag does not name its group, so the group is
    read off the blank cells: a unit of groups counts as failed when all of
    its requested cells are blank. Tags are matched to failed units in
    evaluation order; a single tag covering several failed units (the sweep
    drops duplicate tags, and a failure of the whole row blanks everything)
    is given to each of them. Blank groups with no tag get class "unknown".
    """
    failed_units = []
    for unit in SWEEP_UNITS:
        requested = [g for g in unit if g in groups]
        if requested and all(
            row.get(col, "") == "" for g in requested for col in GROUP_COLUMNS[g]
        ):
            failed_units.append(requested)
    tags = error_tags(row)
    if len(tags) != len(failed_units):
        tags = [tags[0] if len(tags) == 1 else "unknown"] * len(failed_units)
    return {g: cls for unit, cls in zip(failed_units, tags) for g in unit}


def untagged_errors(row: dict[str, str], groups=tuple(GROUP_COLUMNS)) -> bool:
    """True when the row carries an error tag but lost no output group, or
    lost a group without a tag: either way the tags and cells disagree."""
    tags = error_tags(row)
    failed = infer_failed_groups(row, groups)
    return bool(tags) != bool(failed) or "unknown" in failed.values()


def bound_violations(row: dict[str, str]) -> list[str]:
    """Broken inequalities on a row with a finite D_sym."""
    d_sym = cell(row, "D_sym")
    if d_sym is None or not math.isfinite(d_sym):
        return []
    bad = []
    rhs = cell(row, "rhs_sym")
    if rhs is not None and d_sym > rhs + INEQ_RTOL * abs(rhs) + ATOL:
        bad.append(f"D_sym {d_sym!r} > rhs_sym {rhs!r}")
    tau_qsl = cell(row, "tau_qsl")
    t = float(row["t"])
    if tau_qsl is not None and tau_qsl > t + INEQ_RTOL * t + ATOL:
        bad.append(f"tau_qsl {tau_qsl!r} > t {t!r}")
    return bad


def depolarizing_oracle(row: dict[str, str], oracles) -> tuple[float, float] | None:
    """(D_fwd, closed-form value) for a depolarizing row; None when blank."""
    d_fwd = cell(row, "D_fwd")
    if d_fwd is None:
        return None
    case = oracles.DepolarizingCase(float(row["r"]), float(row["gamma"]) * float(row["t"]))
    return d_fwd, oracles.depolarizing_entropy(case, float(row["alpha"]))


def rows_match(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Cells that differ between two CSV rows: numeric cells at RTOL/ATOL,
    blank and non-numeric cells and the warnings column exactly."""
    bad = []
    for col, expected in want.items():
        actual = got.get(col)
        if actual == expected:
            continue
        if col != "warnings" and actual not in (None, "") and expected != "":
            try:
                if close(float(actual), float(expected)):
                    continue
            except ValueError:
                pass
        bad.append(f"{col}: {actual!r} != {expected!r}")
    return bad


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def check_sweep(text: str, workload: str, oracles, depolarizing: bool) -> dict:
    """Full check of one sweep's CSV text, one row at a time.

    Returns the row count, the indices of wrong rows with reasons, the worst
    relative oracle deviation over rows whose closed form exceeds ATOL, and
    the per-group failure counts."""
    header = csv_header(text)
    reference = load_reference(workload)
    expected = {idx: dict(zip(reference["header"], line.split(",")))
                for idx, line in reference["rows"]}
    groups = tuple(GROUP_COLUMNS)
    wrong: dict[int, list[str]] = {}
    failures: Counter = Counter()

    def flag(i, reason):
        wrong.setdefault(i, []).append(reason)

    if reference["header"] != header:
        flag(-1, "header differs from the reference")
    worst = 0.0
    n_rows = 0
    for i, row in enumerate(iter_rows(text, header)):
        n_rows += 1
        for reason in bound_violations(row):
            flag(i, reason)
        if untagged_errors(row, groups):
            flag(i, f"error tags {row['warnings']!r} do not match blank groups")
        for group, cls in infer_failed_groups(row, groups).items():
            failures[(group, cls)] += 1
        if depolarizing:
            pair = depolarizing_oracle(row, oracles)
            if pair is not None:
                if abs(pair[1]) > ATOL:
                    worst = max(worst, rel_dev(*pair))
                if not close(*pair):
                    flag(i, f"D_fwd deviates from the oracle by {rel_dev(*pair):.3e}")
        if i in expected:
            for reason in rows_match(row, expected[i]):
                flag(i, reason)
    if reference["n_rows"] != n_rows:
        flag(-1, f"{n_rows} rows, reference has {reference['n_rows']}")
    return {
        "rows": n_rows,
        "wrong": wrong,
        "oracle_worst_rel": worst,
        "failures": failures,
        "groups_attempted": n_rows * len(groups),
    }
