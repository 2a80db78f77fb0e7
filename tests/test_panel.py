"""The panel layer of a sweep: column-wise CSV rendering and the work it
saves.

`cli.rows_to_csv` formats each distinct float of a column once, so its
renderer must print exactly what the cell formatter prints for every float,
signed zeros, infinities, nans and subnormals included, and must tell apart
floats one ulp apart. h(rho_0; alpha, z) does not depend on t, so a sweep
computes it once per (alpha, z) for the whole panel.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from azqsl import cli, qsl

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


def test_column_renderer_keeps_signed_zero():
    # ln(1) / (alpha - 1) is -0.0, and -0.0 == 0.0 hash alike
    assert cli._fmt_column(np.array([0.0, -0.0, 0.0])) == ["0", "-0", "0"]


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
