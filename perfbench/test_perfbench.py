"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

HEADER = ("model,r,theta,phi,nx,ny,nz,gamma,lambda,s,p,alpha,z,t,"
          "D_fwd,D_bwd,D_sym,rhs_fwd,rhs_bwd,rhs_sym,"
          "tau_fwd,tau_bwd,tau_sym,tau_qsl,delta_bound,delta_qsl,warnings").split(",")


def make_row(**cells):
    row = dict.fromkeys(HEADER, "")
    row.update(model="amplitude_damping", alpha="0.5", z="1", t="2")
    for group in checks.GROUP_COLUMNS.values():
        for col in group:
            row[col] = "0.25"
    row.update(cells)
    return row


def blank(row, *groups):
    for group in groups:
        for col in checks.GROUP_COLUMNS[group]:
            row[col] = ""
    return row


# --- self time ------------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    assert self_times(end - start, parents).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_siblings_and_roots():
    durations = np.array([2.0, 5.0, 1.0, 1.0])
    parents = np.array([-1, -1, 1, 1])
    assert self_times(durations, parents).tolist() == [2.0, 3.0, 1.0, 1.0]


def test_tracer_records_nesting_and_self_time():
    tracer = Tracer()

    def inner(x):
        return x + 1

    winner = tracer.wrap("m.inner", inner)

    def outer(x):
        return winner(winner(x))

    wouter = tracer.wrap("m.outer", outer)
    assert wouter(1) == 3
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["m.inner"]["calls"] == 2
    assert summary["m.outer"]["calls"] == 1
    inner_total = summary["m.inner"]["s"]
    outer = summary["m.outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner_total, abs=1e-12)
    assert 0.0 <= outer["self_s"] <= outer["s"]


def test_tracer_span_closes_on_exception():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    arr = tracer.arrays()
    assert arr["end"][0] >= arr["start"][0]
    assert wrapped is not boom and not tracer._stack


def test_install_wraps_every_binding_and_uninstall_restores():
    import azqsl

    original = azqsl.entropy.renyi_az
    original_init = azqsl.states.DensityMatrix.__init__
    tracer = Tracer()
    tracer.install(azqsl)
    try:
        assert azqsl.renyi_az is azqsl.entropy.renyi_az is not original
        rho = azqsl.bloch_state(azqsl.BlochVector(0.5, 1.0, 0.2))
        sigma = azqsl.bloch_state(azqsl.BlochVector(0.3, 0.4, 0.1))
        value = azqsl.renyi_az(rho, sigma, azqsl.EntropyParams(0.4, 0.9))
    finally:
        tracer.uninstall()
    assert azqsl.entropy.renyi_az is original and azqsl.renyi_az is original
    assert azqsl.states.DensityMatrix.__init__ is original_init
    assert value == original(rho, sigma, azqsl.EntropyParams(0.4, 0.9))
    summary = tracer.summary()
    assert summary["entropy.renyi_az"]["calls"] == 1
    assert summary["states.DensityMatrix"]["calls"] == 2
    assert summary["linalg.mat_pow"]["calls"] == 2
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    parents = tracer.arrays()["parent"]
    root = names.index("entropy.renyi_az")
    assert all(parents[i] >= root for i, n in enumerate(names) if n == "linalg.mat_pow")


# --- tail percentile --------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, n = stats.tail(values[::-1])
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_grows_toward_the_top_with_more_samples():
    value, pct, n = stats.tail(range(1000))
    assert (value, pct, n) == (989, 99.0, 1000)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(range(10)) == (9, 100.0, 10)
    assert stats.tail(range(11)) == (0, 100.0 / 11, 11)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


# --- reference seconds --------------------------------------------------------------

def host_with_ticks(monkeypatch, ticks, smooth=1):
    """A HostSpeed whose kernel ran at the given (start, end, kernel time)."""
    monkeypatch.setattr(hostspeed, "SMOOTH", smooth)
    host = hostspeed.HostSpeed()
    host.starts, host.ends, host.kernel_s = (list(col) for col in zip(*ticks))
    host._finish()
    return host


def test_work_is_scaled_by_the_tick_that_ends_it(monkeypatch):
    # kernel at 1 ms (factor 1), 2 ms (factor 0.5), 1 ms (factor 1)
    host = host_with_ticks(monkeypatch, [(0.0, 0.1, 1e-3), (1.0, 1.1, 2e-3), (2.0, 2.1, 1e-3)])
    assert host.ref_s(0.1, 1.0) == pytest.approx(0.9 * 0.5)
    # 0.5 s before the slow tick, its 0.1 s skipped, 0.4 s before the last one
    assert host.ref_s(0.5, 1.5) == pytest.approx(0.5 * 0.5 + 0.4)
    assert host.ticks_s(0.5, 1.5) == pytest.approx(0.1)
    assert host.ref_s(2.1, 3.1) == pytest.approx(1.0)
    assert host.ref_s(-1.0, 0.0) == pytest.approx(1.0)
    assert host.ref_s(1.02, 1.08) == 0.0


def test_kernel_times_are_smoothed_by_a_running_median(monkeypatch):
    ticks = [(k, k + 0.1, 9e-3 if k == 2 else 1e-3) for k in range(5)]
    host = host_with_ticks(monkeypatch, ticks, smooth=3)  # one slow sample among fast ones
    assert host.ref_s(1.1, 2.0) == pytest.approx(0.9)


# --- group inference ----------------------------------------------------------------

def test_blank_qsl_cells_name_the_qsl_group():
    row = blank(make_row(warnings="chain_sign;error:SupportViolationError"), "qsl")
    assert checks.infer_failed_groups(row) == {"qsl": "SupportViolationError"}
    assert not checks.untagged_errors(row)


def test_blank_entropy_and_bounds_are_one_unit():
    row = blank(make_row(warnings="error:QuadratureTooCoarseError"), "entropy", "bounds")
    assert checks.infer_failed_groups(row) == {
        "entropy": "QuadratureTooCoarseError", "bounds": "QuadratureTooCoarseError"}


def test_two_tags_map_to_units_in_order():
    row = blank(make_row(warnings="error:NotPSDError;error:ZeroSpeedError"),
                "entropy", "bounds", "qsl")
    assert checks.infer_failed_groups(row) == {
        "entropy": "NotPSDError", "bounds": "NotPSDError", "qsl": "ZeroSpeedError"}


def test_one_tag_on_a_blank_row_covers_every_group():
    row = blank(make_row(warnings="error:InvalidStateError"), "entropy", "bounds", "qsl")
    assert set(checks.infer_failed_groups(row).values()) == {"InvalidStateError"}
    assert len(checks.infer_failed_groups(row)) == 3


def test_partly_blank_group_is_not_a_failure():
    row = make_row(warnings="loose_bound", delta_bound="")
    assert checks.infer_failed_groups(row) == {}
    assert not checks.untagged_errors(row)


def test_tags_and_blanks_that_disagree_are_flagged():
    assert checks.untagged_errors(make_row(warnings="error:ZeroSpeedError"))
    assert checks.untagged_errors(blank(make_row(warnings=""), "qsl"))
    assert checks.infer_failed_groups(blank(make_row(warnings=""), "qsl")) == {"qsl": "unknown"}


# --- output checks -------------------------------------------------------------------

def test_bound_check_skips_infinite_entropy():
    row = make_row(D_sym="inf", rhs_sym="1.5", tau_qsl="")
    assert checks.bound_violations(row) == []
    bad = make_row(D_sym="2", rhs_sym="1.5", tau_qsl="3", t="2")
    assert len(checks.bound_violations(bad)) == 2


def test_rows_match_tolerance_and_exact_warnings():
    want = make_row(D_fwd="1.0000000000000000", warnings="chain_sign")
    assert checks.rows_match(make_row(D_fwd="1.0000000000001", warnings="chain_sign"), want) == []
    assert checks.rows_match(make_row(D_fwd="1.00001", warnings="chain_sign"), want)
    assert checks.rows_match(make_row(D_fwd="1.0", warnings=""), want)
    assert checks.rows_match(make_row(D_fwd="", warnings="chain_sign"), want)


def test_close_handles_infinities():
    assert checks.close(math.inf, math.inf)
    assert not checks.close(1.0, math.inf)


def test_benchmark_json_names_what_the_worker_reports():
    import json

    from worker import END_TO_END_UNITS, WORKLOADS, per_layer_names

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == (
        [("setup_s", "s")] + list(END_TO_END_UNITS.items()))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
