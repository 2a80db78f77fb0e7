"""Non-finite and malformed inputs end in the package's own errors.

NaN fails every comparison, so a range check written as `x < lo` lets it
through; each check here must reject it. Library constructors raise
InvalidStateError or InvalidParamsError, and the command line exits 1 with
a `config error:` line (a bad state file exits 2 with `numerical failure:`,
as for any invalid probe) instead of a traceback.
"""

import math
from functools import partial

import numpy as np
import pytest

from azqsl import cli
from azqsl import dynamics as dyn
from azqsl.entropy import EntropyParams
from azqsl.errors import CompletenessViolationError, InvalidParamsError, InvalidStateError
from azqsl.qsl import qsl_nonunitary
from azqsl.states import (
    BlochVector,
    DensityMatrix,
    GHZMixedParams,
    bloch_state,
    state_from_text,
)

NAN, INF = math.nan, math.inf


def nan_family() -> dyn.KrausFamily:
    ops = [np.full((2, 2), NAN, dtype=complex)]
    return dyn.KrausFamily(dim=2, n_ops=1, ops_fn=lambda t: ops, dops_fn=lambda t: ops)


def depolarizing() -> dyn.KrausFamily:
    return dyn.depolarizing_family(dyn.DepolarizingParams(1.0))


def z_field() -> dyn.HamiltonianModel:
    return dyn.HamiltonianModel.qubit([0.0, 0.0, 1.0])


def probe() -> DensityMatrix:
    return bloch_state(BlochVector(0.5, 0.3, 0.2))


LIBRARY_CASES = {
    "density_matrix_nan": (lambda: DensityMatrix(np.full((2, 2), NAN)), InvalidStateError),
    "density_matrix_inf": (lambda: DensityMatrix(np.diag([INF, 1.0])), InvalidStateError),
    "bloch_radius_nan": (lambda: bloch_state(BlochVector(NAN)), InvalidParamsError),
    "bloch_angle_nan": (lambda: bloch_state(BlochVector(0.5, NAN)), InvalidStateError),
    "ghz_weight_nan": (lambda: GHZMixedParams(NAN), InvalidParamsError),
    "depolarizing_rate_nan": (lambda: dyn.DepolarizingParams(NAN), InvalidParamsError),
    "depolarizing_rate_inf": (lambda: dyn.DepolarizingParams(INF), InvalidParamsError),
    "damping_width_nan": (lambda: dyn.AmplitudeDampingParams(NAN, 0.5), InvalidParamsError),
    "damping_regime_nan": (lambda: dyn.AmplitudeDampingParams(1.0, NAN), InvalidParamsError),
    "entropy_alpha_nan": (lambda: EntropyParams(NAN, 1.0), InvalidParamsError),
    "entropy_z_nan": (lambda: EntropyParams(0.5, NAN), InvalidParamsError),
    "state_text_token": (lambda: state_from_text("2\n0.5 0\n0 0\n0 0\nx 0\n"), InvalidStateError),
    "state_text_nan": (lambda: state_from_text("2\n0.5 0\n0 0\n0 0\nnan 0\n"), InvalidStateError),
    "hamiltonian_matrix_nan": (
        lambda: dyn.HamiltonianModel(np.diag([NAN, 1.0])), InvalidParamsError
    ),
    "hamiltonian_matrix_inf": (
        lambda: dyn.HamiltonianModel(np.diag([INF, 1.0])), InvalidParamsError
    ),
    "hamiltonian_qubit_nan": (lambda: dyn.HamiltonianModel.qubit([NAN, 0, 1]), InvalidParamsError),
    "hamiltonian_qubit_inf": (lambda: dyn.HamiltonianModel.qubit([INF, 0, 1]), InvalidParamsError),
    **{
        f"{name}_horizon_{label}": (partial(run, tau), InvalidParamsError)
        for name, run in (
            ("evolve_kraus", lambda tau: dyn.evolve_kraus(depolarizing(), probe(), tau, 11)),
            ("evolve_unitary", lambda tau: dyn.evolve_unitary(z_field(), probe(), tau, 11)),
            ("qsl_nonunitary",
             lambda tau: qsl_nonunitary(depolarizing(), probe(), tau, EntropyParams(0.5, 1.0), 11)),
        )
        for label, tau in (("nan", NAN), ("inf", INF))
    },
    "kraus_family_nan": (
        lambda: dyn.evolve_kraus(nan_family(), bloch_state(BlochVector(0.5)), 1.0, 11),
        CompletenessViolationError,
    ),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_rejects(name):
    build, error = LIBRARY_CASES[name]
    with pytest.raises(error):
        build()


CLI_CONFIG_ERRORS = {
    "time_grid_nan": ["sweep", "--set", "time_grid=nan"],
    "z_grid_nan": ["sweep", "--set", "z_grid=nan"],
    "alpha_grid_nan": ["sweep", "--set", "alpha_grid=nan"],
    "alpha_grid_inf_bound": ["sweep", "--set", "alpha_grid=0.1,inf,3"],
    "r_nan": ["sweep", "--set", "r=nan"],
    "gamma_inf": ["sweep", "--set", "gamma=inf"],
    "axis_nan": ["sweep", "--set", "model=unitary_qubit", "--set", "nz=nan"],
    "r_word": ["sweep", "--set", "r=abc"],
    "time_grid_token": ["sweep", "--set", "time_grid=1,2,x"],
    "n_steps_fraction": ["sweep", "--set", "n_steps=1.5"],
    "qsl_tau_nan": ["qsl", "--tau", "nan"],
    "bound_r_nan": ["bound", "--r", "nan"],
    "entropy_z_nan": ["entropy", "--z", "nan"],
}

KRAUS_FILES = {
    "kraus_file_token": "1 2\n1 0\n0 0\n0 zero\n1 0\n",
    "kraus_file_header": "one 2\n1 0\n0 0\n0 0\n1 0\n",
    "kraus_file_nan": "1 2\n1 0\n0 0\n0 0\nnan 0\n",
}


def run_cli(capsys, args):
    rc = cli.main([str(a) for a in args])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CLI_CONFIG_ERRORS) + sorted(KRAUS_FILES))
def test_cli_reports_config_error(name, tmp_path, capsys):
    if name in KRAUS_FILES:
        path = tmp_path / "ops.txt"
        path.write_text(KRAUS_FILES[name])
        args = ["sweep", "--set", "model=custom_kraus_file", "--set", f"kraus_file={path}"]
    else:
        args = CLI_CONFIG_ERRORS[name]
    if args[0] == "sweep":
        args = args + ["--out", tmp_path / "out.csv"]
    rc, err = run_cli(capsys, args)
    assert rc == 1
    assert err.startswith("config error:")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field", ["x", "nan"])
def test_cli_bad_state_file_is_invalid_probe(field, tmp_path, capsys):
    path = tmp_path / "probe.txt"
    path.write_text(f"2\n0.5 0\n0 0\n0 0\n{field} 0\n")
    rc, err = run_cli(capsys, ["entropy", "--state-file", path])
    assert rc == 2
    assert err.startswith("numerical failure:")
