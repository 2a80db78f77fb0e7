"""Non-finite and malformed inputs end in the package's own errors.

NaN fails every comparison, so a range check written as `x < lo` lets it
through; each check here must reject it. Library constructors raise
InvalidStateError or InvalidParamsError, and the command line exits 1 with
a `config error:` line, or 2 for a bad state file (`numerical failure:`,
as for any invalid probe), instead of a traceback. A model or probe
parameter out of its range is a configuration error too.
"""

import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from azqsl import cli, entropy, linalg, qsl
from azqsl import dynamics as dyn
from azqsl.entropy import EntropyParams
from azqsl.errors import (
    CompletenessViolationError,
    DimMismatchError,
    InvalidParamsError,
    InvalidPError,
    InvalidStateError,
    NotHermitianError,
    SingularStateError,
    ZeroVarianceError,
)
from azqsl.qsl import qsl_nonunitary
from azqsl.states import (
    BlochVector,
    DensityMatrix,
    GHZMixedParams,
    bloch_state,
    ghz_mixed,
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


def ghz_probe() -> DensityMatrix:
    return ghz_mixed(GHZMixedParams(0.4))


def pure_probe() -> DensityMatrix:
    return bloch_state(BlochVector(1.0, 1.0, 0.3))


def pure_orbit_end() -> DensityMatrix:
    """The pure probe after unit time under n = (1, 0, 0.5)."""
    h = dyn.HamiltonianModel.qubit([1.0, 0.0, 0.5])
    return dyn.evolve_unitary(h, pure_probe(), 1.0, 3).final_state


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
    "entropy_z_inf": (lambda: EntropyParams(0.5, INF), InvalidParamsError),
    "state_text_token": (lambda: state_from_text("2\n0.5 0\n0 0\n0 0\nx 0\n"), InvalidStateError),
    "state_text_nan": (lambda: state_from_text("2\n0.5 0\n0 0\n0 0\nnan 0\n"), InvalidStateError),
    "state_text_dim_zero": (lambda: state_from_text("0\n"), InvalidStateError),
    "state_text_dim_negative": (lambda: state_from_text("-1 1 2\n"), InvalidStateError),
    "state_text_dim_fraction": (lambda: state_from_text("2.5\n"), InvalidStateError),
    "density_matrix_empty": (lambda: DensityMatrix(np.zeros((0, 0))), InvalidStateError),
    "hamiltonian_matrix_nan": (
        lambda: dyn.HamiltonianModel(np.diag([NAN, 1.0])), InvalidParamsError
    ),
    "hamiltonian_matrix_inf": (
        lambda: dyn.HamiltonianModel(np.diag([INF, 1.0])), InvalidParamsError
    ),
    "hamiltonian_qubit_nan": (lambda: dyn.HamiltonianModel.qubit([NAN, 0, 1]), InvalidParamsError),
    "hamiltonian_qubit_inf": (lambda: dyn.HamiltonianModel.qubit([INF, 0, 1]), InvalidParamsError),
    "hamiltonian_qubit_two_components": (
        lambda: dyn.HamiltonianModel.qubit([1, 2]), InvalidParamsError
    ),
    "hamiltonian_qubit_four_components": (
        lambda: dyn.HamiltonianModel.qubit([1, 2, 3, 4]), InvalidParamsError
    ),
    "hamiltonian_matrix_not_square": (
        lambda: dyn.HamiltonianModel(np.ones((2, 3))), InvalidParamsError
    ),
    "hamiltonian_matrix_empty": (
        lambda: dyn.HamiltonianModel(np.zeros((0, 0))), InvalidParamsError
    ),
    "hamiltonian_matrix_vector": (lambda: dyn.HamiltonianModel(np.ones(2)), InvalidParamsError),
    "eigh_not_square": (lambda: linalg.eigh(np.ones((2, 3))), NotHermitianError),
    # a two-qubit probe against a qubit model
    "energy_fluctuation_probe_dim": (
        lambda: dyn.energy_fluctuation(z_field(), ghz_probe()), DimMismatchError
    ),
    "coherence_measure_probe_dim": (
        lambda: dyn.coherence_measure(z_field(), ghz_probe()), DimMismatchError
    ),
    "apply_channel_probe_dim": (
        lambda: dyn.apply_channel(depolarizing(), ghz_probe(), 0.5), DimMismatchError
    ),
    # rho_tau of another dim than rho0: caught before the spectra are compared
    "qsl_unitary_state_dims": (
        lambda: qsl.qsl_unitary(dyn.HamiltonianModel(np.diag([1.0, 2.0, 3.0, 4.0])),
                                ghz_mixed(GHZMixedParams(0.4)), probe(), EntropyParams(0.5, 1.0)),
        DimMismatchError,
    ),
    **{
        f"{name}_order_{label}": (partial(divergence, probe(), probe(), alpha), InvalidParamsError)
        for name, divergence in (("petz", entropy.petz), ("sandwiched", entropy.sandwiched))
        for label, alpha in (("nan", NAN), ("inf", INF))
    },
    "schatten_norm_order_nan": (lambda: linalg.schatten_norm(np.eye(2), NAN), InvalidPError),
    **{
        f"{name}_delta_h_{label}": (partial(run, delta_h), InvalidParamsError)
        for name, run in (
            ("tau_unitary_petz", lambda dh: qsl.tau_unitary_petz(probe(), probe(), 0.5, dh)),
            ("tau_unitary_fidelity", lambda dh: qsl.tau_unitary_fidelity(probe(), probe(), dh)),
        )
        for label, delta_h in (("nan", NAN), ("inf", INF))
    },
    # no energy spread: the speed bound 2 Delta H gives no time
    **{
        f"{name}_delta_h_zero": (run, ZeroVarianceError)
        for name, run in (
            ("tau_unitary_petz", lambda: qsl.tau_unitary_petz(probe(), probe(), 0.5, 0.0)),
            ("tau_unitary_fidelity", lambda: qsl.tau_unitary_fidelity(probe(), probe(), 0.0)),
        )
    },
    # a pure probe has no finite h, as in qsl_unitary
    "tau_unitary_petz_rank_deficient_probe": (
        lambda: qsl.tau_unitary_petz(pure_probe(), pure_orbit_end(), 0.4, 1.0), SingularStateError
    ),
    "tau_unitary_fidelity_rank_deficient_probe": (
        lambda: qsl.tau_unitary_fidelity(pure_probe(), pure_orbit_end(), 1.0), SingularStateError
    ),
    **{
        f"{name}_samples_{label}": (partial(run, n_steps), InvalidParamsError)
        for name, run in (
            ("evolve_kraus", lambda n: dyn.evolve_kraus(depolarizing(), probe(), 1.0, n)),
            ("evolve_unitary", lambda n: dyn.evolve_unitary(z_field(), probe(), 1.0, n)),
            ("qsl_nonunitary",
             lambda n: qsl_nonunitary(depolarizing(), probe(), 1.0, EntropyParams(0.5, 1.0), n)),
        )
        for label, n_steps in (("float", 2.5), ("text", "5"), ("one", 1))
    },
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
    **{
        f"apply_channel_time_{label}": (
            partial(dyn.apply_channel, depolarizing(), probe(), t), InvalidParamsError
        )
        for label, t in (("nan", NAN), ("inf", INF), ("negative", -1.0))
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


DATA = Path(__file__).parent / "data"
GHZ_PROBE_FILE = DATA / "ghz_mixed_p0.4.txt"

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
    # out of range rather than non-finite: a configuration error all the same
    "gamma_negative": ["sweep", "--set", "gamma=-1"],
    "lambda_zero": ["sweep", "--set", "model=amplitude_damping", "--set", "lambda=0"],
    "s_negative": ["sweep", "--set", "model=amplitude_damping", "--set", "s=-1"],
    "p_above_one": ["sweep", "--set", "model=amplitude_damping", "--set", "p=1.5"],
    "r_above_one": ["sweep", "--set", "r=1.5"],
    "qsl_gamma_negative": ["qsl", "--gamma", "-1"],
    "unitary_two_qubit_probe": ["sweep", "--set", "model=unitary_qubit", "--set",
                                f"state_file={GHZ_PROBE_FILE}"],
    # the single-point commands check the probe against the model as a sweep does
    "entropy_unitary_two_qubit_probe": ["entropy", "--model", "unitary_qubit",
                                        "--state-file", GHZ_PROBE_FILE],
    "bound_depolarizing_two_qubit_probe": ["bound", "--model", "depolarizing",
                                           "--state-file", GHZ_PROBE_FILE],
    "qsl_unitary_two_qubit_probe": ["qsl", "--model", "unitary_qubit",
                                    "--state-file", GHZ_PROBE_FILE],
    "qsl_kraus_file_two_qubit_probe": ["qsl", "--model", "custom_kraus_file",
                                       "--kraus-file", DATA / "bit_flip.txt",
                                       "--state-file", GHZ_PROBE_FILE],
    # each remaining check of a config, a grid, an override or a file
    "model_unknown": ["sweep", "--set", "model=bogus"],
    "grid_count_zero": ["sweep", "--set", "alpha_grid=0.1,0.9,0"],
    "grid_max_below_min": ["sweep", "--set", "alpha_grid=0.9,0.1,3"],
    "grid_two_fields": ["sweep", "--set", "alpha_grid=0.1,0.9"],
    "z_grid_above_one": ["sweep", "--set", "z_grid=1.5"],
    "time_grid_negative": ["sweep", "--set", "time_grid=-1"],
    "n_steps_one": ["sweep", "--set", "n_steps=1"],
    "outputs_unknown": ["sweep", "--set", "outputs=entropy,bogus"],
    "kraus_model_without_file": ["sweep", "--set", "model=custom_kraus_file"],
    "override_without_equals": ["sweep", "--set", "r"],
    # a directory cannot be read as a file
    "config_unreadable": ["sweep", "--config", DATA],
    "kraus_file_unreadable": ["sweep", "--set", "model=custom_kraus_file",
                              "--set", f"kraus_file={DATA}"],
    # a Kraus file, whose header "2 2" is a line without "="
    "config_line_without_equals": ["sweep", "--config", DATA / "bit_flip.txt"],
}

KRAUS_FILES = {
    "kraus_file_token": "1 2\n1 0\n0 0\n0 zero\n1 0\n",
    "kraus_file_header": "one 2\n1 0\n0 0\n0 0\n1 0\n",
    "kraus_file_nan": "1 2\n1 0\n0 0\n0 0\nnan 0\n",
    "kraus_file_no_operators": "0 2\n",
    "kraus_file_dim_zero": "1 0\n",
    "kraus_file_too_short": "1\n",
    "kraus_file_miscounted": "1 2\n1 0\n0 0\n",
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


def test_cli_reports_io_error(tmp_path, capsys):
    # the configuration is valid, but the CSV's directory does not exist
    out = tmp_path / "missing" / "out.csv"
    rc, err = run_cli(capsys, ["sweep", "--set", "n_steps=11", "--out", out])
    assert rc == 1
    assert err.startswith("io error:")
    assert not out.exists()


def test_cli_single_point_reports_empty_kraus_file(tmp_path, capsys):
    path = tmp_path / "ops.txt"
    path.write_text(KRAUS_FILES["kraus_file_no_operators"])
    rc, err = run_cli(capsys, ["qsl", "--model", "custom_kraus_file", "--kraus-file", path])
    assert rc == 1
    assert err.startswith("config error:") and str(path) in err


STATE_FILES = {
    "x": "2\n0.5 0\n0 0\n0 0\nx 0\n",
    "nan": "2\n0.5 0\n0 0\n0 0\nnan 0\n",
    "dim_zero": "0\n",
    "dim_negative": "-1 1 2\n",
}


@pytest.mark.parametrize("field", list(STATE_FILES))
def test_cli_bad_state_file_is_invalid_probe(field, tmp_path, capsys):
    path = tmp_path / "probe.txt"
    path.write_text(STATE_FILES[field])
    rc, err = run_cli(capsys, ["entropy", "--state-file", path])
    assert rc == 2
    assert err.startswith("numerical failure:")
