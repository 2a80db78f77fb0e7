"""The runtime imports numpy only: scipy serves the tests and the
`linalg.mat_pow_integral` oracle, which loads it on its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import azqsl

SCRIPT = """
import json, sys
import numpy as np
import azqsl
from azqsl import cli, dynamics as dyn, linalg, qsl
from azqsl.entropy import EntropyParams
from azqsl.states import BlochVector, bloch_state

assert cli.main(["sweep", "--set", "model=depolarizing", "--set", "alpha_grid=0.4",
                 "--set", "time_grid=1.0", "--set", "n_steps=101", "--out", sys.argv[1]]) == 0
fam = dyn.depolarizing_family(dyn.DepolarizingParams(1.0))
traj = dyn.evolve_kraus(fam, bloch_state(BlochVector(0.6, 0.9, 0.4)), 3.0, 1000)
report = qsl.integrate_bounds(traj, EntropyParams(0.3, 1.0))
loaded = [name for name in ("scipy.special", "scipy.integrate") if name in sys.modules]
m = np.array([[0.6, 0.1 - 0.05j], [0.1 + 0.05j, 0.4]])
gap = float(np.max(np.abs(linalg.mat_pow_integral(m, 0.3) - linalg.mat_pow(m, 0.3))))
print(json.dumps({"loaded": loaded, "warnings": report.warnings, "gap": gap,
                  "oracle_loaded": "scipy.special" in sys.modules}))
"""


def test_runtime_leaves_scipy_unloaded(tmp_path):
    src = str(Path(azqsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "one.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # a one-row sweep and an odd-grid (trapezoid) bound ran without scipy
    assert out["loaded"] == []
    assert "quad_ungated" in out["warnings"]
    assert (tmp_path / "one.csv").read_text().count("\n") == 2
    # the oracle imports it on demand and still agrees with mat_pow
    assert out["oracle_loaded"]
    assert out["gap"] <= 1e-6
