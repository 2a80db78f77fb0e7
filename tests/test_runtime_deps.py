"""The runtime depends on numpy alone: scipy serves the tests (the
`mat_pow` integral oracle of `helpers.py` among them), and
`pyproject.toml` declares it in the `test` extra only."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import azqsl

ROOT = Path(__file__).resolve().parents[1]

# Every command and documented library entry point, run in a process in
# which any import of scipy or of a scipy submodule raises ImportError, so
# a guarded or lazy import on any of these paths fails the call.
SCRIPT = """
import contextlib, importlib.abc, io, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.special
except ImportError:
    blocked = True
else:
    blocked = False

from azqsl import cli, entropy
from azqsl.states import BlochVector, bloch_state

out_dir, kraus_file = sys.argv[1], sys.argv[2]
grid = ["--set", "alpha_grid=0.3,0.7,2", "--set", "time_grid=0,1,2", "--set", "n_steps=101"]
point = ["--alpha", "0.4", "--z", "0.8", "--tau", "2"]
commands = {
    model: ["sweep", "--set", f"model={model}", *grid, "--out", f"{out_dir}/{model}.csv"]
    for model in cli.MODELS
}
commands["custom_kraus_file"][3:3] = ["--set", f"kraus_file={kraus_file}"]
commands["entropy"] = ["entropy", *point]
# 1000 samples: an odd number of intervals takes the trapezoid fallback
commands["bound"] = ["bound", *point, "--steps", "1000"]
commands["qsl"] = ["qsl", "--model", "amplitude_damping", *point, "--steps", "101"]
commands["selftest"] = ["selftest", "--draws", "3"]
codes, stdout = {}, {}
for name, argv in commands.items():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        codes[name] = cli.main(argv)
    stdout[name] = text.getvalue()
rho = bloch_state(BlochVector(0.6, 0.9, 0.4))
sigma = bloch_state(BlochVector(0.3, 1.7, 2.1))
cases = {name: entropy.special_case(rho, sigma, name, 0.6) for name in entropy._SPECIAL_CASES}
print(json.dumps({"blocked": blocked, "codes": codes, "stdout": stdout, "cases": cases}))
"""


def test_runtime_runs_with_scipy_blocked(tmp_path):
    src = str(Path(azqsl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    kraus_file = ROOT / "tests" / "data" / "bit_flip.txt"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(kraus_file)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["blocked"]
    assert out["codes"] == dict.fromkeys(out["codes"], 0), proc.stderr
    assert sorted(out["codes"]) == sorted(
        ["unitary_qubit", "depolarizing", "amplitude_damping", "custom_kraus_file",
         "entropy", "bound", "qsl", "selftest"])
    # two alphas by one nonzero and one zero horizon, plus the header
    for model in ("unitary_qubit", "depolarizing", "amplitude_damping", "custom_kraus_file"):
        assert (tmp_path / f"{model}.csv").read_text().count("\n") == 5
    assert "quad_ungated" in out["stdout"]["bound"]
    assert "tau_qsl = " in out["stdout"]["qsl"]
    assert "SELFTEST summary: 6/6 checks passed" in out["stdout"]["selftest"]
    assert set(out["cases"]) == set(azqsl.entropy._SPECIAL_CASES)
    assert all(isinstance(value, float) for value in out["cases"].values())


def _plain_dependencies(text: str) -> list[str]:
    """`[project] dependencies` of a pyproject.toml by a plain parse of the
    list in its [project] table, for Pythons without tomllib."""
    table = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    body = re.search(r"^dependencies = \[(.*?)\]", table, re.M | re.S).group(1)
    return re.findall(r'"([^"]*)"', body)


def test_pyproject_declares_numpy_alone_at_runtime():
    text = (ROOT / "pyproject.toml").read_text()
    declared = _plain_dependencies(text)
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        pass
    else:
        assert tomllib.loads(text)["project"]["dependencies"] == declared
    assert declared == ["numpy>=1.24"]
    test_extra = re.search(r"^test = \[(.*?)\]$", text, re.M).group(1)
    assert '"scipy>=1.10"' in test_extra
