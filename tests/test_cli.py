import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from azqsl import cli, oracles, selftest
from azqsl import dynamics as dyn
from azqsl.errors import ConfigError, MissingColumnError
from azqsl.states import BlochVector, bloch_state, save_state

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestSinglePoint:
    def test_bare_command_takes_sweep_config_defaults(self):
        args = cli.build_parser().parse_args(["bound"])
        assert cli._cfg_from_args(args) == cli.SweepConfig()

    def test_entropy_depolarizing(self, capsys):
        rc = run_cli(["entropy", "--model", "depolarizing", "--r", "0.75",
                      "--alpha", "0.5", "--z", "1", "--tau", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        ref = oracles.depolarizing_entropy(oracles.DepolarizingCase(0.75, 5.0), 0.5)
        assert float(values["D_fwd"]) == pytest.approx(ref, abs=1e-9)
        assert values["dpi_valid"] == "true"

    def test_bound_reports_inequality(self, capsys):
        rc = run_cli(["bound", "--model", "depolarizing", "--r", "0.6",
                      "--alpha", "0.3", "--z", "1", "--tau", "3", "--steps", "401"])
        out = capsys.readouterr().out
        assert rc == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["D_fwd"]) <= float(values["rhs_fwd"])
        assert float(values["D_sym"]) <= float(values["rhs_sym"])

    def test_qsl_below_horizon(self, capsys):
        rc = run_cli(["qsl", "--model", "amplitude_damping", "--p", "0.25",
                      "--s", "0.5", "--lambda", "1.0", "--alpha", "0.4",
                      "--z", "1", "--tau", "2", "--steps", "401"])
        out = capsys.readouterr().out
        assert rc == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert 0.0 < float(values["tau_qsl"]) <= 2.0 + 1e-8

    def test_unitary_model(self, capsys):
        rc = run_cli(["qsl", "--model", "unitary_qubit", "--r", "0.6",
                      "--theta", "1.2", "--phi", "0.3", "--nx", "1", "--ny", "0",
                      "--nz", "0.5", "--alpha", "0.35", "--z", "1",
                      "--tau", "0.9", "--steps", "401"])
        assert rc == 0
        assert "tau_qsl" in capsys.readouterr().out

    def test_state_file_override(self, tmp_path, capsys):
        path = tmp_path / "probe.txt"
        save_state(path, bloch_state(BlochVector(0.5, 0.7, 0.1)))
        rc = run_cli(["entropy", "--model", "depolarizing", "--state-file", path,
                      "--alpha", "0.5", "--tau", "1"])
        assert rc == 0
        assert "D_fwd" in capsys.readouterr().out

    def test_numerical_failure_exit_code(self, capsys):
        # pure probe: the auxiliary function rejects rank-deficient states
        rc = run_cli(["qsl", "--model", "depolarizing", "--r", "1.0",
                      "--alpha", "0.4", "--tau", "1", "--steps", "101"])
        assert rc == 2

    def test_bad_flag_exit_code(self, capsys):
        assert run_cli(["entropy", "--model", "bogus"]) == 1

    @pytest.mark.parametrize("command", ["entropy", "bound", "qsl"])
    @pytest.mark.parametrize("tau", ["0", "-0.0"])
    def test_zero_horizon_is_a_config_error(self, command, tau, capsys):
        # a sweep's t = 0 row is the stationary limit, but a command has
        # no trajectory to evaluate there
        assert run_cli([command, "--tau", tau]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: single-point commands need a positive")


class TestParserReuse:
    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        sweep = ["sweep", "--set", "model=depolarizing", "--set", "alpha_grid=0.3,0.7,2",
                 "--set", "time_grid=1.0,2.0,2", "--set", "n_steps=101", "--out"]
        try:
            outs = []
            for k in range(3):
                assert run_cli(sweep + [tmp_path / f"{k}.csv"]) == 0
                assert run_cli(["entropy", "--model", "bogus"]) == 1
                outs.append((tmp_path / f"{k}.csv").read_bytes())
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestSweep:
    def test_single_point_sweep(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        rc = run_cli(["sweep", "--set", "model=depolarizing", "--set", "r=0.75",
                      "--set", "alpha_grid=0.5", "--set", "z_grid=1.0",
                      "--set", "time_grid=2.0", "--set", "n_steps=401",
                      "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        ref = oracles.depolarizing_entropy(oracles.DepolarizingCase(0.75, 2.0), 0.5)
        assert float(row[header.index("D_fwd")]) == pytest.approx(ref, abs=1e-9)
        assert row[header.index("warnings")] != "error"

    def test_rows_ordered_lexicographically(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = run_cli(["sweep", "--set", "model=depolarizing",
                      "--set", "alpha_grid=0.3,0.7,2", "--set", "z_grid=1.0",
                      "--set", "time_grid=1.0,2.0,2", "--set", "n_steps=101",
                      "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        ia, iz, it = header.index("alpha"), header.index("z"), header.index("t")
        keys = [
            (float(r[ia]), float(r[iz]), float(r[it]))
            for r in (line.split(",") for line in lines[1:])
        ]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rc = run_cli(["sweep", "--set", "model=amplitude_damping",
                          "--set", "p=0.25", "--set", "s=0.5",
                          "--set", "alpha_grid=0.2,0.8,3", "--set", "z_grid=1.0",
                          "--set", "time_grid=0.0,2.0,3", "--set", "n_steps=201",
                          "--out", path])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_time_rows_use_limits(self, tmp_path):
        out = tmp_path / "zero.csv"
        run_cli(["sweep", "--set", "model=depolarizing", "--set", "alpha_grid=0.4",
                 "--set", "time_grid=0.0", "--set", "n_steps=101", "--out", out])
        lines = out.read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert float(row[header.index("tau_qsl")]) == 0.0
        assert float(row[header.index("delta_qsl")]) == 1.0
        assert float(row[header.index("delta_bound")]) == 0.0

    def test_error_rows_degrade_to_warnings(self, tmp_path):
        out = tmp_path / "err.csv"
        rc = run_cli(["sweep", "--set", "model=unitary_qubit", "--set", "r=1.0",
                      "--set", "nx=1.0", "--set", "nz=0.0",
                      "--set", "alpha_grid=0.4", "--set", "time_grid=0.5,1.0,2",
                      "--set", "n_steps=101", "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = line.split(",")
            assert row[header.index("D_fwd")] == ""
            assert "error:SingularStateError" in row[header.index("warnings")]

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# depolarizing panel\n"
            "model = depolarizing\n"
            "r = 0.75\n"
            "alpha_grid = 0.3,0.7,2\n"
            "z_grid = 1.0\n"
            "time_grid = 1.0\n"
            "n_steps = 101\n"
        )
        out = tmp_path / "cfg.csv"
        rc = run_cli(["sweep", "--config", cfg, "--set", "r=0.5", "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert lines[1].split(",")[header.index("r")] == "0.5"

    @pytest.mark.parametrize("model, state_file, cells", [
        ("unitary_qubit", None, {"r": "0.20000000000000001", "theta": "0", "phi": "0",
                                 "nx": "0", "ny": "0", "nz": "1"}),
        ("unitary_qubit", "bloch", {"nx": "0", "ny": "0", "nz": "1"}),
        ("depolarizing", "bloch", {"gamma": "1"}),
        ("amplitude_damping", "ghz_mixed_p0.4.txt", {"lambda": "1", "s": "0.5"}),
    ])
    def test_parameter_cells_describe_the_probe(self, model, state_file, cells, tmp_path):
        # a state file replaces the Bloch (r, theta, phi) or GHZ (p) probe,
        # so its row leaves those cells blank and prints the dynamics' own
        settings = ["model=" + model, "r=0.2", "theta=0", "n_steps=11"]
        if state_file == "bloch":
            state_file = tmp_path / "probe.txt"
            save_state(state_file, bloch_state(BlochVector(0.2, 1.0, 0.3)))
        elif state_file:
            state_file = DATA / state_file
        if state_file:
            settings.append(f"state_file={state_file}")
        out = tmp_path / "cells.csv"
        assert run_cli(["sweep", *(a for s in settings for a in ("--set", s)), "--out", out]) == 0
        header, row = (line.split(",") for line in out.read_text().splitlines())
        params = slice(header.index("model") + 1, header.index("alpha"))
        printed = {key: cell for key, cell in zip(header[params], row[params]) if cell}
        assert printed == cells

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modle = depolarizing\n")
        assert run_cli(["sweep", "--config", cfg]) == 1

    def test_invalid_grid_rejected(self):
        assert run_cli(["sweep", "--set", "alpha_grid=0.0,0.9,5"]) == 1

    @pytest.mark.parametrize("outputs", ["", "errors", " , errors"])
    def test_outputs_without_a_report_group_rejected(self, outputs, tmp_path, capsys,
                                                     monkeypatch):
        # such a sweep would evaluate every trajectory and write blank cells
        monkeypatch.setattr(cli, "sweep_rows", lambda cfg: pytest.fail("panel evaluated"))
        out = tmp_path / "none.csv"
        assert run_cli(["sweep", "--set", f"outputs={outputs}", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("config error: outputs name no report group")
        assert not out.exists()
        with pytest.raises(ConfigError, match="no report group"):
            cli.SweepConfig(outputs=("errors",)).validate()
        for group in ("entropy", "bounds", "qsl"):
            cli.SweepConfig(outputs=(group, "errors")).validate()

    def test_overflowing_kraus_entry_fails_every_row(self, tmp_path):
        # 1e200 is finite, so the file loads, but its square overflows:
        # every row fails the completeness check, with no numpy warning
        kraus = tmp_path / "huge.kraus"
        kraus.write_text("1 2\n1e200 0\n0 0\n0 0\n1 0\n")
        out = tmp_path / "huge.csv"
        rc = run_cli(["sweep", "--set", "model=custom_kraus_file", "--set", f"kraus_file={kraus}",
                      "--set", "alpha_grid=0.3,0.7,2", "--set", "time_grid=0.5,1.0,2",
                      "--set", "n_steps=11", "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert line.split(",")[header.index("warnings")] == "error:CompletenessViolationError"

    def test_custom_kraus_identity(self, tmp_path):
        kraus = tmp_path / "identity.kraus"
        kraus.write_text("1 2\n1 0\n0 0\n0 0\n1 0\n")
        probe = tmp_path / "probe.txt"
        save_state(probe, bloch_state(BlochVector(0.5, 1.0, 0.2)))
        out = tmp_path / "custom.csv"
        rc = run_cli(["sweep", "--set", "model=custom_kraus_file",
                      "--set", f"kraus_file={kraus}", "--set", f"state_file={probe}",
                      "--set", "alpha_grid=0.4", "--set", "time_grid=1.0",
                      "--set", "n_steps=101", "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert float(row[header.index("D_fwd")]) == pytest.approx(0.0, abs=1e-12)
        assert float(row[header.index("tau_qsl")]) == 0.0


class TestFigurePresets:
    def test_panel_definitions(self):
        fig2 = cli.figure_panels("fig2")
        assert len(fig2) == 1
        assert fig2[0].model == "depolarizing"
        assert fig2[0].r == 0.75
        assert fig2[0].z_grid == (1.0, 1.0, 1)
        assert fig2[0].alpha_grid[2] == 100 and fig2[0].time_grid == (0.0, 20.0, 100)

        fig4 = cli.figure_panels("fig4")
        assert [(c.p, c.s) for c in fig4] == [(0.25, 0.5), (0.9, 0.5), (0.25, 10.0), (0.9, 10.0)]
        assert all(c.model == "amplitude_damping" for c in fig4)

        fig3 = cli.figure_panels("fig3")
        assert "errors" in fig3[0].outputs

        with pytest.raises(ConfigError):
            cli.figure_panels("fig9")

    def test_fig3_fig5_fig6_are_aliases(self):
        # fig3 and fig5 add the errors columns to fig2 and fig4; fig6 is fig5
        def with_errors(name):
            return [replace(c, outputs=c.outputs + ("errors",)) for c in cli.figure_panels(name)]

        assert cli.figure_panels("fig3") == with_errors("fig2")
        assert cli.figure_panels("fig5") == with_errors("fig4")
        assert cli.figure_panels("fig5") == cli.figure_panels("fig6")

    def test_normalized_columns_per_panel(self, tmp_path):
        cfg = cli.SweepConfig(
            model="depolarizing",
            r=0.75,
            alpha_grid=(0.2, 0.8, 3),
            z_grid=(1.0, 1.0, 1),
            time_grid=(0.5, 4.0, 4),
            n_steps=201,
            outputs=("entropy", "bounds", "qsl", "errors"),
        )
        csv_text = cli.run_sweep(cfg)
        lines = csv_text.splitlines()
        header = lines[0].split(",")
        idx = header.index("delta_qsl_norm")
        vals = [float(line.split(",")[idx]) for line in lines[1:] if line.split(",")[idx]]
        assert min(vals) == 0.0 and max(vals) == 1.0


class TestPlotScripts:
    def _small_csv(self, tmp_path):
        cfg = cli.SweepConfig(
            model="depolarizing", r=0.75, alpha_grid=(0.3, 0.7, 2),
            z_grid=(1.0, 1.0, 1), time_grid=(0.5, 2.0, 3), n_steps=101,
        )
        return cli.run_sweep(cfg)

    def test_heatmap_script(self, tmp_path):
        csv_text = self._small_csv(tmp_path)
        script = cli.emit_plot_script(csv_text, "data.csv", "heatmap", "tau_qsl")
        assert "open('data.csv')" in script
        assert "tau_qsl" in script
        assert "pcolormesh" in script
        compile(script, "plot.py", "exec")

    def test_line_script(self, tmp_path):
        csv_text = self._small_csv(tmp_path)
        script = cli.emit_plot_script(csv_text, "data.csv", "line", "D_fwd")
        assert "plot(" in script
        compile(script, "plot.py", "exec")

    @pytest.mark.parametrize("kind", ["heatmap", "line"])
    @pytest.mark.parametrize("name", ['say "hi".csv', "C:\\data\\new.csv", "runs.v2/data"])
    def test_names_enter_as_literals(self, tmp_path, kind, name):
        # a double quote would end a "..." literal early, and the \n of a
        # Windows path would read as a newline in one
        script = cli.emit_plot_script(self._small_csv(tmp_path), name, kind, "tau_qsl")
        tree = ast.parse(script)
        assert name in ast.get_docstring(tree)
        paths = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                if fn in ("open", "savefig"):
                    paths[fn] = ast.literal_eval(node.args[0])
        assert paths == {"open": name, "savefig": os.path.splitext(name)[0] + "_tau_qsl.png"}

    def test_missing_column(self, tmp_path):
        csv_text = self._small_csv(tmp_path)
        with pytest.raises(MissingColumnError):
            cli.emit_plot_script(csv_text, "data.csv", "heatmap", "nonexistent")

    def test_bad_kind(self, tmp_path):
        csv_text = self._small_csv(tmp_path)
        with pytest.raises(ConfigError):
            cli.emit_plot_script(csv_text, "data.csv", "surface", "tau_qsl")

    def test_figure_command_writes_plot_script(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # reduced stand-in for a figure run: sweep with --plot
        out = tmp_path / "mini.csv"
        rc = run_cli(["sweep", "--set", "model=depolarizing",
                      "--set", "alpha_grid=0.3,0.7,2", "--set", "time_grid=1.0,2.0,2",
                      "--set", "n_steps=101", "--out", out, "--plot", "heatmap",
                      "--column", "tau_qsl"])
        assert rc == 0
        assert (tmp_path / "mini_plot.py").exists()

    def test_plot_script_stays_in_a_dotted_directory(self, tmp_path, capsys):
        # the extension is cut from the file name, not from a directory's
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        rc = run_cli(["sweep", "--set", "model=depolarizing",
                      "--set", "alpha_grid=0.3,0.7,2", "--set", "time_grid=1.0,2.0,2",
                      "--set", "n_steps=101", "--out", out_dir / "data", "--plot", "line",
                      "--column", "D_fwd"])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["data", "data_plot.py"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.v2"]
        script = (out_dir / "data_plot.py").read_text()
        assert repr(str(out_dir / "data_D_fwd.png")) in script

    @pytest.mark.parametrize("argv, column", [
        (["sweep", "--set", "time_grid=0,1,2"], "nope"),
        # fig2 renders no errors columns, so no normalized error either
        (["figure", "fig2"], "delta_bound_norm"),
    ], ids=["sweep", "figure"])
    def test_bad_plot_column_is_a_config_error_before_evaluation(
            self, tmp_path, capsys, monkeypatch, argv, column):
        def no_evaluation(cfg):
            raise AssertionError("a panel was evaluated")
        monkeypatch.setattr(cli, "sweep_rows", no_evaluation)
        out = tmp_path / "g.csv"
        rc = run_cli(argv + ["--out", out, "--plot", "line", "--column", column])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: plot column {column!r}")
        assert not out.exists()

    def test_plot_column_of_the_errors_group_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = run_cli(["sweep", "--set", "outputs=entropy,bounds,qsl,errors",
                      "--set", "alpha_grid=0.3,0.7,2", "--set", "time_grid=1.0,2.0,2",
                      "--set", "n_steps=101", "--out", out, "--plot", "line",
                      "--column", "delta_bound_norm"])
        assert rc == 0
        assert "delta_bound_norm" in out.read_text().partition("\n")[0].split(",")
        assert (tmp_path / "g_plot.py").exists()


class TestFigureCommand:
    def test_fig2_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        rc = run_cli(["figure", "fig2", "--out", out, "--plot", "heatmap",
                      "--column", "tau_qsl"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100 * 100 + 1
        assert (tmp_path / "fig2_plot.py").exists()
        header = lines[0].split(",")
        # spot value: row nearest (alpha ~ 0.9, t ~ 5) should exceed the one
        # nearest (alpha ~ 0.5, t ~ 5)
        ia, it, iq = header.index("alpha"), header.index("t"), header.index("tau_qsl")
        best = {}
        for line in lines[1:]:
            row = line.split(",")
            a, t = float(row[ia]), float(row[it])
            for target in (0.5, 0.9):
                key = target
                score = abs(a - target) + abs(t - 5.0) / 100.0
                if key not in best or score < best[key][0]:
                    best[key] = (score, float(row[iq]))
        assert best[0.5][1] < best[0.9][1]


class TestSelftestCommand:
    def test_passes_with_small_draw_count(self, capsys):
        rc = run_cli(["selftest", "--draws", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") >= 6

    @pytest.mark.parametrize("draws", ["0", "-1", "-100"])
    def test_rejects_draw_counts_below_one(self, capsys, draws):
        # with no draws the randomized checks would compare nothing and pass
        rc = run_cli(["selftest", "--draws", draws])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("config error: draws must be >= 1")
        assert "SELFTEST" not in captured.out


    def test_gamma_check_reads_the_pipeline(self, monkeypatch):
        # a gamma off by 1e-6 relative in dynamics fails the check
        pair = dyn._decoherence_pair

        def scaled(*args):
            g, dg = pair(*args)
            return g * (1 + 1e-6), dg

        monkeypatch.setattr(dyn, "_decoherence_pair", scaled)
        assert not selftest._gamma_check(None, 1)


class TestModuleEntryPoint:
    def test_python_m_azqsl_runs_warning_free(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "azqsl", "selftest", "--draws", "5"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "SELFTEST summary: 6/6" in proc.stdout
