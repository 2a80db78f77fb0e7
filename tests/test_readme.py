"""The README's quick-start snippet runs as written and prints what it
claims, and its table of config keys is the command line's."""

import argparse
import re
from pathlib import Path

from azqsl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs(capsys):
    exec(compile(quick_start_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "speed-limit time:" in out
    assert "same as qsl_nonunitary: True" in out


def config_table() -> list[list[str]]:
    """The cells of the "Command line" section's table of config keys,
    below its header and rule."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_config_table_matches_the_cli():
    # the parameter rows are those printed in some model's rows: the CLI's
    # parameter table, in its order, with its models and probe cells
    rows = config_table()
    params = [row for row in rows if row[2] != "—"]
    assert [row[0].strip("`") for row in params] == list(cli.PARAMS)
    for key, flag, models, blank, _ in params:
        param = cli.PARAMS[key.strip("`")]
        assert re.findall(r"`(\w+)`", models) == list(param.models)
        assert blank == ("yes" if param.probe else "no")
    # every config key and every single-point flag, once
    keys = [row[0].strip("`") for row in rows]
    assert sorted(keys) == sorted(cli._CONFIG_KEYS)
    flags = [row[1].strip("`") for row in rows if row[1] != "—"]
    parser = argparse.ArgumentParser()
    cli._add_model_flags(parser)
    options = [o for action in parser._actions for o in action.option_strings]
    assert sorted(flags) == sorted(set(options) - {"-h", "--help"})
