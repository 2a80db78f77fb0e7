"""The README's quick-start snippet runs as written and prints what it
claims."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs(capsys):
    exec(compile(quick_start_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "speed-limit time:" in out
    assert "same as qsl_nonunitary: True" in out
