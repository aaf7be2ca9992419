"""Every example script must run cleanly end to end."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent.parent \
    / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in SCRIPTS}
    assert "quickstart.py" in names
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_quickstart_output_mentions_audit(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "audit trail" in out
    assert "blocked" in out


def test_rtbf_output_shows_no_residual(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "right_to_be_forgotten.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "residual in AOF:    False" in out
    assert "bob-data" in out
