"""tools/loc.py counts what ROADMAP's line budgets are stated in."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
two lines."""

# a comment-only line
import os  # code with a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a multi-line
        string literal"""
        return (os.sep,
                text)
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line assignment, the two-line return.
    assert loc.code_lines(SOURCE) == 7


def test_tree_is_grouped_by_package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "sub").mkdir()
    (tmp_path / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "top.py").write_text('"""doc"""\n')
    assert loc.count_tree(tmp_path) == {"pkg": 3, ".": 0}


def test_help_prints_usage(capsys):
    assert loc.main(["--help"]) == 0
    assert "Usage::" in capsys.readouterr().out
    assert loc.main(["-h"]) == 0


def test_missing_path_is_a_usage_error(capsys):
    assert loc.main(["no/such/path"]) == 2
    captured = capsys.readouterr()
    assert "no/such/path" in captured.err
    assert "total" not in captured.out
