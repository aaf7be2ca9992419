"""tools/uncalled.py lists the definitions nothing outside tests/ reaches."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "uncalled", ROOT / "tools" / "uncalled.py")
uncalled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncalled)

LIBRARY = '''import functools


def called_by_name():
    pass


def named_by_string():
    pass


def only_tests_call_me():
    pass


@functools.lru_cache
def decorated():
    pass


class Thing:
    def __repr__(self):
        return "Thing"

    def method_by_attribute(self):
        return called_by_name()

    def orphan_method(self):
        pass


class Unused:
    pass
'''

CALLER = '''from repro.lib import Thing

getattr(Thing(), "named_by_string")
Thing().method_by_attribute()
'''


def _tree(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "lib.py").write_text(LIBRARY)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "caller.py").write_text(CALLER)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_lib.py").write_text(
        "from repro.lib import Unused, only_tests_call_me\n")
    return tmp_path


def test_lists_definitions_no_caller_references(tmp_path):
    found = uncalled.uncalled(_tree(tmp_path))
    assert found == [
        ("src/repro/lib.py", 12, "only_tests_call_me"),
        ("src/repro/lib.py", 28, "Thing.orphan_method"),
        ("src/repro/lib.py", 32, "Unused"),
    ]


def test_prints_one_line_each_then_a_count(tmp_path, capsys):
    assert uncalled.main([str(_tree(tmp_path))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src/repro/lib.py:12 only_tests_call_me"
    assert len(lines) == 4
    assert lines[-1].startswith("3 definitions")


def test_reexport_and_all_are_not_callers(tmp_path):
    root = _tree(tmp_path)
    package = root / "src" / "repro" / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("def reexported():\n    pass\n")
    (package / "__init__.py").write_text(
        "from .mod import reexported\n\n__all__ = [\"reexported\"]\n")
    assert ("src/repro/pkg/mod.py", 1, "reexported") \
        in uncalled.uncalled(root)


def test_seam_entries_are_not_strays(tmp_path, capsys, monkeypatch):
    root = _tree(tmp_path)
    monkeypatch.setattr(uncalled, "SEAMS", {
        ("src/repro/lib.py", name): "a test seam"
        for name in ("only_tests_call_me", "Thing.orphan_method",
                     "Unused")})
    assert uncalled.main([str(root)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("src/repro/lib.py:12 only_tests_call_me"
                      "  # seam: a test seam")
    assert out[-1].endswith("0 of them are not in SEAMS")


def test_stale_seam_entry_fails(tmp_path, capsys, monkeypatch):
    root = _tree(tmp_path)
    monkeypatch.setattr(uncalled, "SEAMS", {
        ("src/repro/lib.py", "only_tests_call_me"): "a test seam",
        ("src/repro/lib.py", "Thing.orphan_method"): "a test seam",
        ("src/repro/lib.py", "Unused"): "a test seam",
        ("src/repro/lib.py", "called_by_name"): "gained a caller",
        ("src/repro/lib.py", "deleted"): "no longer exists"})
    assert uncalled.main([str(root)]) == 1
    err = capsys.readouterr().err
    assert "src/repro/lib.py called_by_name has a caller" in err
    assert "src/repro/lib.py deleted no longer exists" in err


def test_help_prints_usage(capsys):
    assert uncalled.main(["--help"]) == 0
    assert "Usage::" in capsys.readouterr().out


def test_root_without_sources_is_a_usage_error(tmp_path, capsys):
    assert uncalled.main([str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
