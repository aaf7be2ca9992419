"""The docs suite is part of tier-1: drift fails the build locally,
not just in the CI docs job."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def test_docs_suite_exists():
    assert (ROOT / "README.md").exists()
    for name in ("architecture.md", "cluster.md", "benchmarks.md"):
        assert (ROOT / "docs" / name).exists(), name


def test_no_drift_from_roadmap():
    assert check_docs.check(ROOT) == []


def test_canonical_command_extracted():
    command = check_docs.canonical_verify_command(ROOT)
    assert "pytest" in command


def test_lost_required_section_is_detected(tmp_path):
    """Deleting the Execution model section (or the concurrency scenario
    docs) must fail the check."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n"
        "[a](docs/architecture.md) [b](docs/benchmarks.md)\n")
    (tmp_path / "docs" / "architecture.md").write_text("# Architecture\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# Benchmarks\n\n| `concurrency` | open loop |\n"
        "concurrency_hockey_stick.txt\n")
    violations = check_docs.check(tmp_path)
    assert any("Execution model" in v for v in violations)
    assert any("Storage engines" in v for v in violations)
    assert not any("`concurrency`" in v for v in violations)


def test_undocumented_bench_scenario_is_detected(tmp_path):
    """A scenario registered in the bench CLI but absent from
    docs/benchmarks.md must fail the check."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "[b](docs/benchmarks.md)\n"
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# Benchmarks\n\n| `oldthing` | documented |\n")
    bench = tmp_path / "src" / "repro" / "bench"
    bench.mkdir(parents=True)
    (bench / "__main__.py").write_text(
        'EXPERIMENTS = {\n    "oldthing": run_old,\n'
        '    "newthing": run_new,\n}\n')
    violations = check_docs.check(tmp_path)
    assert any("newthing" in v for v in violations)
    assert not any("oldthing" in v for v in violations)


def test_dangling_docstring_reference_is_detected(tmp_path):
    """A docstring under src/ or benchmarks/ naming a ``*.md`` file that
    does not exist must fail the check; names that resolve (at the
    root, under docs/, or by path) and comments must not."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n"
        "[a](docs/architecture.md)\n")
    (tmp_path / "docs" / "architecture.md").write_text("# A\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See DESIGN.md and architecture.md."""\n'
        "# NOTES.md is only a comment\n"
        "def f():\n"
        '    """Details in docs/architecture.md, summary in\n'
        '    README.md, history in docs/GONE.md."""\n')
    violations = [v for v in check_docs.check(tmp_path)
                  if "docstring names" in v]
    assert len(violations) == 2
    assert "src/pkg/mod.py:1: docstring names DESIGN.md" in violations[0]
    assert "src/pkg/mod.py:5: docstring names docs/GONE.md" \
        in violations[1]


def test_stale_module_path_is_detected(tmp_path):
    """A backticked ``*.py`` path in the docs must name a file: one with
    a ``/`` from the root or from src/repro/, a bare name as a basename
    under the code trees; unbackticked text and the dated trajectory of
    docs/benchmarks.md do not count."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n"
        "[a](docs/architecture.md) [b](docs/benchmarks.md)\n"
        "Run `tools/lint.py --all`; see `sqlstore/gone.py`.\n")
    (tmp_path / "docs" / "architecture.md").write_text(
        "# A\n\n`kvstore/aof.py::AofWriter`, `engine.py`, `wal.py`,\n"
        "sqlstore/wal.py in prose, `src/repro/sqlstore/wal.py:39`.\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# B\n\n`perf/run.py`\n\n## Host-time trajectory\n\n"
        "`sqlstore/wal.py` as it stood then.\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "lint.py").write_text("")
    (tmp_path / "perf").mkdir()
    (tmp_path / "perf" / "run.py").write_text("")
    source = tmp_path / "src" / "repro" / "kvstore"
    source.mkdir(parents=True)
    (source / "aof.py").write_text("")
    (source.parent / "engine.py").write_text("")
    violations = [v for v in check_docs.check(tmp_path)
                  if "which does not exist" in v]
    assert violations == [
        "README.md:5: names sqlstore/gone.py, which does not exist",
        "docs/architecture.md:3: names wal.py, which does not exist",
        "docs/architecture.md:4: names src/repro/sqlstore/wal.py, which "
        "does not exist"]


def test_uninstalled_third_party_import_is_detected(tmp_path):
    """A module under src/ importing a package CI never installs must
    fail the check -- wherever the import sits -- and pass once the pip
    line names it; stdlib, relative and in-tree imports never count."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "import json\nimport os.path\nfrom . import sibling\n"
        "from pkg.other import thing\n"
        "def zeta(n):\n"
        "    import numpy as np\n"
        "    return np.arange(n).sum()\n")
    workflow = tmp_path / ".github" / "workflows" / "ci.yml"
    workflow.parent.mkdir(parents=True)

    def import_violations():
        return [v for v in check_docs.check(tmp_path)
                if "does not pip install" in v]

    workflow.write_text(
        "      run: python -m pip install pytest hypothesis\n")
    assert import_violations() == [
        "src/pkg/mod.py:6: imports numpy, which "
        ".github/workflows/ci.yml does not pip install"]
    workflow.write_text(
        "      run: python -m pip install -U pytest hypothesis numpy\n")
    assert import_violations() == []


def test_function_level_import_is_seen_in_the_live_tree():
    """``ycsb/distributions.py::zeta`` imports numpy inside the function;
    ``test_no_drift_from_roadmap`` then holds CI's pip line to it."""
    assert "numpy" in {module for _, _, module
                       in check_docs.third_party_imports(ROOT)}


def test_flag_the_bench_cli_lacks_is_detected(tmp_path):
    """A ``--flag`` advertised under the bench-CLI sections of
    docs/benchmarks.md must be an option of the parser; flags of other
    tools in other sections are none of this check's business."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "[b](docs/benchmarks.md)\n"
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# Benchmarks\n\n## Running the CLI\n\n`--records N` scales.\n\n"
        "## Scenarios\n\n| `w` | sweep (`--cores`, `--adaptive-batch`) |\n"
        "\n## Host-time trajectory\n\n`perf/run.py --trace 1`\n")
    bench = tmp_path / "src" / "repro" / "bench"
    bench.mkdir(parents=True)
    (bench.parent / "__init__.py").write_text("")
    (bench / "__init__.py").write_text("")
    (bench / "__main__.py").write_text(
        "import argparse\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--records')\n"
        "parser.add_argument('--cores')\n"
        "parser.parse_args()\n")
    violations = [v for v in check_docs.check(tmp_path)
                  if "does not accept" in v]
    assert violations == [
        "docs/benchmarks.md:9: mentions --adaptive-batch, which "
        "`python -m repro.bench` does not accept"]


def test_stale_sample_of_a_committed_artifact_is_detected(tmp_path):
    """A fenced block that opens with a bench_results table's header
    must quote that file's lines; a block with any other header (a
    truncated one, a shell command) is not a sample of it."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "bench_results").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "[b](docs/benchmarks.md)\n"
        "```\nPYTHONPATH=src python -m pytest -x -q\n```\n")
    (tmp_path / "bench_results" / "tiering.txt").write_text(
        "mode      ops/s   hot keys\n"
        "--------  ------  --------\n"
        "hot-only  14,619  150\n"
        "tiered    14,619  75\n")
    (tmp_path / "docs" / "benchmarks.md").write_text(
        "# Benchmarks\n\n"
        "```\nmode      ops/s   hot keys\ntiered    14,619  75\n```\n\n"
        "```\nmode      ops/s   hot keys\nhot-only  14,839  120\n"
        "tiered    14,619  75\n```\n\n"
        "```\nmode  ...  hot keys\ntiered  ...  60\n```\n")
    violations = [v for v in check_docs.check(tmp_path)
                  if "sample row" in v]
    assert violations == [
        "docs/benchmarks.md:10: sample row is not a line of "
        "bench_results/tiering.txt:\n    hot-only  14,839  120"]


def test_registered_scenarios_parsed_from_cli():
    names = check_docs.bench_scenarios(ROOT)
    assert "concurrency" in names and "figure1" in names


def test_drift_is_detected(tmp_path):
    """The checker is not a rubber stamp: a paraphrased verify command
    in README must be flagged."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "ROADMAP.md").write_text(
        "**Tier-1 verify:** `PYTHONPATH=src python -m pytest -x -q`\n")
    (tmp_path / "README.md").write_text(
        "```\nPYTHONPATH=. python -m pytest -q\n```\n")
    violations = check_docs.check(tmp_path)
    assert any("drifted" in v for v in violations)
    assert any("does not quote" in v for v in violations)
