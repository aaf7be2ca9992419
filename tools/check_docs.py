#!/usr/bin/env python3
"""Guard the docs against drifting from the repo's ground truth.

Checks, against ROADMAP.md's canonical tier-1 verify command:

1. README.md must quote the canonical verify command verbatim inside a
   code fence (the quickstart must never teach a stale gate);
2. any fenced code line in README.md or docs/*.md that *looks like* the
   verify command (sets PYTHONPATH and invokes pytest without selecting
   a subpath) must match it exactly -- no paraphrased variants;
3. every docs file README.md links to must exist, and every doc must be
   reachable from README.md (no orphaned docs);
4. load-bearing sections stay present: docs/architecture.md must keep
   its "Execution model" and "Replication" sections (closed-loop vs
   open-loop, and the erasure-horizon/replica-handoff contract, are
   what the ycsb/bench layers are written against), and
   docs/benchmarks.md must keep its `replication` reading guide and
   mention every scenario the bench CLI registers (the EXPERIMENTS
   keys parsed out of src/repro/bench/__main__.py);
5. a ``*.md`` file named in a docstring under src/ or benchmarks/ must
   exist (at the path given, or by bare name at the root or in docs/):
   code must not send readers to documents that were never written;
6. every third-party module imported under src/ (anywhere, including
   inside a function) must be named on the ``pip install`` line of
   .github/workflows/ci.yml: a dependency that happens to be installed
   on the author's machine must not first fail on a clean runner;
7. every ``--flag`` docs/benchmarks.md mentions under its two bench-CLI
   sections ("Running the CLI", "Scenarios") must be an option of
   ``python -m repro.bench`` (read off its own ``--help``): the docs
   must not advertise a flag the parser no longer has;
8. a fenced block in docs/*.md whose first line is the header line of
   a table in some ``bench_results/*.txt`` file (the line above a rule
   of dashes) must consist only of lines of that file: a sample quoted
   beside a committed artifact must not show numbers the artifact
   does not hold;
9. a backticked ``*.py`` path containing a ``/`` in README.md,
   docs/architecture.md, docs/cluster.md, or docs/benchmarks.md above
   its "Host-time trajectory" heading must name a file that exists,
   from the repository root or from src/repro/: the docs must not send
   readers to a module that was deleted or moved.  The trajectory is a
   dated record and stays as written.

Run from the repository root (CI does), or pass the root as argv[1].
Exits non-zero listing each violation.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

VERIFY_RE = re.compile(r"\*\*Tier-1 verify:\*\*\s*`([^`]+)`")
FENCE_RE = re.compile(r"^```")
LINK_RE = re.compile(r"\]\((docs/[A-Za-z0-9_.-]+\.md)\)")
DOCSTRING_MD_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b")
DOCSTRING_ROOTS = ("src", "benchmarks")
CI_WORKFLOW = ".github/workflows/ci.yml"
PIP_INSTALL_RE = re.compile(r"pip install\s+(.*)")

# Sections/mentions a doc must keep (drift check 4).  Each entry:
# doc path -> list of (required substring, why it is load-bearing).
REQUIRED_DOC_CONTENT = {
    "docs/architecture.md": [
        ("## Execution model",
         "the one-cluster-execution-model contract (closed loop and "
         "open loop are two drivers of the same event core) the "
         "ycsb/bench layers are written against"),
        ("## Replication",
         "the erasure-horizon / replica-handoff contract the cluster "
         "and bench layers are written against"),
        ("## Storage engines",
         "the StorageEngine contract (write/deletion taps, keyspace "
         "views, durability hooks) every upper layer is written "
         "against, and the two backends implementing it"),
        ("## Audit",
         "the sealed-block chain + write-behind indexing contract and "
         "the visibility-window trade-off the fast-GDPR mode is "
         "written against"),
        ("## Tiered storage",
         "the demote/promote indistinguishability contract, the "
         "seal-before-remove crash contract, and the archive-reaching "
         "crypto-erasure the tiering tests and bench are written "
         "against"),
        ("## Multi-core shards & autoscaling",
         "the dispatch rules, stop-the-world barrier semantics for the "
         "GDPR fan-out, the batching controller, and the autoscaler "
         "ladder the workers/autoscale layers are written against"),
        ("### Skew-aware placement",
         "the placement-table / rebalance-trigger / split-read "
         "invariants the skew-aware scheduling layer is written "
         "against"),
        ("## Multi-tenancy",
         "the namespace / admission-gate / per-tenant-policy / "
         "metering contract the tenancy layer and cluster boundary "
         "are written against"),
    ],
    "docs/benchmarks.md": [
        ("### Reading the `replication` output",
         "the erasure-horizon columns need a reading guide or the "
         "compliance claim is unverifiable"),
        ("### Reading the `backends` output",
         "the per-feature overhead table needs a reading guide or the "
         "paper's Redis-vs-Postgres headline is unverifiable"),
        ("### Reading the `fast-gdpr` row",
         "the fast-GDPR column needs a reading guide or the "
         "throughput-vs-visibility-window trade-off is unverifiable"),
        ("concurrency_hockey_stick.txt",
         "the committed latency-vs-offered-load artifact must stay "
         "documented and regenerable"),
        ("### Reading the `tiering` output",
         "the footprint/promote/erasure columns need a reading guide "
         "or the tiered-storage claims are unverifiable"),
        ("tiering.txt",
         "the tiered-vs-hot-only artifact must stay documented and "
         "regenerable"),
        ("### Reading `concurrency_workers.txt`",
         "the workers-vs-ceiling artifact needs a reading guide or the "
         "multi-core knee claim is unverifiable"),
        ("concurrency_workers.txt",
         "the committed workers-vs-ceiling artifact must stay "
         "documented and regenerable"),
        ("### Reading `concurrency_workers_skew.txt`",
         "the skew table needs a reading guide or the placed-vs-static "
         "zipfian knee claim is unverifiable"),
        ("concurrency_workers_skew.txt",
         "the committed skew-vs-placement artifact must stay "
         "documented and regenerable"),
        ("### Reading the `tenancy` output",
         "the admitted/throttled/p99 columns need a reading guide or "
         "the noisy-neighbour isolation claim is unverifiable"),
        ("tenancy.txt",
         "the committed quota-enforcement artifact must stay "
         "documented and regenerable"),
        ("`scaling.txt`, `resharding.txt`, `replication.txt`",
         "the committed closed-loop cluster artifacts must stay "
         "documented and regenerable"),
        ("perf/README.md",
         "the host-cost benchmark must stay reachable from the "
         "benchmark docs"),
    ],
}

# The bench CLI's experiment registry; every key must be documented in
# docs/benchmarks.md (parsed textually so this script stays stdlib-only
# and runnable without PYTHONPATH).
EXPERIMENTS_RE = re.compile(r"^EXPERIMENTS\s*=\s*\{(.*?)\}", re.S | re.M)
EXPERIMENT_KEY_RE = re.compile(r'"([a-z0-9_]+)"\s*:')


BENCH_CLI_SECTIONS = ("## Running the CLI", "## Scenarios")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z-]*")

# Check 9: the docs whose module paths must resolve, each read up to the
# heading (if any) where its dated record begins.
PATH_DOCS = {"README.md": None, "docs/architecture.md": None,
             "docs/cluster.md": None,
             "docs/benchmarks.md": "## Host-time trajectory"}
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
MODULE_PATH_RE = re.compile(r"[\w.-]*(?:/[\w.-]+)+\.py\b")


def bench_cli_flags(root: pathlib.Path) -> set:
    """Every ``--flag`` the bench CLI accepts, read off the ``--help``
    of the parser itself (empty if the module is absent or broken, so
    every documented flag is then reported)."""
    if not (root / "src" / "repro" / "bench" / "__main__.py").exists():
        return set()
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--help"], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True)
    return set(FLAG_RE.findall(result.stdout))


def documented_bench_flags(text: str):
    """``(line, flag)`` for every ``--flag`` under the sections of
    docs/benchmarks.md that document the bench CLI."""
    section = None
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("## "):
            section = line.strip()
        elif section in BENCH_CLI_SECTIONS:
            for flag in FLAG_RE.findall(line):
                yield number, flag


def bench_scenarios(root: pathlib.Path) -> list:
    """The scenario names the bench CLI registers (empty if the module
    moved -- the structure check below flags that)."""
    path = root / "src" / "repro" / "bench" / "__main__.py"
    if not path.exists():
        return []
    match = EXPERIMENTS_RE.search(path.read_text())
    if match is None:
        return []
    return EXPERIMENT_KEY_RE.findall(match.group(1))


def docstring_md_references(root: pathlib.Path):
    """``(relative path, line, name)`` for every ``*.md`` file named in a
    module, class or function docstring under :data:`DOCSTRING_ROOTS`."""
    for top in DOCSTRING_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Module, ast.ClassDef,
                                         ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if ast.get_docstring(node, clean=False) is None:
                    continue
                literal = node.body[0].value
                for offset, line in enumerate(
                        literal.value.splitlines()):
                    for name in DOCSTRING_MD_RE.findall(line):
                        yield (path.relative_to(root),
                               literal.lineno + offset, name)


def third_party_imports(root: pathlib.Path):
    """``(relative path, line, module)`` for every absolute import under
    src/ of a top-level module that is neither standard library nor one
    of the packages src/ itself holds."""
    source = root / "src"
    if not source.is_dir():
        return
    local = {path.stem for path in source.iterdir()}
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    yield path.relative_to(root), node.lineno, top


def ci_installed_packages(root: pathlib.Path) -> set:
    """Every package named after ``pip install`` in the CI workflow."""
    workflow = root / CI_WORKFLOW
    if not workflow.exists():
        return set()
    return {word.lower().replace("-", "_")
            for line in PIP_INSTALL_RE.findall(workflow.read_text())
            for word in line.split() if not word.startswith("-")}


def stale_module_paths(root: pathlib.Path):
    """``(doc, line, path)`` for every backticked ``*.py`` path (one
    with a ``/``) in :data:`PATH_DOCS` that names no file, from the root
    or from src/repro/."""
    for rel, stop in PATH_DOCS.items():
        path = root / rel
        if not path.exists():
            continue
        for number, line in enumerate(path.read_text().splitlines(),
                                      start=1):
            if line.strip() == stop:
                break
            for span in CODE_SPAN_RE.findall(line):
                for name in MODULE_PATH_RE.findall(span):
                    if not ((root / name).exists()
                            or (root / "src" / "repro" / name).exists()):
                        yield rel, number, name


def md_reference_exists(root: pathlib.Path, name: str) -> bool:
    if "/" in name:
        return (root / name).exists()
    return (root / name).exists() or (root / "docs" / name).exists()


def canonical_verify_command(root: pathlib.Path) -> str:
    text = (root / "ROADMAP.md").read_text()
    match = VERIFY_RE.search(text)
    if match is None:
        raise SystemExit("ROADMAP.md no longer declares a "
                         "'**Tier-1 verify:** `...`' command")
    return match.group(1).strip()


def fenced_lines(text: str):
    """Lines inside ``` fences, with their 1-based line numbers."""
    inside = False
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            inside = not inside
            continue
        if inside:
            yield number, line.strip()


RULE_RE = re.compile(r"^-+( +-+)*$")


def bench_result_tables(root: pathlib.Path) -> dict:
    """Header line -> ``[(file name, its lines)]`` for every table a
    ``bench_results/*.txt`` file holds."""
    tables: dict = {}
    for path in sorted((root / "bench_results").glob("*.txt")):
        lines = path.read_text().splitlines()
        for header, rule in zip(lines, lines[1:]):
            if header and RULE_RE.match(rule):
                tables.setdefault(header, []).append(
                    (path.name, set(lines)))
    return tables


def fenced_blocks(text: str):
    """``(first line number, lines)`` of every non-empty ``` block,
    lines right-stripped only (table rows are column-aligned)."""
    block = None
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            if block:
                yield number - len(block), block
            block = None if block is not None else []
        elif block is not None:
            block.append(line.rstrip())


def looks_like_verify(line: str) -> bool:
    """A fence line presenting *the* tier-1 gate: a pytest invocation
    over the whole tree (no explicit test path) with PYTHONPATH set."""
    if "pytest" not in line or "PYTHONPATH" not in line:
        return False
    tail = line.split("pytest", 1)[1]
    return not any(part.startswith(("tests", "benchmarks"))
                   for part in tail.split())


def check(root: pathlib.Path) -> list:
    violations = []
    verify = canonical_verify_command(root)
    readme = root / "README.md"
    docs = sorted((root / "docs").glob("*.md"))
    if not readme.exists():
        return [f"{readme} is missing"]

    readme_text = readme.read_text()
    if verify not in readme_text:
        violations.append(
            "README.md does not quote the canonical tier-1 verify "
            f"command from ROADMAP.md: `{verify}`")

    for path in [readme, *docs]:
        for number, line in fenced_lines(path.read_text()):
            if looks_like_verify(line) and line != verify:
                violations.append(
                    f"{path.relative_to(root)}:{number}: verify-like "
                    f"command drifted from ROADMAP.md:\n"
                    f"    found:     {line}\n"
                    f"    canonical: {verify}")

    requirements = {rel: list(needs)
                    for rel, needs in REQUIRED_DOC_CONTENT.items()}
    requirements.setdefault("docs/benchmarks.md", []).extend(
        (f"`{name}`", "a scenario the bench CLI registers")
        for name in bench_scenarios(root))
    for rel, needs in requirements.items():
        path = root / rel
        if not path.exists():
            violations.append(f"{rel} is missing")
            continue
        text = path.read_text()
        for needle, why in needs:
            if needle not in text:
                violations.append(
                    f"{rel} lost required content {needle!r} ({why})")

    benchmarks_doc = root / "docs" / "benchmarks.md"
    if benchmarks_doc.exists():
        mentioned = list(documented_bench_flags(benchmarks_doc.read_text()))
        accepted = bench_cli_flags(root) if mentioned else set()
        for line, flag in mentioned:
            if flag not in accepted:
                violations.append(
                    f"docs/benchmarks.md:{line}: mentions {flag}, which "
                    "`python -m repro.bench` does not accept")

    tables = bench_result_tables(root)
    for path in docs:
        for number, block in fenced_blocks(path.read_text()):
            holders = tables.get(block[0])
            # A header shared by several files: any one may hold the rows.
            if not holders or any(lines.issuperset(filter(None, block))
                                  for _, lines in holders):
                continue
            name, lines = holders[0]
            violations.extend(
                f"{path.relative_to(root)}:{number + offset}: sample row "
                f"is not a line of bench_results/{name}:\n    {line}"
                for offset, line in enumerate(block)
                if line and line not in lines)

    for rel, line, name in docstring_md_references(root):
        if not md_reference_exists(root, name):
            violations.append(
                f"{rel}:{line}: docstring names {name}, which does not "
                "exist")

    for rel, line, name in stale_module_paths(root):
        violations.append(
            f"{rel}:{line}: names {name}, which does not exist")

    installed = ci_installed_packages(root)
    for rel, line, module in third_party_imports(root):
        if module not in installed:
            violations.append(
                f"{rel}:{line}: imports {module}, which {CI_WORKFLOW} "
                "does not pip install")

    linked = set(LINK_RE.findall(readme_text))
    for target in sorted(linked):
        if not (root / target).exists():
            violations.append(f"README.md links to missing {target}")
    for path in docs:
        rel = f"docs/{path.name}"
        if rel not in linked:
            violations.append(
                f"{rel} is not linked from README.md (orphaned doc)")
    return violations


def main(argv) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 \
        else pathlib.Path(__file__).resolve().parent.parent
    violations = check(root)
    if violations:
        print("docs check FAILED:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("docs check passed: verify command in sync, "
          "all docs linked and present")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
