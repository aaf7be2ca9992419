#!/usr/bin/env python3
"""List the functions and classes under src/repro that nothing references.

A definition counts as referenced when its name appears anywhere in a
file under ``src/``, ``perf/``, ``examples/``, ``benchmarks/`` or
``tools/`` as a name, an attribute, an imported name, or a string
constant that is an identifier (``getattr(obj, "name")``).  Three
mentions do not count: an import inside a package ``__init__.py`` (a
re-export), a string listed in ``__all__``, and this file's ``SEAMS``
table.  Tests are not a caller:
a definition only ``tests/`` reaches is listed.  The match is by bare
name, so a definition that shares its name with anything referenced
elsewhere is not listed.  Decorated definitions (registered command
handlers, properties) and dunders are skipped.

The only definitions allowed to have no caller are the test seams in
``SEAMS``, each keyed by ``(path, qualified name)`` with its reason.

Usage::

    python tools/uncalled.py             # this repository
    python tools/uncalled.py ROOT        # another checkout

Prints ``path:line qualified.name`` per unreferenced definition (a seam
with its reason), then a count line.  Exits 1 when a listed definition
is not in ``SEAMS``, or when a ``SEAMS`` entry no longer exists or has
gained a caller (printed on stderr); 2 when ROOT has no ``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, Set, Tuple

DEFAULT_ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perf", "examples", "benchmarks", "tools")
SELF = "tools/uncalled.py"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

SEAMS: Dict[Tuple[str, str], str] = {
    ("src/repro/device/faults.py", "FaultPlan"):
        "the fault seam: the only way a test reaches a device fault",
    ("src/repro/device/faults.py", "FaultPlan.fail"):
        "the fault seam: a failed device operation",
    ("src/repro/device/faults.py", "FaultPlan.tear"):
        "the fault seam: a torn final write",
    ("src/repro/tiering/engine.py", "TieredEngine.demote_keys"):
        "forced demotion of named keys to the cold tier",
    ("src/repro/tiering/engine.py", "TieredEngine.cold_stats"):
        "the cold tier's counters: the device-bytes golden run's probe",
    ("src/repro/common/clock.py", "SimClock.pending_timers"):
        "the timer-leak probe",
    ("src/repro/cluster/client.py", "ClusterClient.recover_shard"):
        "node restart: reopens a dead shard over its own devices",
    ("src/repro/cluster/migration.py", "SlotMigrator.abort"):
        "the only recovery for an interrupted slot migration",
    ("src/repro/gdpr/rights.py", "right_to_object"):
        "Art. 21, the right to object",
    ("src/repro/kvstore/aof.py", "contains_key"):
        "the reference scan the host-path property test compares against",
    ("src/repro/common/resp.py", "decode_all"):
        "one-shot RESP decode of a whole buffer",
}


def _trees(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _exports(tree: ast.AST) -> Set[int]:
    """ids of the string constants listed in ``__all__``."""
    listed: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                listed.update(id(n) for n in ast.walk(node.value))
    return listed


def references(root: pathlib.Path) -> Set[str]:
    """Every name the caller directories of ``root`` mention."""
    names: Set[str] = set()
    for directory in CALLER_DIRS:
        for path, tree in _trees(root / directory):
            if path.relative_to(root).as_posix() == SELF:
                continue
            reexports = path.name == "__init__.py"
            listed = _exports(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    if not reexports:
                        names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value.isidentifier() \
                        and id(node) not in listed:
                    names.add(node.value)
    return names


def _definitions(tree: ast.AST, prefix: str = ""):
    """``(line, qualified name, node)`` of every definition in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFINITIONS):
            qualname = prefix + node.name
            yield node.lineno, qualname, node
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def _scan(root: pathlib.Path) -> Tuple[Set[Tuple[str, str]],
                                      List[Tuple[str, int, str]]]:
    """Every ``(path, qualified name)`` defined under ``root/src/repro``,
    and ``(path, line, qualified name)`` of each unreferenced one
    (undecorated, not a dunder), paths relative to ``root``."""
    used = references(root)
    defined: Set[Tuple[str, str]] = set()
    found = []
    for path, tree in _trees(root / "src" / "repro"):
        rel = path.relative_to(root).as_posix()
        for line, qualname, node in _definitions(tree):
            defined.add((rel, qualname))
            name = node.name
            if node.decorator_list or (name.startswith("__")
                                       and name.endswith("__")):
                continue
            if name not in used:
                found.append((rel, line, qualname))
    return defined, sorted(found)


def uncalled(root: pathlib.Path) -> List[Tuple[str, int, str]]:
    """``(path, line, qualified name)`` of each unreferenced definition
    under ``root/src/repro``, paths relative to ``root``."""
    return _scan(root)[1]


def main(argv: List[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    root = pathlib.Path(argv[0]) if argv else DEFAULT_ROOT
    if not (root / "src" / "repro").is_dir():
        print(f"uncalled.py: no src/repro under {root}", file=sys.stderr)
        return 2
    defined, found = _scan(root)
    listed = {(path, qualname) for path, _, qualname in found}
    for path, line, qualname in found:
        seam = SEAMS.get((path, qualname))
        print(f"{path}:{line} {qualname}"
              + (f"  # seam: {seam}" if seam else ""))
    strays = listed - SEAMS.keys()
    print(f"{len(found)} definitions under src/repro have no reference "
          f"outside tests/; {len(strays)} of them are not in SEAMS")
    stale = sorted(SEAMS.keys() - listed)
    for path, qualname in stale:
        why = "has a caller" if (path, qualname) in defined \
            else "no longer exists"
        print(f"uncalled.py: seam {path} {qualname} {why}",
              file=sys.stderr)
    return 1 if strays or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
