#!/usr/bin/env python3
"""List the functions and classes under src/repro that nothing references.

A definition counts as referenced when its name appears anywhere in a
file under ``src/``, ``perf/``, ``examples/``, ``benchmarks/`` or
``tools/`` as a name, an attribute, an imported name, or a string
constant that is an identifier (``getattr(obj, "name")``, ``__all__``).
Tests are not a caller: a definition only ``tests/`` reaches is listed.
The match is by bare name, so a definition that shares its name with
anything referenced elsewhere is not listed.  Decorated definitions
(registered command handlers, properties) and dunders are skipped.

Usage::

    python tools/uncalled.py             # this repository
    python tools/uncalled.py ROOT        # another checkout

Prints ``path:line name`` per unreferenced definition, then a count
line.  It reports only; the exit code is 0 unless ROOT has no
``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Set, Tuple

DEFAULT_ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perf", "examples", "benchmarks", "tools")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def references(root: pathlib.Path) -> Set[str]:
    """Every name the caller directories of ``root`` mention."""
    names: Set[str] = set()
    for directory in CALLER_DIRS:
        for _, tree in _trees(root / directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    names.add(node.value)
    return names


def uncalled(root: pathlib.Path) -> List[Tuple[str, int, str]]:
    """``(path, line, name)`` of each unreferenced definition under
    ``root/src/repro``, paths relative to ``root``."""
    used = references(root)
    found = []
    for path, tree in _trees(root / "src" / "repro"):
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS) or node.decorator_list:
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                found.append((path.relative_to(root).as_posix(),
                              node.lineno, name))
    return sorted(found)


def main(argv: List[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    root = pathlib.Path(argv[0]) if argv else DEFAULT_ROOT
    if not (root / "src" / "repro").is_dir():
        print(f"uncalled.py: no src/repro under {root}", file=sys.stderr)
        return 2
    found = uncalled(root)
    for path, line, name in found:
        print(f"{path}:{line} {name}")
    print(f"{len(found)} definitions under src/repro have no reference "
          f"outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
