#!/usr/bin/env python3
"""Count code lines under a source tree, per package and in total.

A code line is a physical line that carries at least one token other
than a comment, a newline or indentation, and that does not belong to a
docstring (the first statement of a module, class or function when it
is a bare string literal).  Blank lines, comment-only lines and
docstring lines are not counted; a line holding code *and* a trailing
comment is.

Usage::

    python tools/loc.py                  # src/repro, per package
    python tools/loc.py src/repro/kvstore/replication.py ...

A directory prints one row per immediate sub-package (plain modules
directly under it are grouped as ``.``), a file one row; a total
follows.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize
from typing import Dict, List, Set, Tuple

DEFAULT_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count_file(path: pathlib.Path) -> int:
    return code_lines(path.read_text(encoding="utf-8"))


def count_tree(root: pathlib.Path) -> Dict[str, int]:
    """Code lines per immediate sub-package of ``root`` (modules
    directly under it are keyed ``.``)."""
    counts: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "."
        counts[package] = counts.get(package, 0) + count_file(path)
    return counts


def main(argv: List[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    rows: List[Tuple[str, int]] = []
    for target in [pathlib.Path(arg) for arg in argv] or [DEFAULT_ROOT]:
        if not target.exists():
            print(f"loc.py: no such file or directory: {target}",
                  file=sys.stderr)
            return 2
        if target.is_dir():
            rows.extend(sorted(count_tree(target).items()))
        else:
            rows.append((str(target), count_file(target)))
    width = max(len(name) for name, _ in rows + [("total", 0)])
    for name, count in rows:
        print(f"{name:<{width}}  {count:>7,}")
    print(f"{'total':<{width}}  {sum(count for _, count in rows):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
