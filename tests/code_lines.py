"""Count code lines per module of ``src/ctrlstab/`` and ``perfbench/``.

A code line is a physical line that holds part of a statement: blank
lines, comment-only lines and docstrings do not count.  Docstrings are
found with ``ast`` (the leading string statement of a module, class or
function), the rest with ``tokenize``; every line of a multi-line
statement or string literal counts.

Usage::

    python tests/code_lines.py [ROOT] [--against OTHER_ROOT]

``ROOT`` (default: the repository holding this script) and ``OTHER_ROOT``
are checkouts of the repository.  Each module prints one line, with the
total per directory; with ``--against``, each line reads
``other -> root (difference)``.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

#: directories counted, relative to a checkout's root
DIRECTORIES = ("src/ctrlstab", "perfbench")

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
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
    """The number of code lines of the Python module ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: str) -> dict:
    """``{directory: {module: code lines}}`` for the checkout at ``root``;
    a directory that does not exist maps to an empty dict."""
    counts = {}
    for directory in DIRECTORIES:
        path = os.path.join(root, directory)
        names = sorted(n for n in os.listdir(path) if n.endswith(".py")) \
            if os.path.isdir(path) else []
        counts[directory] = {}
        for name in names:
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                counts[directory][name] = code_lines(fh.read())
    return counts


def report(root: str, against: str | None = None) -> list:
    """The printed lines: per module, then the directory total."""
    mine = count_tree(root)
    other = count_tree(against) if against else None
    out = []
    for directory in DIRECTORIES:
        rows = [(f"{directory}/{name}", name)
                for name in sorted(set(mine[directory])
                                   | set((other or {}).get(directory, {})))]
        for label, name in rows + [(f"{directory}/ total", None)]:
            counts = [_lookup(tree[directory], name)
                      for tree in (mine, other) if tree is not None]
            if other is None:
                out.append(f"{label}: {counts[0]}")
            else:
                n, m = counts
                out.append(f"{label}: {m} -> {n} ({n - m:+d})")
    return out


def _lookup(modules: dict, name: str | None) -> int:
    # a module's count (0 where it does not exist), or the total for None
    return sum(modules.values()) if name is None else modules.get(name, 0)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", nargs="?", default=here)
    parser.add_argument("--against", metavar="OTHER_ROOT")
    args = parser.parse_args(argv)
    print("\n".join(report(args.root, args.against)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
