"""Count the code lines of Python files, beside their lines as wc -l counts them.

    python tools/code_lines.py PATH...

A PATH that is a directory stands for the .py files under it. Prints one row
per file, "code  wc-l  path", then the totals. A code line is a physical line
that holds part of a token other than a comment or a docstring (the first
statement of a module, class or function when it is a string): blank lines,
comment lines and docstring lines are not counted, and a statement continued
over three lines counts three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that mark layout, not code: NEWLINE and INDENT sit on a line that
# holds another token, NL and DEDENT on a line that may hold none
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """The (line, column) at which each docstring of the module starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source):
    """(code lines, wc -l lines) of a Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), source.count("\n")


def _files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = [0, 0]
    for path in _files(argv):
        code, wc = count(path.read_text(encoding="utf-8"))
        total[0] += code
        total[1] += wc
        print(f"{code:6d} {wc:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
