"""Count the lines of ``src/`` by kind, each line once.

Run ``python tests/src_lines.py [PATH ...]``; with no PATH it counts the
``.py`` files under the repository's ``src/``. A line is, in this order:

1. blank, if it holds only whitespace (a blank line inside a docstring too);
2. docstring, if it lies inside a module, class or function docstring;
3. comment, if its only token is a comment;
4. code otherwise.

The four counts add up to ``wc -l`` over the same files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in one Python source."""
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment: set[int] = set()
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(io.StringIO(source).readlines(), 1):
        if not line.strip():
            kind = "blank"
        elif number in docstring:
            kind = "docstring"
        elif number in comment and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(paths: list[str]) -> None:
    roots = [Path(p) for p in paths] or [Path(__file__).resolve().parents[1] / "src"]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    totals = dict.fromkeys(KINDS, 0)
    for path in files:
        for kind, n in count_lines(path.read_text(encoding="utf-8")).items():
            totals[kind] += n
    for kind in KINDS:
        print(f"{kind:<10} {totals[kind]:>6,}")
    print(f"{'total':<10} {sum(totals.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
