"""Count the code lines of rdmkit's source.

    python3 tools/count_src_lines.py [ROOT]

Prints one number: the non-blank, non-comment, non-docstring lines of
ROOT/src/rdmkit/*.py (ROOT defaults to the checkout this file sits in).
A line counts when it holds at least one token that is not a comment, a
newline or indentation, and is not inside a module, class or function
docstring.  ROADMAP's and CHANGES.md's line gates are read from this.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "rdmkit").glob("*.py"))
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
