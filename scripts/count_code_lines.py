#!/usr/bin/env python3
"""Code lines of each module of src/mcergo, and their total.

A line counts when it carries a code token, as ``tokenize`` reads the
source: comments, blank lines and docstrings (the leading string of a
module, class or function) do not count, and a statement spread over
several lines counts each line that holds one of its tokens.

    python scripts/count_code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mcergo"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # of docstrings


def _docstring_starts(source: str) -> set:
    """(row, col) of the first token of every docstring in ``source``."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry a code token."""
    docstrings = _docstring_starts(source)
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
