"""Count the lines of each module of src/sqzmirror: all of them, and the
code lines among them.

    python tests/code_lines.py                       # this tree
    python tests/code_lines.py --against OTHER_TREE  # this tree and OTHER_TREE

A code line holds a token of Python code: it is not blank, not a comment
alone and not part of a docstring (the string that opens a module, class
or function body). tokenize finds the lines that hold code tokens, a
string's every line included, and ast the docstrings. It reads the files
as text and imports no package code. With --against it prints both trees
side by side, a module missing from one of them as 0. The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of a module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def counts(tree: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (total, code)} of tree's src/sqzmirror."""
    return {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted((tree / "src" / "sqzmirror").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, help="another tree, counted beside this one")
    args = parser.parse_args(argv)
    trees = [counts(ROOT)] + ([counts(args.against)] if args.against else [])
    names = sorted(set().union(*trees))
    rows = [(name, *[n for tree in trees for n in tree.get(name, (0, 0))]) for name in names]
    rows.append(("total", *[sum(row[k] for row in rows) for k in range(1, 1 + 2 * len(trees))]))
    heads = ["total", "code"] if not args.against else ["total", "code", "other total",
                                                        "other code"]
    print(f"{'module':16s}" + "".join(f"{head:>12s}" for head in heads))
    for name, *numbers in rows:
        print(f"{name:16s}" + "".join(f"{n:12d}" for n in numbers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
