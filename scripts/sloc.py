"""Count source lines of code under the given files or directories.

A physical line counts when it carries at least one token that is not a
comment and it is not part of a docstring (the string expression that
opens a module, class or function body).  Blank lines, comment-only
lines and docstrings are documentation, so removing them is not a
reduction and adding them is not growth.

    python scripts/sloc.py src                 # per file, then the total
    python scripts/sloc.py src/repro/service/tuning.py
    python scripts/sloc.py --max 16333 src     # exit 1 above the ceiling

``--max N`` is the ratchet CI runs: the total may not exceed N, and a PR
that deletes code lowers N in the same diff.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset({
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
})


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_sloc(source: str) -> int:
    """Code lines of one module's source text."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def _python_files(target: Path) -> list[Path]:
    if target.is_dir():
        return sorted(target.rglob("*.py"))
    return [target]


def main(argv: list[str]) -> int:
    ceiling = None
    if argv[:1] == ["--max"]:
        if len(argv) < 2 or not argv[1].isdigit():
            print("--max needs a non-negative integer", file=sys.stderr)
            return 2
        ceiling, argv = int(argv[1]), argv[2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    for target in map(Path, argv):
        for path in _python_files(target):
            n = count_sloc(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
    if ceiling is not None and total > ceiling:
        print(
            f"{total} code lines exceed the ceiling of {ceiling}; delete "
            "code, or raise --max in the same diff and say why",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
