"""Code lines per module of the library, and their total.

A code line is a line that is not blank, not a comment line and not part
of a docstring (the leading string of a module, class or function, as ast
finds it).  Run from anywhere:

    python tests/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/padicgeom``; pass another
tree's to compare the two.  It is not a test module (no ``test_`` prefix),
so the suite does not collect it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padicgeom"


def code_lines(source: str) -> int:
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for k, line in enumerate(source.splitlines(), 1)
               if k not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:15} {n:5}")
    print(f"{'total':15} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
