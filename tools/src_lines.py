"""Count the lines of each ``cantorsum`` module by kind: code, docstring
or comment, and blank.

A line is blank when it holds nothing, also inside a docstring; a
docstring line when it lies inside the docstring of a module, class or
function (found with :mod:`ast`); a comment line when it holds nothing
but a comment; and code otherwise.  Prints one row per module of ``src/cantorsum`` and their total.

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cantorsum"


def line_kinds(source: str) -> tuple[int, int, int]:
    """(code, docstring or comment, blank) lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = text = blank = 0
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            blank += 1
        elif number in docstrings or stripped.startswith("#"):
            text += 1
        else:
            code += 1
    return code, text, blank


def main() -> None:
    rows = [(path.name, *line_kinds(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<18}{'code':>7}{'doc+comment':>13}{'blank':>7}{'all':>7}")
    for name, code, text, blank in rows:
        print(f"{name:<18}{code:>7}{text:>13}{blank:>7}{code + text + blank:>7}")


if __name__ == "__main__":
    main()
