"""Count the lines of the package's source, per file and in total.

    python benchmarks/count_lines.py [directory]

For each ``.py`` file under ``src/nlkaczmarz`` (or under ``directory``) and
in total, prints two counts: the lines, as ``wc -l`` counts them, and the
code lines, which leave out blank lines, comment-only lines and the lines
of module, class and function docstrings (found with ``ast``).
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines, code lines) of the Python ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "nlkaczmarz")
    args = parser.parse_args(argv)
    total = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(args.directory.rglob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(args.directory)}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main()
