"""Count the code lines of Python sources: lines that hold a token other
than a comment, a blank line or indentation, outside module, class and
function docstrings.

    python scripts/code_lines.py [PATH ...]    (default: src)

Each file is tokenized.  COMMENT, NL, NEWLINE, INDENT, DEDENT, ENCODING
and ENDMARKER tokens are dropped, and so are the tokens of every
docstring: the string that opens a module, class or function body.  A
file's count is the number of distinct lines the remaining tokens span,
a multi-line token counting each line it covers.  Prints one line per
file and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines covered by the docstrings of the module, classes and
    functions of tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src")]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
