"""Line counts of the rislink source, for the line budget in ROADMAP.md.

Run as `python tests/line_counts.py [directory]` (default: src/rislink). It
prints two counts over the directory's .py files: the non-blank lines, and
the lines that hold code, which leaves out comments, docstrings and blank
lines. Trimming prose moves only the first count. Not a test: pytest
collects only test_*.py files.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "rislink"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def non_blank_lines(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())


def code_lines(source: str) -> int:
    """The lines on which some token other than a comment or a docstring
    starts or ends, a multi-line token counting every line it spans. A
    docstring is the string that opens a module, class or function body."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and token.start[0] not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(directory: Path) -> tuple[int, int]:
    """(non-blank lines, code lines) over the .py files of `directory`."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))]
    return sum(map(non_blank_lines, sources)), sum(map(code_lines, sources))


if __name__ == "__main__":
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else SOURCE
    non_blank, code = count(directory)
    print(f"{directory}: {non_blank} non-blank lines, {code} without docstrings and comments")
