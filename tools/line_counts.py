"""Line counts of the package and its tests, as a Markdown summary.

Code lines leave out blank lines, comment lines and docstrings, so deleted
prose does not count as a smaller program. Prints the line totals of
src/pfcontrol and tests/, the source's code-only total, and per-module
tables: code lines for src/pfcontrol, lines and code lines for tests/.

    python3 tools/line_counts.py
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent


def code_lines(text):
    prose = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                prose.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            prose.add(tok.start[0])
    lines = enumerate(text.splitlines(), 1)
    return sum(1 for i, line in lines if line.strip() and i not in prose)


def texts(folder):
    return [(path.name, path.read_text()) for path in sorted((ROOT / folder).glob("*.py"))]


def summary():
    src, tests = texts("src/pfcontrol"), texts("tests")
    rows = [(name, code_lines(text)) for name, text in src]
    table = [
        "| Python files | lines |",
        "|---|---|",
        f"| src/pfcontrol | {sum(text.count(chr(10)) for _, text in src)} |",
        f"| src/pfcontrol, code only | {sum(count for _, count in rows)} |",
        f"| tests | {sum(text.count(chr(10)) for _, text in tests)} |",
        "",
        "| Module | code lines |",
        "|---|---|",
    ]
    table += [f"| {name} | {count} |" for name, count in rows]
    table += ["", "| Test module | lines | code lines |", "|---|---|---|"]
    table += [f"| {name} | {len(text.splitlines())} | {code_lines(text)} |" for name, text in tests]
    return "\n".join(table) + "\n"


if __name__ == "__main__":
    print(summary(), end="")
