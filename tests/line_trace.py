"""List the statements in scmalink's function bodies that no test executes.

    python tests/line_trace.py [pytest arguments]

Runs the test suite in this process under sys.settrace (threading.settrace
too, for simulate_ber's workers), recording the lines executed in the files
of src/scmalink, then prints each simple statement inside a function body
none of whose lines ran, as path:line: source. A compound statement (if,
for, with, try, a nested def) is judged by the statements in its body.
Docstrings are not statements that run. Code that runs only in a
subprocess, such as cli.main's sys.exit, is not seen. Exits with pytest's
status. It needs no package beyond pytest, and pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scmalink"


def _is_docstring(node, body):
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def function_statements(tree):
    """Simple statements nested in a function body, docstrings left out."""
    found = []

    def visit(body, in_function):
        for node in body:
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            blocks += [case.body for case in getattr(node, "cases", [])]
            if any(blocks):
                for block in blocks:
                    visit(block, inner)
            elif in_function and not _is_docstring(node, body):
                found.append(node)

    visit(tree.body, False)
    return found


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(p.resolve()): p for p in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in files}

    resolved = {}  # co_filename -> its key in executed, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            executed[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = str(Path(name).resolve())
            resolved[name] = path if path in executed else None
        return local if resolved[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              "--continue-on-collection-errors", *argv, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in files.items():
        source = path.read_text()
        lines = source.splitlines()
        for node in function_statements(ast.parse(source)):
            if executed[name].isdisjoint(range(node.lineno, node.end_lineno + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"{missed} statements in function bodies ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
