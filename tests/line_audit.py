"""Statement audit: fail the run if the test suite leaves a src/urlknet statement unreached.

Run the whole tier-1 suite with this plugin from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p line_audit

A module named with -p is imported before conftest.py imports urlknet, so
tracing starts here, at import, and module- and class-level statements such
as dataclass fields count as reached when they run. A statement is reached
when a line it owns runs; a line belongs to the innermost statement whose
span holds it. Code run in a subprocess is not traced, so the one statement
only subprocess tests reach is allow-listed. The file name does not start
with "test_", so pytest never collects it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "urlknet"
# (file, first line of the statement) that only test_module_entry_point's subprocess runs
ALLOWED = {("cli.py", "sys.exit(main())")}

_hits: set[tuple[str, int]] = set()
_traced: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _traced:
        _traced[name] = Path(os.path.realpath(name)).parent == PACKAGE
    return _line if _traced[name] else None


sys.settrace(_call)
threading.settrace(_call)


def _statements(tree: ast.Module) -> list[tuple[int, int, ast.stmt]]:
    """(first line, last line, node) of every statement but a docstring, decorators included."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [(min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]),
             node.end_lineno, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings]


def audit() -> tuple[int, list[tuple[str, int, str]]]:
    """(statement count, [(file, line, first source line) of each unreached statement])."""
    lines: dict[str, set[int]] = {}
    for name, lineno in _hits:
        lines.setdefault(os.path.realpath(name), set()).add(lineno)
    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        stmts = _statements(ast.parse(source))
        total += len(stmts)
        reached = set()
        for lineno in lines.get(str(path), ()):
            # the innermost statement holding the line starts last (and ends first on a tie)
            owner = max((s for s in stmts if s[0] <= lineno <= s[1]),
                        key=lambda s: (s[0], -s[1]), default=None)
            if owner is not None:
                reached.add(id(owner[2]))
        for first, _, node in sorted(stmts, key=lambda s: s[0]):
            text = ast.get_source_segment(source, node).splitlines()[0].strip()
            if id(node) not in reached and (path.name, text) not in ALLOWED:
                missed.append((path.name, first, text))
    return total, missed


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    session.config._line_audit = audit()
    if session.config._line_audit[1]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    total, missed = config._line_audit
    terminalreporter.section("line audit")
    for name, lineno, text in missed:
        terminalreporter.write_line(f"unreached: src/urlknet/{name}:{lineno}: {text}")
    terminalreporter.write_line(f"{len(missed)} of {total} src/urlknet statements unreached "
                                f"({len(ALLOWED)} allow-listed)")
