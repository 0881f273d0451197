"""A pytest plugin that fails the run when a function-body statement in
`src/` is never reached.

Load it on Python 3.12 or later, from the repository root, with the tier-1
command plus `-p tools.linecov`:

    PYTHONPATH=src python -m pytest -q -p tools.linecov

It records LINE events through `sys.monitoring` and turns each location off
after its first hit, so a line costs one callback per run.  At the end of the
session every statement inside a function body under `src/` must have run at
least once; a statement over several lines counts as run when any of its
lines did.  Docstrings do not count, and neither do the `def` and `class`
lines of nested definitions, which only bind a name.  Compound statements
(`if`, `for`, `try`, ...) count through the statements they hold.  Lines run
only in subprocesses the tests start are not seen.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_TOOL = "linecov"
_hits: set[tuple[str, int]] = set()
_unreached: list[str] = []


def _on_line(code, line):
    if code.co_filename.startswith(SRC + os.sep):
        _hits.add((code.co_filename, line))
    return sys.monitoring.DISABLE


def _statements(body: list, in_function: bool):
    """(first line, last line) of every simple statement in a function body
    within `body`, nested blocks included."""
    for i, st in enumerate(body):
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _statements(st.body, True)
        elif isinstance(st, ast.ClassDef):
            yield from _statements(st.body, False)
        elif hasattr(st, "body") or hasattr(st, "cases"):  # a compound statement: its blocks
            blocks = [getattr(st, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(st, "handlers", [])]
            blocks += [c.body for c in getattr(st, "cases", [])]
            for block in blocks:
                yield from _statements(block, in_function)
        elif in_function and not (
            i == 0 and isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)
            and isinstance(st.value.value, str)
        ):
            yield st.lineno, st.end_lineno


def _unreached_statements() -> list[str]:
    out = []
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for first, last in _statements(tree.body, False):
                if not any((path, line) in _hits for line in range(first, last + 1)):
                    out.append(f"{os.path.relpath(path, os.path.dirname(SRC))}:{first}")
    return out


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the first conftest imports the package, so that code run at its
    # import is seen too
    if sys.version_info < (3, 12):
        raise pytest.UsageError("tools.linecov needs sys.monitoring (Python 3.12 or later)")
    mon = sys.monitoring
    mon.use_tool_id(mon.COVERAGE_ID, _TOOL)
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, _on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    mon = sys.monitoring
    mon.set_events(mon.COVERAGE_ID, 0)
    mon.free_tool_id(mon.COVERAGE_ID)
    _unreached[:] = _unreached_statements()
    if _unreached and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _unreached:
        terminalreporter.section("statements in src/ that no test reached")
        for where in _unreached:
            terminalreporter.line(where)
        terminalreporter.line(f"{len(_unreached)} unreached")
