"""Shared pytest plumbing.

The acceptance tests register one summary line per criterion in
ACCEPTANCE_LINES; the sessionfinish hook reprints the block after the
normal pytest output so the pass/fail lines are visible even though
stdout is captured during the run.  Hypothesis runs under one
registered profile, derandomized and without an example database, so
every run draws the same examples and nothing is replayed from an
earlier run; each test keeps its own max_examples.  run_python starts
a fresh interpreter for the CLI and demo tests.  mat_mul is the plain matrix
product that tests use as the reference for walk counts, products A v
and polynomials evaluated at A.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

import digraph_spectra

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

ACCEPTANCE_LINES: list[str] = []


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports this package
    from the same ``src/`` as the tests."""
    src = str(Path(digraph_spectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def mat_mul(a, b):
    """Product of two integer matrices given as lists of rows."""
    columns = [[row[j] for row in b] for j in range(len(b[0]))]
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def pytest_sessionfinish(session, exitstatus):
    if not ACCEPTANCE_LINES:
        return
    tw = None
    try:
        tw = session.config.get_terminal_writer()
    except Exception:
        pass
    lines = ["", "acceptance criteria:"] + ACCEPTANCE_LINES
    for line in lines:
        if tw is not None:
            tw.line(line)
        else:
            print(line)
