"""Demo scripts.

Core claim:
    - each script in demos/ runs to completion in a fresh interpreter
      (exit 0, no traceback); their own asserts check what they print
"""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found: the parametrized test would run nothing"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
