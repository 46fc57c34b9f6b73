"""The repo's pytest settings let a failing Hypothesis property report like any
other failure: the session runs every test and ends on a complete summary.

On failure Hypothesis writes a patch of failing examples, which imports
libcst, which emits a ``DeprecationWarning``. Under ``filterwarnings =
["error"]`` alone that warning aborted the session with INTERNALERROR.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_leaves_a_complete_summary(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert re.search(r"^1 failed, 1 passed in [0-9.]+s$", proc.stdout, re.M), output
