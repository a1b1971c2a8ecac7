"""The repository's pytest settings report a failing test and run the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# hypothesis's failure report imports libcst where it is installed, and
# that import warns with a DeprecationWarning
FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    path = tmp_path / "test_pair.py"
    path.write_text(FAILING_THEN_PASSING)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
