"""The suite's pytest settings report a failing test instead of ending
the session. pyproject.toml turns every warning into an error, so a
warning that a plugin raises while it writes a failure report must not
abort the run. Each check runs pytest in a fresh process on a scratch
test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_rest_still_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
