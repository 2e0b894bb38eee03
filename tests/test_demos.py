"""Every demo script runs to completion. Each runs from a copy under
tmp_path, so the demos/out folder it writes next to itself never lands
in the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    result = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
