"""The package needs numpy only at run time; scipy is a test-only
dependency, and the process pool is imported only for a run with more
than one job. Each check runs in a fresh interpreter, so modules that
other tests imported do not count."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(code, cwd):
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_importing_the_cli_and_harness_loads_no_scipy(tmp_path):
    result = run_python(
        "import sys, spoofbench.cli, spoofbench.harness\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_and_harness_loads_no_process_pool(tmp_path):
    # a one-process run should not pay for importing multiprocessing
    result = run_python(
        "import sys, spoofbench.cli, spoofbench.harness\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_run_and_export_work_with_scipy_blocked(tmp_path):
    config = ROOT / "demos" / "benchmark_config.json"
    out = tmp_path / "reports"
    result = run_python(
        # a None entry makes every `import scipy...` raise ImportError
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from spoofbench import cli\n"
        f"run = ['run', '--config', {str(config)!r}, '--out', {str(out)!r},\n"
        "       '--seeds', '1', '--spoofs', 'ghost,clean', '--jobs', '1']\n"
        "sys.exit(cli.main(run) or cli.main(['export', '--report', run[4]]))",
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "ghost-gnn-s0" / "report.json").is_file()
