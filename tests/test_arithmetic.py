"""Artifact bytes do not depend on the BLAS kernel.

numpy's matrix products go through OpenBLAS, which picks a kernel per
CPU (or as OPENBLAS_CORETYPE says), and kernels round differently. So
the package keeps BLAS off the artifact path: a static rule over its
source, and a run under two kernels that must write the same bytes. A
second static rule keeps randomness to sensing and spoofing, so the
trackers stay pure functions of their detection streams.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spoofbench").glob("*.py"))
BLAS_FUNCTIONS = {f"np.{f}" for f in ("dot", "matmul", "einsum", "inner", "vdot", "tensordot")}


def blas_uses(tree):
    """Sorted (line, text) of every BLAS-backed product."""
    found = []
    for node in ast.walk(tree):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            name = ast.unparse(node).replace("numpy.", "np.", 1)
            linalg = name.startswith("np.linalg.") and name != "np.linalg.LinAlgError"
            if node.attr == "dot" or name in BLAS_FUNCTIONS or linalg:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_blas_products_in_the_package(path):
    assert blas_uses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "source,want",
    [
        ("y = A @ B\nA @= B", ["@", "@"]),
        ("y = a.dot(b) + np.einsum('ij,j', a, b)", ["a.dot", "np.einsum"]),
        ("f = numpy.matmul\ny = np.linalg.norm(a)", ["np.matmul", "np.linalg.norm"]),
        # no function is exempt, whatever its name
        ("def nees(a, b):\n    return a @ np.linalg.solve(b, a)", ["@", "np.linalg.solve"]),
        ("raise np.linalg.LinAlgError(a * b + c * d)", []),
    ],
)
def test_rule_catches_each_form(source, want):
    assert [text for _, text in blas_uses(ast.parse(source))] == want


# the modules that may open a random stream; streams.py alone builds one
# from np.random, whose Generator may still name a parameter's type
STREAM_OPENERS = {"sensing.py", "spoofing.py"}


def random_uses(tree, module):
    """Sorted (line, text) of every reach for randomness that module may
    not make: substream outside STREAM_OPENERS, np.random outside
    streams.py. Imports count as reaches."""
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inner:
            names = [ast.unparse(node)]
        else:
            continue
        for name in names:
            name = name.replace("numpy.", "np.", 1)
            opens = name == "substream" or name.endswith(".substream")
            draws = name == "np.random" or name.startswith("np.random.")
            if opens and module not in STREAM_OPENERS:
                found.append((node.lineno, name))
            elif draws and name != "np.random.Generator" and module != "streams.py":
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_sensing_and_spoofing_open_random_streams(path):
    assert random_uses(ast.parse(path.read_text()), path.name) == []


@pytest.mark.parametrize(
    "module,source,want",
    [
        ("tracking.py", "from .streams import TAG_BIRTH, substream\nrng = substream(seed, 4, t)",
         ["streams.substream", "substream"]),
        ("metrics.py", "rng = np.random.default_rng(0)\nx = numpy.random.normal(size=2)",
         ["np.random.default_rng", "np.random.normal"]),
        ("harness.py", "from numpy.random import default_rng\nfrom numpy import random",
         ["np.random.default_rng", "np.random"]),
        # sensing opens substreams, but builds no generator of its own
        ("sensing.py", "a = substream(seed, 1, k)\nb = np.random.default_rng(seed)",
         ["np.random.default_rng"]),
        ("streams.py", "ss = np.random.SeedSequence(seed)\nrng = substream(seed, 1)",
         ["substream"]),
        ("geometry.py", "def sample(rng: np.random.Generator, n):\n    return rng.random(n)", []),
    ],
)
def test_stream_rule_catches_each_form(module, source, want):
    assert [text for _, text in random_uses(ast.parse(source), module)] == want


def run_grid(out, coretype):
    """`run` then `export` of a one-seed drift+ghost grid with both
    trackers under an OpenBLAS kernel (None: the default); returns the
    bytes of every file but the manifests, by relative path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("OPENBLAS_CORETYPE", None)
    env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {})
    config = str(ROOT / "demos" / "benchmark_config.json")
    for args in (
        ["run", "--config", config, "--out", str(out), "--seeds", "1", "--spoofs", "drift,ghost",
         "--trackers", "gnn,jpda"],
        ["export", "--report", str(out)],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "spoofbench", *args], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
    files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


@pytest.mark.skipif(
    platform.machine() != "x86_64", reason="OPENBLAS_CORETYPE=Prescott names an x86_64 kernel"
)
def test_artifacts_identical_across_openblas_kernels(tmp_path):
    default = run_grid(tmp_path / "default", None)
    prescott = run_grid(tmp_path / "prescott", "Prescott")
    assert sorted(default) == sorted(prescott)
    assert "drift-jpda-s0/snapshots.jsonl" in default
    differ = [name for name in default if default[name] != prescott[name]]
    assert not differ, f"{len(differ)} of {len(default)} files differ: {differ[:5]}"


# builtins.sum as CPython 3.12 and later computes it: exact floats are
# added with Neumaier's compensation, anything else as before
COMPENSATED_SUM = """
import builtins, math

def compensated_sum(iterable, /, start=0):
    total, c, compensating = start, 0.0, False
    for item in iterable:
        if type(item) is float and type(total) in (int, float):
            if not compensating:
                total, compensating = float(total), True
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
            continue
        if compensating:
            total, c, compensating = total + c, 0.0, False
        total = total + item
    return total + c if compensating and c and math.isfinite(c) else total

builtins.sum = compensated_sum
assert sum([0.1] * 10) == 1.0
"""


def run_grid_with(out, prelude):
    """`run` then `export` of the grid run_grid runs, in one process that
    first executes prelude; returns the same bytes as run_grid."""
    config = str(ROOT / "demos" / "benchmark_config.json")
    script = prelude + (
        "from spoofbench.cli import main\n"
        f"assert main(['run', '--config', {config!r}, '--out', {str(out)!r}, '--seeds', '1',"
        " '--spoofs', 'drift,ghost', '--trackers', 'gnn,jpda']) == 0\n"
        f"assert main(['export', '--report', {str(out)!r}]) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def test_artifacts_identical_under_a_compensated_sum(tmp_path):
    plain = run_grid_with(tmp_path / "plain", "")
    compensated = run_grid_with(tmp_path / "compensated", COMPENSATED_SUM)
    assert sorted(plain) == sorted(compensated)
    assert "ghost-jpda-s0/report.json" in plain
    differ = [name for name in plain if plain[name] != compensated[name]]
    assert not differ, f"{len(differ)} of {len(plain)} files differ: {differ[:5]}"
