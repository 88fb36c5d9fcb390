"""The benchmark's own construction paths, end to end.

``bench/run.py`` builds each ``lp_sparse`` instance with the
``SparseMatrix(m, n, rows, cols, vals)`` constructor, writes it with
``save_problem``, reads it back with ``load_problem`` and solves it with
``solve_cones``. Each ``edesign`` instance is built by ``build_edesign`` and
solved with ``solve``. A change to any of these that the benchmark relies on
must fail here rather than only in a benchmark run. The traced runs also
cover ``--trace 1``: its span wrappers, the per-layer metrics and the
coverage figure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload, trace=0):
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "run.py"),
        "--workload", workload,
        "--seed", "1",
        "--seconds", "0.01",
        "--trace", str(trace),
    ]
    # like bench/run.py, leave no bytecode cache inside bench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lp_sparse_benchmark_builds_loads_and_solves():
    out = run_benchmark("lp_sparse")
    assert out["correct"] is True
    assert out["attempted"] == 4


def test_edesign_benchmark_builds_and_solves():
    out = run_benchmark("edesign")
    assert out["correct"] is True
    assert out["attempted"] == 6


@pytest.mark.parametrize("workload", ["lp_sparse", "edesign"])
def test_traced_benchmark_covers_the_solve(workload):
    out = run_benchmark(workload, trace=1)
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["metrics"]["trace.coverage"]["value"] >= 0.99
