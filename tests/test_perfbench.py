import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    """The benchmark's independent checks accept the program's output."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["train-wb", "aggregate-full"])
def test_traced_run_passes(workload):
    """A traced run patches by name what the benchmark wraps, so each must exist.

    train-wb patches the diffgraph primitives the benchmark names, and
    aggregate-full `sqrtm_psd` and `sym_eig` on `gaussian` as well as `linalg`.
    """
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0.5",
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
