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


@pytest.mark.parametrize(
    "workload", ["train-wb", "train-mwb", "aggregate-full", "aggregate-diag"]
)
def test_traced_run_passes(workload):
    """A traced run patches by name what the benchmark wraps, so each must exist.

    train-wb patches the diffgraph primitives the benchmark names,
    aggregate-full `sqrtm_psd` and `sym_eig` on `gaussian` as well as `linalg`,
    and aggregate-diag `poe`, `moe`, `wb_diag`, `mopoe` and `mwb` on
    `barycenter`. The training runs rebuild the training loop and require
    its losses to equal `mmvae.train`'s bit for bit; train-mwb's is the one
    whose fork branches run on threads and are released during backward.

    The fifth workload, eval-mwb, is left out: its traced run takes about
    10 s at `--seconds 0.5`. It patches `evaluation.latent_means`,
    `coherence`, `fit_linear_probe` and `test_log_likelihood` and
    `mmvae.encode_arrays`, `decode_array` and `aggregate_arrays` by name,
    so after a change to any of their signatures run it by hand:
    `python perfbench/run.py --workload eval-mwb --seed 0 --seconds 0.5 --trace 1`.
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
