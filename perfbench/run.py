"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload train-mwb --seed 3 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
BLAS is pinned to one thread before numpy is imported. With `--trace 0` the
result holds the end-to-end metrics, with `--trace 1` the per-layer metrics,
and the spans go to `perfbench/out/trace-<workload>-<seed>.json`. The exit
code is 0 when every output check passed, 1 when one failed, 2 on bad usage or
a checkout without the program.
"""

import os
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (os.path.join(SRC, "baryvae", "__init__.py"), os.path.join(ROOT, "configs")):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from a baryvae source checkout", file=sys.stderr)
            return 2

    start = time.perf_counter()
    import numpy as np

    sys.path.insert(0, SRC)
    import baryvae

    import_s = time.perf_counter() - start

    if os.path.dirname(os.path.abspath(baryvae.__file__)) != os.path.join(SRC, "baryvae"):
        print(f"error: imported baryvae from {baryvae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    run = workloads.Run(ROOT, args.seed, args.seconds, bool(args.trace), import_s)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        workloads.WORKLOADS[args.workload](run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        **{k: os.environ[k] for k in PINNED},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "machine": platform.machine(),
    }
    if run.tracer:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        run.tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
    units = dict(workloads.PER_LAYER if run.tracer else workloads.END_TO_END)
    for problem in run.errors:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in run.metrics().items()
                },
            }
        )
    )
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
