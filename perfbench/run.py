"""Run one gsplab benchmark workload and print its result.

    python3 perfbench/run.py --workload market --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its
per-layer metrics when ``--trace 1``.  The line before it is a record of
the environment, the per-operation times and the checks.
"""

import os
import time

# BLAS runs on one thread, pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
if not (_HERE.parent / "src" / "gsplab").is_dir():
    # never fall back to an installed gsplab: measure this checkout's code
    sys.exit(f"error: {_HERE.parent / 'src' / 'gsplab'} not found; "
             "run from a gsplab checkout")
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

import bench  # noqa: E402  (imports numpy and gsplab)

IMPORT_S = time.perf_counter() - _T0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    result, record = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), IMPORT_S)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
