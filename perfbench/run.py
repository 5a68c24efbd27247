"""Pipeline benchmark for polydrive: datagen, train and closedloop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload closedloop --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every correctness check passed, 1 when one failed, and 2 when the
benchmark cannot run (bad arguments, or no polydrive sources beside it).
Scratch files go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are capped before numpy is first imported; the machine has
# few cores and batch-8 matrix products gain nothing from more threads.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("datagen", "train", "closedloop")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "polydrive", "__init__.py")):
        print(f"perfbench: no polydrive sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, here)
    import harness

    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.print_report(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
