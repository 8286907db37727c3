#!/usr/bin/env python3
"""atomqc benchmark: one workload, one seed, one timed closed loop.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload qsd-n6 --seed 1 --seconds 20 --trace 0

One client in one process takes items in sequence: each item is an input
taken through the user's path to a verified SEQUENCE pulse program, and is
checked by ``checks.check`` before the next one starts.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs every item twice
(untraced, then split into per-module spans) and prints the per-layer
metrics.  The last line of standard output is the result object; metric
names and units are those of ``BENCHMARK.json``.  ``--self-test`` only runs
the checker's self-test.  See ``perfbench/README.md``.
"""

import os

# One BLAS/OpenMP thread: set before numpy is imported, here and in the
# import-timing child, so that results do not depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def main():
    args = parse_args()
    if not (SRC / "atomqc" / "__init__.py").is_file():
        print("perfbench: no atomqc package under src/; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    return measure.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
