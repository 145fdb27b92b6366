"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest_zipf --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the package is imported from ``src``,
never from an installed copy.  See ``perfbench/README.md``.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the parent computes references with the backend the CLI children will
# use, so it drops the same overrides the children do
SCRUBBED_ENV = ("ENTROSKETCH_SEED", "ENTROSKETCH_FORCE_PYTHON")
# numpy's thread pools, held at one thread in this process and in the children
ONE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "entrosketch" / "__init__.py").is_file():
        print(f"error: no entrosketch package at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    os.environ.update(dict.fromkeys(ONE_THREAD_ENV, "1"))
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
