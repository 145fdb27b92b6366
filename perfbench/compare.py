"""Compare saved benchmark runs.

    python3 perfbench/run.py --workload ingest_zipf --seed 1 --seconds 50 > base-1.txt
    ...
    python3 perfbench/compare.py base-*.txt -- new-*.txt

Prints, per workload and metric, each side's median over its runs and
the change as a share of the base median.  Refuses when the runs' backend
labels differ: the compiled and numpy backends disagree in the last bit
of some variates, so their sketch bytes and timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> tuple[dict, dict]:
    """(record, result): the last two lines a run printed."""
    with open(path, encoding="utf-8") as fp:
        lines = [line for line in fp.read().splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = {"base": [load(p) for p in argv[:cut]], "new": [load(p) for p in argv[cut + 1:]]}
    backends = {rec["environment"]["backend"] for runs in sides.values() for rec, _ in runs}
    if len(backends) != 1:
        print(f"error: refusing to compare runs of different backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    values: dict[tuple[str, str, str], list[float]] = {}
    for side, runs in sides.items():
        for rec, result in runs:
            for name, metric in result["metrics"].items():
                values.setdefault((rec["workload"], name, side), []).append(metric["value"])
    print(f"backend {backends.pop()}")
    print(f"{'workload':16} {'metric':36} {'base':>12} {'new':>12} {'change':>8}")
    for workload, name in sorted({(w, n) for w, n, _ in values}):
        base = values.get((workload, name, "base"))
        new = values.get((workload, name, "new"))
        if not base or not new:
            continue
        b, n = statistics.median(base), statistics.median(new)
        change = f"{n / b - 1:+.3f}" if b else "n/a"
        print(f"{workload:16} {name:36} {b:12.6g} {n:12.6g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
