"""Smoke test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Runs every workload, untraced and traced, at a tiny size for one cycle,
and shows that the output checks count a corrupted sketch and a wrong
printed entropy as failed operations.
"""

import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("ENTROSKETCH_SEED", "ENTROSKETCH_FORCE_PYTHON"):
    os.environ.pop(var, None)
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import entrosketch  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, trace=False, runner_cls=harness.Runner):
    return harness.run_workload(name, seed=3, seconds=0, trace=trace, scale=TINY,
                                runner_cls=runner_cls)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_reports_every_metric(name, trace):
    record, result = tiny_run(name, trace)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["environment"]["backend"] == entrosketch.BACKEND


class FlipProjection(harness.Runner):
    """Flips the lowest bit of the first projection of every ingested sketch.

    A one-ulp change: the estimate made from the sketch still passes, so
    only the byte check of the ingest can catch it.
    """

    def cli(self, spec):
        out = super().cli(spec)
        if spec["kind"] == "ingest":
            path = Path(spec["output"])
            data = bytearray(path.read_bytes())
            data[len(data) - 8 * spec["k"]] ^= 1  # little endian: lowest mantissa bit
            path.write_bytes(bytes(data))
        return out


class MisprintEntropy(harness.Runner):
    """Adds 1000 nats to every entropy the CLI prints."""

    def cli(self, spec):
        out = super().cli(spec)
        if spec["kind"] == "estimate":
            stdout = re.sub(r"entropy=(\S+)", lambda m: f"entropy={float(m[1]) + 1000.0!r}",
                            out.stdout)
            out = dataclasses.replace(out, stdout=stdout)
        return out


@pytest.mark.parametrize("runner_cls, kind", [(FlipProjection, "ingest"),
                                              (MisprintEntropy, "estimate")])
def test_wrong_output_counts_as_failed(runner_cls, kind):
    record, result = tiny_run("ingest_zipf", runner_cls=runner_cls)
    # one measured cycle: one ingest and one estimate
    assert result["failed"] == 1 and not result["correct"]
    assert record["failures"][0].startswith(kind)
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_tail_has_ten_samples_beyond_it():
    samples = [(float(v), "op") for v in range(40)]
    summary = harness.summarize(samples, worse_high=True)
    assert sum(v > summary["tail"] for v, _ in samples) == harness.TAIL_BEYOND
    assert summary["tail_pct"] == 75.0
    rates = harness.summarize(samples, worse_high=False)
    assert sum(v < rates["tail"] for v, _ in samples) == harness.TAIL_BEYOND
