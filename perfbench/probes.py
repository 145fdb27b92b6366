"""Per-call costs of each layer's public functions, timed in-process.

Each probe runs one function over a workload's own inputs and reports
``(value, unit)``: the median over ``REPEATS`` passes, divided by the
calls (or variates) in a pass.  These split ``sketch.update`` into its
hashing, backend and Python-overhead parts, which the traced replay
cannot see into.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from entrosketch import _backend
from entrosketch.estimator import log_mean
from entrosketch.hashing import item_key
from entrosketch.sketch import EntropySketch, new_sketch
from entrosketch.stable import sample_g0
from entrosketch.streams import iter_stream_file
from entrosketch.tailbounds import required_sketch_size

REPEATS = 5
MAX_LINES = 2_000  # stream lines per update/accumulate pass
MAX_KEYS = 500  # distinct keys per variates pass
READ_CALLS = 200  # calls per pass for the read-path probes
G0_SAMPLES = 200_000


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    return statistics.median(_seconds(fn) for _ in range(repeats))


def ingest_probes(spec: dict) -> dict[str, tuple[float, str]]:
    """Parse, item_key, variates, accumulate and update on an ingest op's stream.

    The passes of one round run back to back and the update overhead is
    taken within a round, so a machine that changes speed between
    rounds moves the parts together and the difference stays honest.
    """
    path, k, zeta, seed = spec["input"], spec["k"], spec["zeta"], spec["seed"]
    records = list(iter_stream_file(path))
    n_lines = len(records)
    records = records[:MAX_LINES]
    items = [item for item, _ in records]
    keys = [item_key(item, seed) for item in items]
    distinct = list(dict.fromkeys(keys))[:MAX_KEYS]
    pairs = [(key, delta) for key, (_, delta) in zip(keys, records)]
    scratch = np.zeros(k, dtype=np.int64)

    def updates():
        sketch = new_sketch(k, zeta, seed)
        for item, delta in records:
            sketch.update(item, delta)

    rounds = []
    for _ in range(REPEATS):
        parse = _seconds(lambda: list(iter_stream_file(path))) / n_lines
        key = _seconds(lambda: [item_key(item, seed) for item in items]) / len(items)
        variate = _seconds(lambda: [_backend.variates(key, k) for key in distinct])
        accumulate = _seconds(
            lambda: [_backend.accumulate(scratch, key, delta) for key, delta in pairs]
        ) / len(pairs)
        update = _seconds(updates) / len(records)
        rounds.append({
            "streams.parse_us_per_line": (parse * 1e6, "us"),
            "hashing.item_key_us": (key * 1e6, "us"),
            "backend.variates_ns_per_variate": (variate / (len(distinct) * k) * 1e9, "ns"),
            "backend.accumulate_ns_per_variate": (accumulate / k * 1e9, "ns"),
            "sketch.update_us": (update * 1e6, "us"),
            "sketch.update_overhead_us": ((update - key - accumulate) * 1e6, "us"),
        })
    return {name: (statistics.median(r[name][0] for r in rounds), unit)
            for name, (_, unit) in rounds[0].items()}


def read_probes(data: bytes) -> dict[str, tuple[float, str]]:
    sketch = EntropySketch.from_bytes(data)
    y = sketch.normalized()
    zeta = sketch.config.zeta
    n = READ_CALLS

    def per_call_us(fn):
        return _median_seconds(lambda: [fn() for _ in range(n)]) / n * 1e6, "us"

    return {
        "sketch.to_bytes_us": per_call_us(sketch.to_bytes),
        "sketch.from_bytes_us": per_call_us(lambda: EntropySketch.from_bytes(data)),
        "sketch.merge_us": per_call_us(lambda: sketch.merge(sketch)),
        "estimator.log_mean_us": per_call_us(lambda: log_mean(y, zeta)),
    }


def fixed_probes(seed: int, epsilon: float, gamma: float) -> dict[str, tuple[float, str]]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    g0 = _median_seconds(lambda: sample_g0(rng, G0_SAMPLES)) / G0_SAMPLES
    size = _median_seconds(lambda: required_sketch_size(epsilon, gamma), repeats=5)
    return {
        "stable.sample_g0_ns_per_sample": (g0 * 1e9, "ns"),
        "tailbounds.required_sketch_size_ms": (size * 1e3, "ms"),
    }
