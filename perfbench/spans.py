"""In-memory spans for the traced pass.

A span is ``[name, start_ns, end_ns, parent_index]`` with parent -1 at a
root.  The layer of a span is its name up to the first dot, which is
the package module it calls into (``sketch.update`` -> ``sketch``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; nothing is written until the caller dumps ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def self_seconds(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    layers: dict[str, float] = {}
    for (name, start, end, _), child_ns in zip(spans, children):
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start - child_ns) / 1e9
    return layers


def root_seconds(spans) -> float:
    """Time covered by root spans; the rest of a process's wall time is outside every span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0) / 1e9


def span_seconds(spans, name: str) -> float:
    return sum(end - start for n, start, end, _ in spans if n == name) / 1e9
