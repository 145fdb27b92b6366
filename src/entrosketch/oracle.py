"""Exact entropies from a fully materialized stream.

Ground truth for tests and benchmarks only: materializes per-item
counts, i.e. O(N) memory in the number of distinct items, which is
exactly what the sketch avoids.
"""

from __future__ import annotations

import math


class AccumulationVector:
    """Per-item cumulative quantities a_j and their total."""

    def __init__(self):
        self.counts: dict[bytes, float] = {}
        self.total = 0.0

    @staticmethod
    def _norm(item: bytes | str) -> bytes:
        return item.encode("utf-8") if isinstance(item, str) else item

    def add(self, item: bytes | str, delta: float = 1.0) -> "AccumulationVector":
        key = self._norm(item)
        self.counts[key] = self.counts.get(key, 0.0) + delta
        self.total += delta
        return self

    @classmethod
    def from_stream(cls, elements) -> "AccumulationVector":
        acc = cls()
        for item, delta in elements:
            acc.add(item, delta)
        return acc

    def probabilities(self) -> list[float]:
        if self.counts and min(self.counts.values()) < 0.0:
            raise ValueError("negative cumulative count: stream is not strict-turnstile")
        if not self.total > 0.0:
            raise ValueError("total must be positive")
        return [a / self.total for a in self.counts.values()]


def shannon_entropy(acc: AccumulationVector) -> float:
    """H = -sum p_j log p_j, with 0 log 0 := 0."""
    return -math.fsum(p * math.log(p) for p in acc.probabilities() if p > 0.0)


def _power_sum(probs, alpha: float) -> float:
    # p^alpha as exp(alpha*log p), skipping p = 0 terms
    return math.fsum(math.exp(alpha * math.log(p)) for p in probs if p > 0.0)


def exact_entropies(acc: AccumulationVector, alpha: float) -> tuple[float, float, float]:
    """(Shannon, order-alpha collision, Tsallis) entropies, exactly.

    H_alpha = log(sum p^alpha)/(1-alpha), S_alpha = (sum p^alpha - 1)/(1-alpha).
    """
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    probs = acc.probabilities()
    h = -math.fsum(p * math.log(p) for p in probs if p > 0.0)
    ps = _power_sum(probs, alpha)
    h_alpha = math.log(ps) / (1.0 - alpha)
    s_alpha = (ps - 1.0) / (1.0 - alpha)
    return h, h_alpha, s_alpha

