"""Linear entropy sketch: k stable projections plus the running total.

The sketch stores sum_t R_l(i_t)*d_t for l = 0..k-1 together with
sum_t d_t.  It is linear in the stream, so merge is elementwise
addition and deleting an element (negative delta) cancels the matching
insert.  Callers are responsible for the relaxed strict-turnstile
contract (non-negative final per-item counts); the sketch cannot check
it.

Precision contract: each increment R_l(i)*delta is rounded to the
nearest multiple of 2^-16 and accumulated in a 64-bit integer.
Integer addition is associative and exactly invertible, so
insert-then-delete cancellation, merge vs. single-pass equality, and
order independence all hold bitwise (float summation guarantees none
of these).  Accumulated values must stay below 2^37 in magnitude so
they remain exactly representable as doubles; update and merge raise
OverflowError if a projection or the total would leave that range.

Ingestion: an item's k variates depend only on its key, so ``update``
keeps the variates of the first items it sees, up to a fixed cap of
``CACHE_VARIATES`` variates (1 MiB); later items are computed afresh
every time.  Variates come from ``hashing.variates_np`` and the
increment is ``rint(v * delta * 2^16)`` in int64, the arithmetic of
``hashing.accumulate_np``, so cached and uncached updates give the same
bits.  ``update_many`` is the batch entry point for streams;
``sketch_stream`` and ``entrosketch ingest`` both use it.  It takes
elements in blocks of ``_STREAM_BLOCK``, hashes each distinct item of a
block once, groups the block by (key, delta), computes the variates of
many keys per ``hashing.variates_many_np`` call and adds
``count * increment``, again bitwise equal to one ``update`` per
element.  Its cost scales with the distinct items per block, not with
the number of updates.

Every state change commits fully or raises with the sketch unchanged.
An update checks its increment against the 2^53 limit in float before
any int64 cast, using a running upper bound on the projections that is
replaced by an exact scan only when it reaches the limit, so churn that
cancels never raises.

Binary format (little endian): magic b"ESKV", version u16, k u64,
zeta f64, master_seed u64, total f64, then k f64 projections.  All
stored values are exact multiples of 2^-16, so the round trip is
bit-exact.  ``from_bytes`` and ``from_json`` raise ValueError on a value
that is not finite or not below 2^37 in magnitude, and round a value off
that grid to the nearest multiple.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hashing import MASK64, item_key, variates_many_np, variates_np

MAGIC = b"ESKV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHQdQd")

QUANTUM_BITS = 16
QUANTUM = 2.0**-QUANTUM_BITS
_SCALE = 2.0**QUANTUM_BITS
_LIMIT = 1 << 53  # beyond this, int64 counts are no longer exact doubles

CACHE_VARIATES = 1 << 17  # per-sketch cap of the update() variate cache
# variates per variates_many_np call in update_many (48 KiB per float64 temporary).
# Measured in CLI ingest processes at k=2217 on an all-distinct stream:
# from 8192 up, the temporaries freed after each call are trimmed from the
# C heap and page-faulted back in on the next (about 10x the minor faults),
# and ingest ran slower than one update() per line; below about 4434 (two
# keys at that k) the fixed per-call cost dominates.
_BATCH_VARIATES = 6144
_STREAM_BLOCK = 1 << 16  # elements grouped together by update_many
# a batch whose worst case comes this close to _LIMIT is replayed one
# update at a time, so OverflowError is raised at the same element
_BATCH_HEADROOM = float(_LIMIT // 2)
_OVERFLOW = "projection accumulator left the exact-double range"


@dataclass(frozen=True)
class SketchConfig:
    k: int
    zeta: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not self.zeta > 0.0:
            raise ValueError("zeta must be positive")
        if not 0 <= self.master_seed <= MASK64:
            raise ValueError("master_seed must fit in 64 bits")


class EntropySketch:
    """O(k) one-pass summary of a turnstile stream.  Single-writer."""

    def __init__(self, config: SketchConfig):
        self.config = config
        self._scaled = np.zeros(config.k, dtype=np.int64)
        self._scaled_total = 0
        self._bound = 0  # upper bound on max |_scaled|, exact after a rescan
        self._cache: dict[int, np.ndarray] = {}  # item key -> variates
        self._cache_max: dict[int, float] = {}  # item key -> max |variate|

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def projections(self) -> np.ndarray:
        return self._scaled * QUANTUM

    @property
    def total(self) -> float:
        return self._scaled_total * QUANTUM

    def update(self, item: bytes | str, delta: float = 1.0) -> "EntropySketch":
        self._add(self._key(item, delta), delta)
        return self

    def update_many(self, pairs) -> "EntropySketch":
        """Add every ``(item, delta)`` of an iterable, generators included.

        Bitwise equal to one ``update`` per pair, and it raises what that
        loop raises, leaving the sketch as the loop leaves it at the failing
        pair.  Pairs are taken in blocks of ``_STREAM_BLOCK``; within a
        block each distinct item is hashed once and each distinct key's
        variates are computed once, in ``variates_many_np`` calls of at
        most ``_BATCH_VARIATES`` variates.
        """
        seed = self.config.master_seed
        keys: list[int] = []
        deltas: list[float] = []
        key_of: dict[bytes | str, int] = {}
        try:
            for item, delta in pairs:
                if not math.isfinite(delta):
                    raise ValueError("delta must be finite")
                key = key_of.get(item)
                if key is None:
                    key = key_of[item] = item_key(item, seed)
                keys.append(key)
                deltas.append(delta)
                if len(keys) == _STREAM_BLOCK:
                    block, keys, deltas, key_of = (keys, deltas), [], [], {}
                    self._add_batch(*block)
        finally:
            # also when a pair is invalid: the ones before it still count,
            # so an overflow among them is raised first, as the loop would
            self._add_batch(keys, deltas)
        return self

    def _key(self, item: bytes | str, delta: float) -> int:
        if not math.isfinite(delta):
            raise ValueError("delta must be finite")
        return item_key(item, self.config.master_seed)

    def _variates(self, key: int) -> tuple[np.ndarray, float]:
        """The key's variates and their largest magnitude."""
        v = self._cache.get(key)
        if v is not None:
            return v, self._cache_max[key]
        v = variates_np(key, self.config.k)
        vmax = float(np.abs(v).max())
        if (len(self._cache) + 1) * self.config.k <= CACHE_VARIATES:
            self._cache[key] = v
            self._cache_max[key] = vmax
        return v, vmax

    def _add(self, key: int, delta: float) -> None:
        """Add one update, or raise OverflowError with the sketch unchanged."""
        v, vmax = self._variates(key)
        # float rounding is monotone, so step bounds every |v * delta * 2^16|
        step = vmax * abs(delta) * _SCALE
        total_step = delta * _SCALE
        # past 2^54 an increment overflows whatever it is added to
        if not (step < 2 * _LIMIT and abs(total_step) < 2 * _LIMIT):
            raise OverflowError(_OVERFLOW)
        total = self._scaled_total + round(total_step)
        inc = np.rint(v * delta * _SCALE).astype(np.int64)
        # the running bound is replaced by an exact scan only at the limit,
        # so only the exact value raises and cancelling churn never does
        bound = self._bound + math.ceil(step)
        if bound >= _LIMIT:
            bound = int(np.abs(self._scaled + inc).max())
        if bound >= _LIMIT or abs(total) >= _LIMIT:
            raise OverflowError(_OVERFLOW)
        self._scaled += inc
        self._scaled_total = total
        self._bound = bound

    def _add_batch(self, keys: list[int], deltas: list[float]) -> None:
        """``_add`` over (key, delta) pairs, each distinct key's variates computed once.

        Equal pairs are summed as ``count * increment``; integer sums are
        exact, so the bits equal the per-pair loop's.  A batch that could
        get within 2x of the 2^53 limit runs that loop instead.
        """
        counts = Counter(zip(keys, deltas))
        if not counts:
            return
        k = self.config.k
        pairs = sorted(counts, key=lambda pair: pair[0])
        c = np.array([counts[pair] for pair in pairs], dtype=np.int64)
        d = np.array([delta for _, delta in pairs], dtype=np.float64)

        total_inc = np.rint(d * _SCALE)
        if not abs(self._scaled_total) + float(np.abs(total_inc) @ c) < _BATCH_HEADROOM:
            self._add_loop(keys, deltas)
            return
        bound = float(np.abs(self._scaled).max())
        acc = np.zeros(k, dtype=np.int64)
        per = max(1, _BATCH_VARIATES // k)
        for start in range(0, len(pairs), per):
            chunk = slice(start, start + per)
            distinct, where = np.unique(
                np.array([key for key, _ in pairs[chunk]], dtype=np.uint64), return_inverse=True
            )
            scaled = variates_many_np(distinct.tolist(), k)[where] * d[chunk, None] * _SCALE
            bound += float(np.abs(scaled).max(axis=1) @ c[chunk]) + float(c[chunk].sum())
            if not bound < _BATCH_HEADROOM:
                self._add_loop(keys, deltas)
                return
            acc += c[chunk] @ np.rint(scaled).astype(np.int64)
        self._scaled += acc
        self._scaled_total += int(total_inc.astype(np.int64) @ c)
        self._bound = int(np.abs(self._scaled).max())

    def _add_loop(self, keys: list[int], deltas: list[float]) -> None:
        for key, delta in zip(keys, deltas):
            self._add(key, delta)

    def normalized(self) -> np.ndarray:
        """y_l = projections[l]/total, the estimator's input."""
        if not self.total > 0.0:
            raise ValueError("total must be positive to normalize")
        return self.projections / self.total

    def merge(self, other: "EntropySketch") -> "EntropySketch":
        if self.config != other.config:
            raise ValueError("cannot merge sketches with different configs")
        out = EntropySketch(self.config)
        np.add(self._scaled, other._scaled, out=out._scaled)
        out._scaled_total = self._scaled_total + other._scaled_total
        out._bound = int(np.abs(out._scaled).max())
        if out._bound >= _LIMIT or abs(out._scaled_total) >= _LIMIT:
            raise OverflowError(_OVERFLOW)
        return out

    def copy(self) -> "EntropySketch":
        out = EntropySketch(self.config)
        out._scaled[:] = self._scaled
        out._scaled_total = self._scaled_total
        out._bound = self._bound
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropySketch):
            return NotImplemented
        return (
            self.config == other.config
            and self._scaled_total == other._scaled_total
            and np.array_equal(self._scaled, other._scaled)
        )

    def __repr__(self) -> str:
        return (
            f"EntropySketch(k={self.config.k}, zeta={self.config.zeta}, "
            f"seed={self.config.master_seed}, total={self.total})"
        )

    # serialization

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.config.k,
            self.config.zeta,
            self.config.master_seed,
            self.total,
        )
        return header + self.projections.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "EntropySketch":
        if len(data) < _HEADER.size:
            raise ValueError("truncated sketch: header incomplete")
        magic, version, k, zeta, seed, total = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        expected = _HEADER.size + 8 * k
        if len(data) != expected:
            raise ValueError(f"sketch length {len(data)} != expected {expected}")
        sketch = cls(SketchConfig(k=k, zeta=zeta, master_seed=seed))
        sketch._set_projections(
            np.frombuffer(data, dtype="<f8", offset=_HEADER.size), total
        )
        return sketch

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "k": self.config.k,
                "zeta": self.config.zeta,
                "master_seed": self.config.master_seed,
                "total": self.total,
                "projections": self.projections.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EntropySketch":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("sketch document must be a JSON object")
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported format version")
        try:
            config = SketchConfig(
                k=int(obj["k"]),
                zeta=float(obj["zeta"]),
                master_seed=int(obj["master_seed"]),
            )
            proj = np.asarray(obj["projections"], dtype=np.float64)
            total = float(obj["total"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed sketch document: {exc!r}") from exc
        if proj.shape != (config.k,):
            raise ValueError("projections length does not match k")
        sketch = cls(config)
        sketch._set_projections(proj, total)
        return sketch

    def _set_projections(self, projections: np.ndarray, total: float) -> None:
        # stored values must be finite and below the exact-double limit,
        # checked before any cast; off-grid values round to the quantum
        scaled = np.append(projections, total) * _SCALE
        if not np.isfinite(scaled).all():
            raise ValueError("sketch values must be finite")
        if not (np.abs(scaled) < _LIMIT).all():
            raise ValueError("sketch values must be below 2^37 in magnitude")
        scaled = np.rint(scaled)
        self._scaled = scaled[:-1].astype(np.int64)
        self._scaled_total = int(scaled[-1])
        self._bound = int(np.abs(self._scaled).max())


def new_sketch(k: int, zeta: float = 1.0, master_seed: int = 0) -> EntropySketch:
    return EntropySketch(SketchConfig(k=k, zeta=zeta, master_seed=master_seed))


def sketch_stream(elements, k: int, zeta: float = 1.0, master_seed: int = 0) -> EntropySketch:
    """One-pass sketch of an iterable of (item, delta) pairs, via ``update_many``."""
    return new_sketch(k, zeta, master_seed).update_many(elements)
