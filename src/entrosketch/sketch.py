"""The ingest accumulator of the linear entropy sketch.

The sketch stores sum_t R_l(i_t)*d_t for l = 0..k-1 together with
sum_t d_t.  It is linear in the stream, so merge is elementwise
addition and deleting an element (negative delta) cancels the matching
insert.  Callers are responsible for the relaxed strict-turnstile
contract (non-negative final per-item counts); the sketch cannot check
it.

The one sketch value type is ``sketchfile.SketchFile``.  ``EntropySketch``
is the accumulator that produces one: it ingests into numpy int64, and
its ``normalized``, ``merge``, ``copy``, ``==`` and serialization go
through its ``SketchFile``, so each of those rules exists once.

Precision contract: each increment R_l(i)*delta is rounded to the
nearest multiple of 2^-16 and accumulated in a 64-bit integer.
Integer addition is associative and exactly invertible, so
insert-then-delete cancellation, merge vs. single-pass equality, and
order independence all hold bitwise (float summation guarantees none
of these).  Accumulated values must stay below 2^37 in magnitude so
they remain exactly representable as doubles; update and merge raise
OverflowError if a projection or the total would leave that range.

Ingestion: ``update`` is the per-pair reference that the block path is
tested against.  It keeps the k variates of each item it has seen, and
their largest magnitude, up to a fixed cap of ``CACHE_VARIATES``
variates (1 MiB) over all entries; later items are computed afresh every
time.  Variates come from ``hashing.variates_np`` and the increment is
``rint(v * delta * 2^16)``, the arithmetic of ``hashing.accumulate_np``,
so cached and uncached updates give the same bits.  A cached update
costs 4-8 us at k = 64-2217 on a 2-vCPU Xeon VM, so streams belong in
``update_many`` or ``sketch_stream``.  ``update_many`` is the one block
loop for streams, of ``sketch_stream`` and ``entrosketch ingest`` alike:
it counts blocks of ``_STREAM_BLOCK`` pairs into a ``Counter`` each,
hashes each distinct item of a block once, all in one
``hashing.item_keys`` call, and adds ``count * increment`` per pair, so
its cost scales with the distinct pairs per block, not with the number
of updates.  The variates are computed in a reused
``hashing.VariateWorkspace``, ``_BATCH_VARIATES`` at a time.  A block of
b >= 2 such batches is summed by min(b, CPUs) threads, each pinned to a
CPU of its own (``_map_pinned``), that take the batches from one shared
queue; a block of one batch, on the calling thread.
Integer sums are exact, so the bytes do not depend on the split:
``taskset -c 0`` gives serial ingest with the same bytes.

The batch sums are exact at any magnitude.  ``_part_sum`` adds
``count * rint(v * delta * 2^16)`` in float64 (``c @ rint(scaled)``, one
BLAS call per ``_BATCH_VARIATES`` variates) while a bound on its running
sum, a sum of ``count * (|v * delta * 2^16| + 1)``, stays below 2^52.
There every term and every partial sum is an integer no larger in
magnitude than the bound, so each is an exact double and any summation
order gives the same integers.  Past it the float sum is spilled to
Python ints, and a batch that alone passes it is summed in Python ints.
Scaling ``v * (delta * 2^16)`` equals ``(v * delta) * 2^16`` bit for bit,
since a power-of-two factor commutes with rounding (short of underflow,
which only values far below one grid step reach).

Every state change commits fully or raises with the sketch unchanged,
by one rule: sum the increments exactly off to the side, then check the
finished projections and total once against the 2^53 limit
(``check_exact``) and commit.  ``update`` first refuses, in float and
before any int64 cast, an increment that would pass the limit whatever
it is added to.  Only the finished state is checked, so churn that
cancels never raises, and ``update_many`` sums its whole input before
the check, so the order of the pairs cannot matter.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from functools import partial
from itertools import islice

import numpy as np

from .hashing import VariateWorkspace, _mapped_words, item_key, item_keys, variates_np
from .sketchfile import FORMAT_VERSION  # noqa: F401  (the benchmark reads sketch.FORMAT_VERSION)
from .sketchfile import (
    LIMIT,
    OVERFLOW,
    QUANTUM,
    SCALE,
    SketchConfig,
    SketchFile,
    check_exact,
)

CACHE_VARIATES = 1 << 17  # per-sketch cap of the update() variate cache
# variates per VariateWorkspace.variates call in update_many, one batch of
# the thread split: at most max(1, _BATCH_VARIATES // k) keys, 512 KiB per
# work array.  The arrays are allocated once per thread and block, so no call
# pays for fresh pages.  At k=2217 on the 2-vCPU Xeon, 2^14 / 2^15 / 2^16 took
# 23 / 14.5 / 13.4 ns per variate on two threads and 23 / 21 / 22 on one.
_BATCH_VARIATES = 1 << 16
_STREAM_BLOCK = 1 << 16  # pairs update_many counts together per block
# float64 sums of integers whose magnitudes sum below this are exact
_EXACT_FLOAT_SUM = float(LIMIT // 2)
_ints = np.frompyfunc(int, 1, 1)  # integer-valued floats -> Python ints (an object array)


class EntropySketch:
    """O(k) one-pass summary of a turnstile stream.  Single-writer."""

    def __init__(self, config: SketchConfig):
        self.config = config
        self._scaled = np.zeros(config.k, dtype=np.int64)
        self._scaled_total = 0
        # item -> (variates, max |variate|)
        self._items: dict[bytes | str, tuple[np.ndarray, float]] = {}

    @property
    def projections(self) -> np.ndarray:
        return self._scaled * QUANTUM

    @property
    def total(self) -> float:
        return self._scaled_total * QUANTUM

    def update(self, item: bytes | str, delta: float = 1.0) -> "EntropySketch":
        if not math.isfinite(delta):
            raise ValueError("delta must be finite")
        entry = self._items.get(item)
        if entry is None:
            v = variates_np(item_key(item, self.config.master_seed), self.config.k)
            entry = v, float(np.abs(v).max())
            if (len(self._items) + 1) * self.config.k <= CACHE_VARIATES:
                self._items[item] = entry
        v, vmax = entry
        # float rounding is monotone, so this bounds every |v * delta * 2^16| and
        # |delta * 2^16|; past 2^54 an increment overflows whatever it is added to
        if not max(vmax, 1.0) * abs(delta) * SCALE < 2 * LIMIT:
            raise OverflowError(OVERFLOW)
        scaled = self._scaled + np.rint(v * (delta * SCALE)).astype(np.int64)
        total = self._scaled_total + round(delta * SCALE)
        check_exact(int(np.abs(scaled).max()), total)
        self._scaled, self._scaled_total = scaled, total
        return self

    def update_many(self, pairs) -> "EntropySketch":
        """Add every ``(item, delta)`` of an iterable, generators included,
        as one state change.  The pairs are counted into a ``Counter`` per
        block of ``_STREAM_BLOCK`` pairs, each block is summed exactly off
        to the side (``_block_sum``), then the total is checked and
        committed once.

        The bytes equal one ``update`` per pair where that loop does not
        raise.  On failure the sketch is unchanged: ``ValueError`` if any
        delta is not finite, else ``OverflowError`` if and only if the
        finished sketch leaves the 2^53 range, or the error of the
        iterable or of a part.  An error of the iterable, such as a bad
        stream line, comes before an overflow found in an earlier block.
        """
        pairs = iter(pairs)
        # one Counter per block, until the first empty one
        blocks = iter(lambda: Counter(islice(pairs, _STREAM_BLOCK)), Counter())
        scaled, total = self._scaled.astype(object), self._scaled_total
        for counts in blocks:
            if not all(map(math.isfinite, {delta for _, delta in counts})):
                raise ValueError("delta must be finite")
            try:
                with np.errstate(over="ignore"):  # an infinite increment fails in _ints
                    block, block_total = self._block_sum(counts)
            except OverflowError:  # an infinite increment; a non-finite delta still comes first
                if not all(math.isfinite(delta) for counts in blocks for _, delta in counts):
                    raise ValueError("delta must be finite") from None
                raise OverflowError(OVERFLOW) from None
            scaled += block
            total += block_total
        check_exact(max(map(abs, scaled)), total)
        self._scaled = scaled.astype(np.int64)
        self._scaled_total = total
        return self

    def _block_sum(self, counts: Counter) -> tuple[np.ndarray, int]:
        """The exact sums of ``count * increment`` over a block's distinct
        ``(item, delta)`` pairs: the projections (Python ints in an object
        array) and the total.  The str and bytes forms of an item are two
        groups with one key.  The key-sorted groups' batches go into one
        shared queue, from which ``min(batches, _worker_count())`` pinned
        threads take them (``_part_sum``); one batch runs on this thread.
        """
        k, seed = self.config.k, self.config.master_seed
        index: dict[bytes | str, int] = {}
        for item, _ in counts:
            index.setdefault(item, len(index))
        keys = item_keys(list(index), seed)[[index[item] for item, _ in counts]]
        order = np.argsort(keys, kind="stable")
        c = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))[order]
        d = np.fromiter((delta for _, delta in counts), dtype=np.float64, count=len(counts))[order]

        inc = np.rint(d * SCALE)
        if float(np.abs(inc) @ c) < _EXACT_FLOAT_SUM:
            total = int(inc @ c)
        else:
            total = int(_ints(c) @ _ints(inc))
        distinct, where = np.unique(keys[order], return_inverse=True)
        per = max(1, _BATCH_VARIATES // k)
        starts = range(0, len(counts), per)
        queues = [iter(starts)] * min(_worker_count(), len(starts))  # one iterator, shared
        sums = _map_pinned(partial(_part_sum, k, distinct, where, d, c, per), queues)
        return sum(sums), total

    def __repr__(self) -> str:
        return (
            f"EntropySketch(k={self.config.k}, zeta={self.config.zeta}, "
            f"seed={self.config.master_seed}, total={self.total})"
        )

    # the value: merge, normalize, equality and the file format are SketchFile's

    def normalized(self) -> list[float]:
        """y_l = projections[l]/total, the estimator's input."""
        return self._file().normalized()

    def merge(self, other: "EntropySketch") -> "EntropySketch":
        return self._from_file(self._file().merge(other._file()))

    def copy(self) -> "EntropySketch":
        return self._from_file(self._file())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropySketch):
            return NotImplemented
        return self._file() == other._file()

    def _file(self) -> SketchFile:
        return SketchFile(self.config, tuple(self._scaled.tolist()), self._scaled_total)

    @classmethod
    def _from_file(cls, loaded: SketchFile) -> "EntropySketch":
        """The accumulator holding a value."""
        sketch = cls(loaded.config)
        sketch._scaled = np.array(loaded.scaled, dtype=np.int64)
        sketch._scaled_total = loaded.scaled_total
        return sketch

    def to_bytes(self) -> bytes:
        return self._file().to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "EntropySketch":
        return cls._from_file(SketchFile.from_bytes(data))

    def to_json(self) -> str:
        return self._file().to_json()

    @classmethod
    def from_json(cls, text: str) -> "EntropySketch":
        return cls._from_file(SketchFile.from_json(text))


def _part_sum(k, distinct, where, d, c, per, batches):
    """The exact sum, as k Python ints in an object array, of
    ``c * rint(v * d * 2^16)`` over the groups [lo, lo + per) of each
    batch start lo that this call takes from ``batches``; v are the
    variates of the group's key ``distinct[where]``.

    Groups that are the call's keys in order (every all-distinct block)
    are scaled in the workspace's output; others are gathered first.  The
    float64 sum (``c @ rint(...)``, a BLAS call) is exact while ``bound``,
    the sum of ``c * (max |v * d * 2^16| + 1)``, stays below
    ``_EXACT_FLOAT_SUM``; past it the sum is spilled to Python ints.
    """
    rows = min(per, len(c))
    workspace = VariateWorkspace(k, rows)
    gather_buf = _mapped_words(rows * k, 1)[0].view(np.float64).reshape(rows, k)
    exact, acc, bound = np.zeros(k, dtype=object), np.zeros(k), 0.0
    with np.errstate(over="ignore"):  # an infinite term fails in _ints
        for lo in batches:
            hi = min(lo + per, len(c))
            first, last = where[lo], where[hi - 1]
            scaled = workspace.variates(distinct[first : last + 1])
            if last - first != hi - lo - 1:  # some key has several groups
                scaled = np.take(scaled, where[lo:hi] - first, axis=0, out=gather_buf[: hi - lo],
                                 mode="clip")
            scaled *= d[lo:hi, None] * SCALE  # (v * d) * 2^16 exactly: 2^16 is a power of two
            peak = np.maximum(scaled.max(axis=1), -scaled.min(axis=1))
            step = float(peak @ c[lo:hi]) + float(c[lo:hi].sum())
            np.rint(scaled, out=scaled)
            if not bound + step < _EXACT_FLOAT_SUM:  # spill before a float sum could round
                exact, acc, bound = exact + _ints(acc), np.zeros(k), 0.0
            if step < _EXACT_FLOAT_SUM:
                acc += c[lo:hi] @ scaled
                bound += step
            else:  # a batch past 2^52 on its own
                exact += _ints(c[lo:hi]) @ _ints(scaled)
    return exact + _ints(acc)


def _worker_count() -> int:
    """The CPUs this process may run on: the thread count of the parallel paths."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_pinned(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, with call i on a thread of its own
    pinned to allowed CPU i mod n, where n is the number of CPUs this
    process may run on.

    A lone call runs on the calling thread.  Left to the scheduler, two
    threads started together often shared one CPU for a whole ingest.
    Each thread pins only itself (``os.sched_setaffinity(0, ...)`` acts
    on the calling thread), so the caller's affinity is unchanged; where
    pinning is missing or refused, the thread runs unpinned.  Every
    started thread is joined before the exception of a call, or of a
    ``Thread.start`` that failed, if any, is raised.
    """
    calls = list(zip(*iterables))
    if len(calls) == 1:
        return [fn(*calls[0])]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    results: list = [None] * len(calls)
    errors: list = [None] * len(calls)

    def call(i):
        if cpus:
            try:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            except OSError:
                pass
        try:
            results[i] = fn(*calls[i])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    started = []
    try:
        for i in range(len(calls)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            started.append(thread)
    finally:  # a failed start (no thread left) raises once those started are done
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def new_sketch(k: int, zeta: float = 1.0, master_seed: int = 0) -> EntropySketch:
    return EntropySketch(SketchConfig(k=k, zeta=zeta, master_seed=master_seed))


def sketch_stream(elements, k: int, zeta: float = 1.0, master_seed: int = 0) -> EntropySketch:
    """One-pass sketch of an iterable of (item, delta) pairs, via ``update_many``."""
    return new_sketch(k, zeta, master_seed).update_many(elements)
