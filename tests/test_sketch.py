"""Sketch structure: linearity, merging, cancellation, serialization.

Projections live on a fixed 2^-16 grid in a signed 64-bit accumulator, so
addition is exactly associative and invertible -- the bitwise claims below
are not tolerance checks.
"""

import hashlib
import json
import math
import os
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosketch import sketch as sketch_mod
from entrosketch.hashing import accumulate_np, item_key, item_keys, variates_np
from entrosketch.sketch import (
    CACHE_VARIATES,
    EntropySketch,
    SketchConfig,
    new_sketch,
    sketch_stream,
)
from entrosketch.sketchfile import FORMAT_VERSION, HEADER, MAGIC, QUANTUM, QUANTUM_BITS
from entrosketch.streams import StreamParseError, iter_stream_file

items = st.text(min_size=1, max_size=8)
deltas = st.integers(min_value=-50, max_value=50).map(float)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SketchConfig(k=0)
        with pytest.raises(ValueError):
            SketchConfig(k=10, zeta=0.0)
        with pytest.raises(ValueError):
            SketchConfig(k=10, zeta=-0.5)
        with pytest.raises(ValueError):
            SketchConfig(k=10, master_seed=-1)
        for bad in [dict(k=True), dict(k=3.0), dict(k=3, zeta="1.0"), dict(k=3, zeta=True),
                    dict(k=3, zeta=10**400),
                    dict(k=3, master_seed=1.5), dict(k=3, master_seed="5"),
                    dict(k=3, master_seed=True)]:
            with pytest.raises(ValueError):
                SketchConfig(**bad)

    def test_quantum(self):
        assert QUANTUM == 2.0**-QUANTUM_BITS


class TestUpdates:
    def test_empty_sketch(self):
        s = new_sketch(k=8)
        assert s.total == 0.0
        assert np.all(s.projections == 0.0)
        with pytest.raises(ValueError):
            s.normalized()

    def test_update_returns_self(self):
        s = new_sketch(k=4)
        assert s.update("a") is s
        assert s.total == 1.0

    def test_weighted_update(self):
        s = new_sketch(k=4)
        s.update("a", 3.5)
        assert s.total == 3.5

    def test_linearity_in_delta(self):
        # each update quantizes once, so grouping deltas differently can
        # shift a projection by a few grid steps but no more
        a = new_sketch(k=16).update("x", 3.0)
        b = new_sketch(k=16)
        for _ in range(3):
            b.update("x", 1.0)
        assert a.total == b.total
        assert np.max(np.abs(a.projections - b.projections)) <= 2 * QUANTUM

    def test_negation_cancels_exactly(self):
        a = new_sketch(k=16).update("x", 3.0).update("x", -3.0)
        assert a == new_sketch(k=16)

    def test_order_independence(self):
        a = new_sketch(k=16)
        b = new_sketch(k=16)
        for it in ("u", "v", "w"):
            a.update(it)
        for it in ("w", "u", "v"):
            b.update(it)
        assert a == b
        assert a.to_bytes() == b.to_bytes()

    def test_overflow_guard(self):
        s = new_sketch(k=8)
        with pytest.raises(OverflowError):
            for _ in range(64):
                s.update("x", 1e15)

    def test_seed_changes_projections(self):
        a = new_sketch(k=16, master_seed=0).update("x")
        b = new_sketch(k=16, master_seed=1).update("x")
        assert not np.array_equal(a.projections, b.projections)

    @given(st.lists(st.tuples(items, deltas), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_normalized_scale(self, updates):
        # the oracle is the numpy rule projections / total, bit for bit;
        # the last update keeps the total positive
        s = sketch_stream(updates + [("x", 2000.0)], k=16)
        assert np.array_equal(s.normalized(), s.projections / s.total)


class TestAtomicUpdates:
    @pytest.mark.parametrize("delta", [1e15, 1e30, -1e30])
    def test_overflowing_update_leaves_sketch_unchanged(self, delta):
        for k in (8, 2217):
            s = new_sketch(k=k).update("a", 2.5).update("x", -1.0)
            before = s.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no invalid float-to-int cast
                with pytest.raises(OverflowError):
                    s.update("x", delta)
            assert s == before

    def test_slow_crossing_raises_at_the_limit_unchanged(self):
        # each step is far below the limit; the exact check decides
        s = new_sketch(k=8)
        for _ in range(200):
            before = s.copy()
            try:
                s.update("x", 2.0**30)
            except OverflowError:
                break
        else:
            pytest.fail("2^53 was never crossed")
        assert s == before
        assert np.abs(s._scaled).max() < 2**53

    def test_churn_that_cancels_never_raises(self):
        # 2000 updates whose summed magnitudes pass 2^53 many times over,
        # while the projections stay far below it
        k, delta = 8, 2.0**30
        vmax = float(np.abs(variates_np(item_key("x", 0), k)).max())
        assert 2000 * vmax * delta * 65536.0 > 4 * 2**53
        s = new_sketch(k=k)
        for _ in range(1000):
            s.update("x", delta).update("x", -delta)
        assert s == new_sketch(k=k)
        assert new_sketch(k=k).update_many([("x", delta), ("x", -delta)] * 1000) == s


def _mixed_updates(n_items, repeats):
    """Every item `repeats` times, interleaved, with mixed-sign fractional deltas."""
    cycle = [1.0, -0.5, 2.75, 3.0, -1.25, 0.125]
    return [
        (f"i{j}", cycle[(r * n_items + j) % len(cycle)])
        for r in range(repeats)
        for j in range(n_items)
    ]


def _loop(updates, k, seed=0):
    s = new_sketch(k=k, master_seed=seed)
    for item, delta in updates:
        s.update(item, delta)
    return s


class TestVariateCache:
    def test_cached_update_matches_accumulate_bitwise(self):
        k = 1000
        updates = _mixed_updates(300, 3)  # 300 distinct items; the cap admits 131
        scaled = np.zeros(k, dtype=np.int64)
        total = 0
        for item, delta in updates:
            accumulate_np(scaled, item_key(item, 4), delta)
            total += int(np.rint(delta * 65536.0))
        s = _loop(updates, k, seed=4)
        assert np.array_equal(s._scaled, scaled)
        assert s._scaled_total == total

    def test_cache_is_capped(self):
        s = _loop(_mixed_updates(300, 2), k=1000)
        assert CACHE_VARIATES == 2**17
        assert len(s._items) == CACHE_VARIATES // 1000
        assert sum(v.size for v, _ in s._items.values()) <= CACHE_VARIATES
        # an entry holds the item's variates and their largest magnitude, nothing per delta
        for item, (v, vmax) in s._items.items():
            assert np.array_equal(v, variates_np(item_key(item, 0), 1000))
            assert vmax == np.abs(v).max()

    def test_kept_increment_follows_the_last_delta(self):
        # a cached key whose delta changes gets each delta's increment, and
        # the str and bytes forms of an item share one key
        k = 64
        updates = [("a", 1.0), (b"a", 1.0), ("a", 2.5), ("a", 1.0), ("b", -0.0), ("b", 0.0),
                   (b"b", 3), ("b", 3.0), ("a", 2.5), ("a", -1.0), (b"a", -1.0)] * 3
        scaled = np.zeros(k, dtype=np.int64)
        total = 0
        for item, delta in updates:
            accumulate_np(scaled, item_key(item, 4), delta)
            total += int(np.rint(delta * 65536.0))
        s = _loop(updates, k, seed=4)
        assert np.array_equal(s._scaled, scaled)
        assert s._scaled_total == total

    def test_cached_item_is_not_hashed_again(self, monkeypatch):
        calls = []

        def counting_item_key(item, seed):
            calls.append(item)
            return item_key(item, seed)

        monkeypatch.setattr(sketch_mod, "item_key", counting_item_key)
        s = new_sketch(k=16)
        for _ in range(10):
            s.update("a").update(b"a", 2.0)
        # at most twice per form of the item, not once per update
        assert len(calls) <= 4
        assert s == _loop([("a", 1.0), (b"a", 2.0)] * 10, 16)

    def test_width_beyond_cap_caches_nothing(self):
        s = new_sketch(k=CACHE_VARIATES + 1).update("a").update("a", -1.0)
        assert not s._items
        assert s == new_sketch(k=CACHE_VARIATES + 1)


class TestSketchStream:
    @pytest.mark.parametrize("block, batch_variates", [(7, 3 * 16), (7, 5), (1, 16), (1 << 16, 1 << 17)])
    def test_matches_update_loop_bitwise(self, monkeypatch, block, batch_variates):
        # small blocks and variate calls put many block and call boundaries
        # inside the stream, including keys split across calls
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", block)
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", batch_variates)
        updates = _mixed_updates(11, 5) + [(b"i3", 7.0), ("i3", 7.0), ("z", 0.0)]
        s = sketch_stream(updates, k=16, master_seed=2)
        ref = _loop(updates, 16, seed=2)
        assert s == ref and s.to_bytes() == ref.to_bytes()

    def test_generator_input(self, monkeypatch):
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 10)
        updates = _mixed_updates(13, 4)
        s = sketch_stream((u for u in updates), k=200, master_seed=6)
        assert s.to_bytes() == _loop(updates, 200, seed=6).to_bytes()

    def test_empty_stream(self):
        assert sketch_stream(iter(()), k=8) == new_sketch(k=8)

    def test_overflow_like_update_loop(self, monkeypatch):
        # crossing 2^53 only after many updates
        with pytest.raises(OverflowError):
            _loop([("x", 2.0**30)] * 200, 8)
        for workers in (1, 2):
            _split_blocks(monkeypatch, workers)
            # the test_overflow_guard stream
            with pytest.raises(OverflowError):
                sketch_stream([("x", 1e15)] * 64, k=8)
            with pytest.raises(OverflowError):
                sketch_stream([("x", 2.0**30)] * 200, k=8)

    def test_near_limit_matches_update_loop(self, monkeypatch):
        # the loop peaks just below 2^53 and does not raise; the batch's
        # summed magnitudes pass 2^53, and its exact sums still commit
        updates = [("x", 2.0**30)] * 12 + [("x", -(2.0**30))] * 12 + [("y", 1.0)]
        for workers in (1, 2):
            _split_blocks(monkeypatch, workers)
            assert sketch_stream(updates, k=8) == _loop(updates, 8)

    def test_invalid_element_after_overflow_raises_value_error(self, monkeypatch):
        # any non-finite delta raises ValueError, also after an overflow and
        # after an infinite increment in an earlier block
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 2)
        for head in ([("a", 1.0)], [("x", 1e15)], [("x", 1e308)] * 3):
            with pytest.raises(ValueError):
                sketch_stream(head + [("y", float("nan"))], k=8)
        with pytest.raises(OverflowError, match="exact-double range"):
            sketch_stream([("x", 1e308)] * 3, k=8)


def _split_blocks(monkeypatch, workers):
    """Split every block of more than one (item, delta) group over ``workers``
    threads: each group is a batch of its own.  The tests that take both 1
    and 2 loop over them in their body, which keeps their test ids."""
    monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 1)
    monkeypatch.setattr(sketch_mod, "_worker_count", lambda: workers)


def _loop_error(updates, k, seed=0):
    """The error type of the update() loop's first failing update, if any."""
    s = new_sketch(k=k, master_seed=seed)
    for item, delta in updates:
        try:
            s.update(item, delta)
        except (OverflowError, ValueError) as exc:
            return type(exc)
    return None


def _exact_reference(updates, k, seed=0):
    """The update() loop's increments summed in Python ints: the k
    projections, the total and whether they leave the 2^53 range."""
    scaled, total = [0] * k, 0
    for item, delta in updates:
        inc = np.rint(variates_np(item_key(item, seed), k) * delta * 65536.0)
        scaled = [a + int(x) for a, x in zip(scaled, inc.tolist())]
        total += int(np.rint(delta * 65536.0))
    return scaled, total, max(map(abs, scaled)) >= 2**53 or abs(total) >= 2**53


def _fails_unchanged(s, updates, error):
    """update_many raises ``error`` and leaves the sketch's bytes as they were."""
    before = s.to_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            s.update_many(updates)
    assert s.to_bytes() == before


class TestUpdateMany:
    def test_continues_a_sketch_bitwise(self, monkeypatch):
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 9)
        head, tail = _mixed_updates(5, 2), _mixed_updates(8, 3) + [(b"i2", -0.5)]
        s = _loop(head, 32, seed=1)
        assert s.update_many(iter(tail)) is s
        assert s.to_bytes() == _loop(head + tail, 32, seed=1).to_bytes()

    def test_hashes_each_item_once_per_block(self, monkeypatch):
        calls = []

        def counting_item_keys(items, seed):
            calls.extend(items)
            return item_keys(items, seed)

        monkeypatch.setattr(sketch_mod, "item_keys", counting_item_keys)
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 20)
        updates = _mixed_updates(4, 10)  # 40 updates, 2 blocks of 4 items
        s = new_sketch(k=16).update_many(updates)
        assert len(calls) == 8
        assert s == _loop(updates, 16)

    @pytest.mark.parametrize("block", [3, 16, 1 << 16])
    @pytest.mark.parametrize(
        "bad",
        [
            [("x", 1e15)],
            [("x", 1e30)],
            [("y", float("nan"))],
            [("y", float("inf"))],
            [("x", 2.0**30)] * 200,  # crosses 2^53 only after many updates
        ],
    )
    def test_raises_where_the_update_loop_does(self, monkeypatch, block, bad):
        # the loop's error, with the sketch left as it was before the call
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", block)
        updates = _mixed_updates(3, 3) + bad + [("z", 1.0)] * 4
        error = _loop_error(updates, 8)
        assert error is not None
        for workers in (1, 2):
            _split_blocks(monkeypatch, workers)
            _fails_unchanged(_loop(_mixed_updates(4, 2), 8), updates, error)

    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", b"a"]),
                deltas | st.floats(2.0**29, 2.0**31) | st.floats(-(2.0**31), -(2.0**29)),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=1,
            max_size=8,
        ),
        block=st.integers(min_value=1, max_value=64),
    )
    def test_overflow_mid_batch_matches_the_exact_reference(self, runs, block):
        # runs of +-2^30-scale deltas at k=8 cross the 2^53 limit, or come
        # near it, after tens of updates, inside a block or on its boundary;
        # the call raises exactly when the exact end state is out of range,
        # and otherwise commits the exact sums, also where the loop raised
        updates = [(item, delta) for item, delta, repeats in runs for _ in range(repeats)]
        scaled, total, out_of_range = _exact_reference(updates, 8)
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sketch_mod, "_STREAM_BLOCK", block)
                _split_blocks(mp, workers)
                if out_of_range:
                    _fails_unchanged(new_sketch(k=8), updates, OverflowError)
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    s = new_sketch(k=8).update_many(updates)
            assert s._scaled.tolist() == scaled and s._scaled_total == total

    @settings(max_examples=60, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.sampled_from(["a", b"a", "b", "\u00e9", "\u00e9".encode()]),
                st.sampled_from([1.0, -0.5, 2.75]) | deltas,
            ),
            max_size=60,
        ),
        block=st.integers(min_value=1, max_value=70),
        batch_variates=st.integers(min_value=1, max_value=5 * 16),
        workers=st.sampled_from([1, 2]),
    )
    def test_matches_the_update_loop_on_random_streams(self, updates, block, batch_variates,
                                                       workers):
        # str and bytes twins are two items with one key, and an item with
        # several deltas has several groups, which small blocks, batches of
        # 1-5 groups and two workers put across block, batch and part boundaries
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketch_mod, "_STREAM_BLOCK", block)
            mp.setattr(sketch_mod, "_BATCH_VARIATES", batch_variates)
            mp.setattr(sketch_mod, "_worker_count", lambda: workers)
            s = new_sketch(k=16, master_seed=3).update_many(updates)
        assert s.to_bytes() == _loop(updates, 16, seed=3).to_bytes()

    def test_worker_counts_give_the_same_bytes(self, monkeypatch):
        # any split of a block over threads sums to the same int64 bits, also
        # with more threads than cores switching often.  Small blocks and
        # batches put block, batch and part boundaries inside the stream,
        # and repeated items give one item several (item, delta) groups.
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 50)
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 3 * 16)
        parts = []
        real_part_sum = sketch_mod._part_sum

        def recording_part_sum(*args):
            parts.append(args[-1])  # the block's shared queue of batches
            return real_part_sum(*args)

        monkeypatch.setattr(sketch_mod, "_part_sum", recording_part_sum)
        updates = _mixed_updates(37, 4) + [("i5", 7.0), (b"i5", 7.0), ("z", 0.0)]
        ref = _loop(updates, 16, seed=9).to_bytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(sketch_mod, "_worker_count", lambda: workers)
                parts.clear()
                s = new_sketch(k=16, master_seed=9).update_many(updates)
                assert s.to_bytes() == ref
                # 151 updates: three full blocks of 50 and one of 1, and
                # the threads of a block share one queue
                assert len(parts) == 3 * workers + 1
                assert len(set(map(id, parts))) == 4
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("batches", [1, 2, 3, 8])
    def test_parts_follow_the_batches(self, monkeypatch, batches):
        # a block of b batches runs min(workers, b) parts, each on a thread
        # of its own; a one-batch block runs on the calling thread.  3b - 1
        # groups, 3 per batch: the last batch is short.
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 3 * 16)
        threads = []
        real_part_sum = sketch_mod._part_sum

        def recording_part_sum(*args):
            threads.append(threading.current_thread())
            return real_part_sum(*args)

        monkeypatch.setattr(sketch_mod, "_part_sum", recording_part_sum)
        updates = [(f"d{i}", 1.0 + i % 3) for i in range(3 * batches - 1)]
        ref = _loop(updates, 16).to_bytes()
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(sketch_mod, "_worker_count", lambda: workers)
            threads.clear()
            assert new_sketch(k=16).update_many(updates).to_bytes() == ref
            parts = min(workers, batches)
            assert len(threads) == parts
            if parts == 1:
                assert threads == [threading.current_thread()]
            else:
                assert len(set(threads)) == parts and threading.current_thread() not in threads

    def test_a_part_that_raises_leaves_the_sketch_unchanged(self, monkeypatch):
        _split_blocks(monkeypatch, 2)
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 10)
        real_part_sum = sketch_mod._part_sum
        calls = []

        def failing_part_sum(*args):
            calls.append(1)
            if len(calls) == 4:  # a part of the second block
                raise MemoryError("part failed")
            return real_part_sum(*args)

        monkeypatch.setattr(sketch_mod, "_part_sum", failing_part_sum)
        s = _loop(_mixed_updates(5, 2), 16)
        before = s.to_bytes()
        with pytest.raises(MemoryError, match="part failed"):
            s.update_many(_mixed_updates(9, 3))
        assert s.to_bytes() == before

    def test_a_failed_thread_start_waits_for_the_started_threads(self, monkeypatch):
        # a start that fails ("can't start new thread") surfaces only once the
        # thread already started is done, so none drains the queue after the raise
        _split_blocks(monkeypatch, 2)
        real_part_sum, real_start = sketch_mod._part_sum, threading.Thread.start
        finished, starts = [], []

        def slow_part_sum(*args):
            time.sleep(0.05)
            result = real_part_sum(*args)
            finished.append(threading.current_thread())
            return result

        def start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(sketch_mod, "_part_sum", slow_part_sum)
        monkeypatch.setattr(threading.Thread, "start", start)
        s = _loop(_mixed_updates(5, 2), 16)
        before = s.to_bytes()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            s.update_many(_mixed_updates(9, 3))
        assert finished == starts[:1]  # the first call had finished before the raise
        assert s.to_bytes() == before

    @pytest.mark.parametrize("kind", ["nan-in-a-later-block", "parse-error", "overflow"])
    def test_a_failing_call_leaves_the_sketch_unchanged(self, monkeypatch, tmp_path, kind):
        # blocks of 8 pairs: the failure comes after at least one full block
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 8)
        s = _loop(_mixed_updates(5, 2), 16)
        head = _mixed_updates(6, 3)
        if kind == "nan-in-a-later-block":
            _fails_unchanged(s, head + [("y", float("nan"))] + head, ValueError)
        elif kind == "parse-error":
            path = tmp_path / "s.csv"
            path.write_text("".join(f"{i},{d}\n" for i, d in head) + "y,1e\nz,1\n")
            _fails_unchanged(s, iter_stream_file(path), StreamParseError)
        else:
            _fails_unchanged(s, head + [("x", 2.0**30)] * 200, OverflowError)

    def test_overflow_does_not_depend_on_the_order(self, monkeypatch):
        # +-2^30 runs whose loop crosses 2^53 in the given order, and not
        # in every order; the call raises for every order or for none
        _split_blocks(monkeypatch, 2)
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 7)
        rng = np.random.default_rng(5)
        for extra, raises in ((30, False), (40, True)):  # max |v| of "w" is 3.56
            updates = ([("x", 2.0**30)] * 100 + [("x", -(2.0**30))] * 100
                       + [("w", 2.0**30)] * extra + [("z", 1.5)] * 9)
            scaled, total, out_of_range = _exact_reference(updates, 8)
            assert out_of_range == raises and _loop_error(updates, 8) is OverflowError
            for _ in range(5):
                shuffled = [updates[i] for i in rng.permutation(len(updates))]
                if raises:
                    _fails_unchanged(new_sketch(k=8), shuffled, OverflowError)
                else:
                    s = new_sketch(k=8).update_many(shuffled)
                    assert s._scaled.tolist() == scaled and s._scaled_total == total

    def test_commits_where_the_update_loop_raises_partway(self):
        # the loop passes 2^53 on the way; the end state is back in range
        updates = [("x", 2.0**30)] * 200 + [("x", -(2.0**30))] * 199 + [("y", 3.0)]
        assert _loop_error(updates, 8) is OverflowError
        s = new_sketch(k=8).update_many(updates)
        ref = _loop([("x", 2.0**30), ("y", 3.0)], 8)
        assert s.to_bytes() == ref.to_bytes()


class TestPartSum:
    """``_part_sum`` sums in float64, exactly: its bytes are the update loop's."""

    @pytest.mark.parametrize("batch_variates", [16, 3 * 16, 5 * 16, 1 << 16])
    @pytest.mark.parametrize("repeated", [False, True], ids=["all-distinct", "repeated"])
    def test_matches_the_update_loop(self, monkeypatch, batch_variates, repeated):
        # an all-distinct block scales the workspace's output in place; a
        # block where a key has several (item, delta) groups gathers first,
        # unless each variate call holds one group (batch_variates == k)
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", batch_variates)
        takes = []
        real_take = np.take

        def counting_take(*args, **kwargs):
            takes.append(1)
            return real_take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counting_take)
        updates = (_mixed_updates(13, 3) + [(b"i4", 7.0)] if repeated
                   else [(f"d{i}", 1.0 + i % 5) for i in range(41)])
        s = sketch_stream(updates, k=16, master_seed=5)
        assert bool(takes) == (repeated and batch_variates > 16)
        assert s.to_bytes() == _loop(updates, 16, seed=5).to_bytes()

    @staticmethod
    def _near_the_headroom(monkeypatch, batch_variates, share):
        """Seven groups at k=16 whose summed worst case is ``share`` of
        ``_EXACT_FLOAT_SUM``, the headroom of exact float sums, the sketch
        that ``sketch_stream`` makes of them, and the shapes that
        ``_ints`` converted to Python ints on the way, all in one part."""
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", batch_variates)
        monkeypatch.setattr(sketch_mod, "_worker_count", lambda: 1)
        k, seed = 16, 3
        groups = [(f"i{j}", (-1) ** j * (1 + j / 7), 1 + j % 3) for j in range(7)]
        vmax = {item: float(np.abs(variates_np(item_key(item, seed), k)).max())
                for item, _, _ in groups}
        assert min(vmax.values()) > 1.0  # so the total stays below the worst case
        worst = sum(count * vmax[item] * abs(d) * 65536.0 for item, d, count in groups)
        scale = sketch_mod._EXACT_FLOAT_SUM * share / worst
        updates = [(item, d * scale) for item, d, count in groups for _ in range(count)]
        converted = []
        real_ints = sketch_mod._ints

        def recording_ints(x):
            converted.append(x.shape)
            return real_ints(x)

        monkeypatch.setattr(sketch_mod, "_ints", recording_ints)
        s = sketch_stream(updates, k, master_seed=seed)
        assert s.to_bytes() == _loop(updates, k, seed=seed).to_bytes()
        scaled, total, out_of_range = _exact_reference(updates, k, seed)
        assert s._scaled.tolist() == scaled and s._scaled_total == total and not out_of_range
        return s, converted

    @pytest.mark.parametrize("batch_variates", [16, 3 * 16, 1 << 16])
    def test_bound_just_under_the_headroom(self, monkeypatch, batch_variates):
        # terms and partial sums near 2^52: the block's bound comes within
        # 1e-5 of the headroom and it is summed in float64 to the end; only
        # the one part's final float sum is converted
        s, converted = self._near_the_headroom(monkeypatch, batch_variates, 1 - 1e-6)
        assert converted == [(16,)]
        assert np.abs(s._scaled).max() > 2**50

    @pytest.mark.parametrize("batch_variates", [16, 3 * 16, 1 << 16])
    def test_past_the_headroom_sums_exactly(self, monkeypatch, batch_variates):
        # 1.5 times the headroom: one batch per group spills the float sum
        # to Python ints; one batch for all groups is summed in Python ints
        s, converted = self._near_the_headroom(monkeypatch, batch_variates, 1.5)
        assert len(converted) > 1
        assert np.abs(s._scaled).max() > 2**51

    @pytest.mark.parametrize("batch_variates", [16, 3 * 16])
    def test_partial_sums_past_2_53_are_exact(self, monkeypatch, batch_variates):
        # the str and bytes forms of "x" share a key, so their groups are
        # summed in the order given: eight of about 0.95 * 2^52 each take
        # the running sum to 3.8 * 2^53, where a float sum would round the
        # small groups, and eight more cancel them
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", batch_variates)
        k = 16
        big = 0.95 * 2**52 / (float(np.abs(variates_np(item_key("x", 0), k)).max()) * 65536.0)
        forms = ["x", b"x"] * 4
        updates = ([(form, big * (1 + j / 1000)) for j, form in enumerate(forms)]
                   + [("x", 1.25), (b"x", -3.75)]
                   + [(form, -big * (1 + j / 1000)) for j, form in enumerate(forms)])
        scaled, total, out_of_range = _exact_reference(updates, k)
        assert not out_of_range and _loop_error(updates, k) is OverflowError
        s = new_sketch(k=k).update_many(updates)
        assert s._scaled.tolist() == scaled and s._scaled_total == total

    def test_terms_past_int64_cancel_exactly(self, monkeypatch):
        # each big x increment is about 5e20, past int64, and their exact
        # sum is 0; the str and bytes forms of "x" share a key, so the small
        # group is summed between them, where a float sum would round it
        _split_blocks(monkeypatch, 2)
        updates = [("x", 1e15), (b"x", 1.25), ("x", 1e15), (b"x", -2e15), ("z", -2.5)]
        ref = _loop([(b"x", 1.25), ("z", -2.5)], 8)
        assert new_sketch(k=8).update_many(updates).to_bytes() == ref.to_bytes()


class TestGoldenBytes:
    """Sketch bytes pinned before the cos-free kernel, the float64 sums and
    the batch item keys: the three changed no byte of these sketches."""

    def test_all_distinct_stream(self):
        # the console-script check's stream: 2000 distinct lines at k=2217
        s = sketch_stream([(f"item{i}", 1) for i in range(1, 2001)], 2217, master_seed=7)
        assert hashlib.sha256(s.to_bytes()).hexdigest() == (
            "d83537c85e47640d7e96b288eaf0a59d711b553c706ddb2baa9f130ce489d927")

    def test_repeated_item_stream(self):
        updates = [(f"r{i % 37}", (-1, 1, 2, 3, 4)[i % 5]) for i in range(3000)]
        s = sketch_stream(updates, 200, master_seed=7)
        assert hashlib.sha256(s.to_bytes()).hexdigest() == (
            "77286d638acd20f1725df281ed80e484b231135da2fa5e53554cea3a83ae45cb")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
class TestPinnedParts:
    """Each part of a split block runs on a thread pinned to its own CPU."""

    def _pins(self, monkeypatch, cpus, refuse=False):
        pins = []

        def set_affinity(pid, mask):
            pins.append((pid, threading.current_thread(), set(mask)))
            if refuse:
                raise OSError("refused")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        monkeypatch.setattr(os, "sched_setaffinity", set_affinity)
        # 18 groups at k=16 in batches of 3: six batches
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 3 * 16)
        return pins

    @pytest.mark.parametrize("refuse", [False, True], ids=["pinned", "refused"])
    def test_parts_get_distinct_cpus(self, monkeypatch, refuse):
        updates = _mixed_updates(9, 3)
        ref = _loop(updates, 16).to_bytes()
        pins = self._pins(monkeypatch, {3, 5}, refuse)
        assert new_sketch(k=16).update_many(updates).to_bytes() == ref
        # one block of two parts: each on a thread of its own, pinning only itself
        assert sorted(mask for _, _, mask in pins) == [{3}, {5}]
        assert {pid for pid, _, _ in pins} == {0}
        threads = {thread for _, thread, _ in pins}
        assert len(threads) == 2 and threading.current_thread() not in threads

    def test_more_parts_than_cpus_wrap_around(self, monkeypatch):
        pins = self._pins(monkeypatch, {2, 7})
        monkeypatch.setattr(sketch_mod, "_worker_count", lambda: 5)
        new_sketch(k=16).update_many(_mixed_updates(9, 3))
        assert sorted(min(mask) for _, _, mask in pins) == [2, 2, 2, 7, 7]

    def test_callers_affinity_is_unchanged(self, monkeypatch):
        before = os.sched_getaffinity(0)
        _split_blocks(monkeypatch, 2)
        updates = _mixed_updates(9, 3)
        assert new_sketch(k=16).update_many(updates).to_bytes() == _loop(updates, 16).to_bytes()
        assert os.sched_getaffinity(0) == before


class TestTurnstile:
    @given(st.lists(st.tuples(items, deltas), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_insert_then_delete_is_bitwise_zero(self, updates):
        s = new_sketch(k=8, master_seed=3)
        for item, delta in updates:
            s.update(item, delta)
        for item, delta in reversed(updates):
            s.update(item, -delta)
        assert s == new_sketch(k=8, master_seed=3)

    @given(
        st.lists(st.tuples(items, deltas), max_size=20),
        st.lists(st.tuples(items, deltas), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation_bitwise(self, xs, ys):
        merged = sketch_stream(xs, k=8, master_seed=5).merge(
            sketch_stream(ys, k=8, master_seed=5)
        )
        assert merged == sketch_stream(xs + ys, k=8, master_seed=5)

    def test_merge_rejects_mismatched_config(self):
        for other in (new_sketch(k=4), new_sketch(k=8, zeta=0.9), new_sketch(k=8, master_seed=1)):
            with pytest.raises(ValueError):
                new_sketch(k=8).merge(other)

    def test_merge_does_not_mutate_inputs(self):
        a = new_sketch(k=4).update("a")
        b = new_sketch(k=4).update("b")
        a_bytes, b_bytes = a.to_bytes(), b.to_bytes()
        a.merge(b)
        assert a.to_bytes() == a_bytes and b.to_bytes() == b_bytes

    def test_copy_is_detached(self):
        a = new_sketch(k=4).update("a")
        c = a.copy()
        c.update("b")
        assert a != c

    @pytest.mark.parametrize("field", ["projection", "total"])
    def test_merge_past_the_limit_raises_inputs_unchanged(self, field):
        near = (2**52 + 5) * QUANTUM  # on the grid, below the limit
        a = EntropySketch.from_json(_json_with(new_sketch(k=4).update("a"), field, near))
        b = EntropySketch.from_json(_json_with(new_sketch(k=4).update("b"), field, near))
        a_bytes, b_bytes = a.to_bytes(), b.to_bytes()
        with pytest.raises(OverflowError):
            a.merge(b)
        assert a.to_bytes() == a_bytes and b.to_bytes() == b_bytes


def _json_with(s, field, value):
    """``s.to_json()`` with its first projection, or its total, set to ``value``."""
    doc = json.loads(s.to_json())
    if field == "projection":
        doc["projections"][0] = value
    else:
        doc["total"] = value
    return json.dumps(doc)


class TestSerialization:
    def _sample(self):
        return sketch_stream(
            [("a", 1.0), ("b", 2.5), ("c", -0.5)], k=12, zeta=0.9, master_seed=77
        )

    def test_bytes_roundtrip_bitwise(self):
        s = self._sample()
        t = EntropySketch.from_bytes(s.to_bytes())
        assert t == s
        assert t.to_bytes() == s.to_bytes()
        assert t.config == s.config

    def test_json_roundtrip_bitwise(self):
        s = self._sample()
        t = EntropySketch.from_json(s.to_json())
        assert t == s
        assert t.to_bytes() == s.to_bytes()

    def test_json_is_plain_json(self):
        doc = json.loads(self._sample().to_json())
        assert doc["k"] == 12

    def test_bad_magic(self):
        data = bytearray(self._sample().to_bytes())
        data[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            EntropySketch.from_bytes(bytes(data))

    def test_bad_version(self):
        data = bytearray(self._sample().to_bytes())
        data[4] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            EntropySketch.from_bytes(bytes(data))

    def test_truncated(self):
        data = self._sample().to_bytes()
        with pytest.raises(ValueError):
            EntropySketch.from_bytes(data[:-3])

    def test_magic_value(self):
        assert self._sample().to_bytes()[:4] == MAGIC

    def test_identical_seeds_identical_bytes(self):
        assert self._sample().to_bytes() == self._sample().to_bytes()

    BAD_VALUES = [
        pytest.param(float("nan"), "finite", id="nan"),
        pytest.param(float("inf"), "finite", id="inf"),
        pytest.param(-float("inf"), "finite", id="-inf"),
        pytest.param(2.0**37, "2\\^37", id="2^37"),
        pytest.param(-(2.0**37), "2\\^37", id="-2^37"),
        pytest.param(2.0**40, "2\\^37", id="2^40"),
    ]

    @pytest.mark.parametrize("field", ["projection", "total"])
    @pytest.mark.parametrize("value, match", BAD_VALUES)
    def test_from_bytes_rejects_bad_values(self, field, value, match):
        data = bytearray(self._sample().to_bytes())
        offset = HEADER.size if field == "projection" else HEADER.size - 8
        struct.pack_into("<d", data, offset, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any int64 cast
            with pytest.raises(ValueError, match=match):
                EntropySketch.from_bytes(bytes(data))

    @pytest.mark.parametrize("field", ["projection", "total"])
    @pytest.mark.parametrize("value, match", BAD_VALUES)
    def test_from_json_rejects_bad_values(self, field, value, match):
        text = _json_with(self._sample(), field, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                EntropySketch.from_json(text)

    @pytest.mark.parametrize("field", ["format_version", "k", "zeta", "master_seed", "total", "projections"])
    def test_from_json_rejects_missing_field(self, field):
        doc = json.loads(self._sample().to_json())
        del doc[field]
        with pytest.raises(ValueError):
            EntropySketch.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("total", 10**400, id="huge-int-total"),
            pytest.param("zeta", 10**400, id="huge-int-zeta"),
            pytest.param("k", None, id="null-k"),
            pytest.param("projections", 5.0, id="number-projections"),
            pytest.param("projections", {"0": 1.0}, id="object-projections"),
            pytest.param("projections", "abc", id="string-projections"),
            pytest.param("projections", [[0.0] * 12], id="nested-projections"),
            pytest.param("projections", ["0.5"] * 12, id="string-entries"),
            pytest.param("projections", [True] * 12, id="bool-entries"),
            pytest.param("total", "8000", id="string-total"),
            pytest.param("format_version", True, id="bool-version"),
            pytest.param("format_version", 1.0, id="float-version"),
            pytest.param("k", 3.7, id="float-k"),
            pytest.param("k", 12.0, id="integral-float-k"),
            pytest.param("k", True, id="bool-k"),
            pytest.param("zeta", "1.0", id="string-zeta"),
            pytest.param("zeta", True, id="bool-zeta"),
            pytest.param("master_seed", "5", id="string-seed"),
            pytest.param("master_seed", 5.9, id="float-seed"),
            pytest.param("master_seed", False, id="bool-seed"),
        ],
    )
    def test_from_json_rejects_malformed_field(self, field, value):
        doc = json.loads(self._sample().to_json())
        doc[field] = value
        with pytest.raises(ValueError):
            EntropySketch.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "5", "null", '"sketch"'])
    def test_from_json_rejects_non_object(self, text):
        with pytest.raises(ValueError):
            EntropySketch.from_json(text)

    @pytest.mark.parametrize("field", ["projection", "total"])
    @pytest.mark.parametrize("value, stored", [(0.1, 6554 * QUANTUM), (-(2.0**-17) - 2.0**-40, -QUANTUM)])
    def test_off_grid_values_round_to_the_quantum(self, field, value, stored):
        s = EntropySketch.from_json(_json_with(self._sample(), field, value))
        got = s.projections[0] if field == "projection" else s.total
        assert got == stored
        assert EntropySketch.from_bytes(s.to_bytes()) == s

    @pytest.mark.parametrize("field", ["projection", "total"])
    @pytest.mark.parametrize("value", [2.0**37 - QUANTUM, -(2.0**37) + QUANTUM, QUANTUM, 0.0])
    def test_values_in_range_load_and_roundtrip(self, field, value):
        s = EntropySketch.from_json(_json_with(self._sample(), field, value))
        assert EntropySketch.from_bytes(s.to_bytes()).to_bytes() == s.to_bytes()
        assert EntropySketch.from_json(s.to_json()) == s

    @pytest.mark.parametrize("edge", [2.0**37 - QUANTUM, -(2.0**37) + QUANTUM])
    @pytest.mark.parametrize("field", ["projection", "total"])
    def test_update_at_the_edge_raises_exactly_at_the_limit(self, field, edge):
        # loaded one grid step below 2^53; an update whose increment there is
        # one step toward the limit raises, and none, or one step back, commits
        loaded = _json_with(self._sample(), field, edge)
        unit = variates_np(item_key("a", 77), 12)[0] if field == "projection" else 1.0
        for x, steps in ((0.75, 1), (0.25, 0), (-0.75, -1)):  # rint(x) steps toward the limit
            delta = math.copysign(1.0, edge) * x / (unit * 65536.0)
            s = EntropySketch.from_json(loaded)
            before = s.to_bytes()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if steps == 1:
                    with pytest.raises(OverflowError):
                        s.update("a", delta)
                    assert s.to_bytes() == before
                    continue
                s.update("a", delta)
            got = s._scaled[0] if field == "projection" else s._scaled_total
            assert got == (2**53 - 1 + steps) * (1 if edge > 0 else -1)
