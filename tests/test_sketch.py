"""Sketch structure: linearity, merging, cancellation, serialization.

Projections live on a fixed 2^-16 grid in a signed 64-bit accumulator, so
addition is exactly associative and invertible -- the bitwise claims below
are not tolerance checks.
"""

import json
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosketch import sketch as sketch_mod
from entrosketch.hashing import accumulate_np, item_key, variates_np
from entrosketch.sketch import (
    CACHE_VARIATES,
    EntropySketch,
    SketchConfig,
    new_sketch,
    sketch_stream,
)
from entrosketch.sketchfile import FORMAT_VERSION, HEADER, MAGIC, QUANTUM, QUANTUM_BITS

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

    def test_normalized_scale(self):
        s = new_sketch(k=16).update("x", 4.0)
        assert np.allclose(s.normalized(), s.projections / 4.0)


class TestAtomicUpdates:
    @pytest.mark.parametrize("delta", [1e15, 1e30, -1e30])
    def test_overflowing_update_leaves_sketch_unchanged(self, delta):
        s = new_sketch(k=8).update("a", 2.5).update("x", -1.0)
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

    def test_churn_does_not_trip_the_running_bound(self):
        # 2000 updates whose summed magnitudes pass 2^53 many times over,
        # while the projections stay far below it
        k, delta = 8, 2.0**30
        vmax = float(np.abs(variates_np(item_key("x", 0), k)).max())
        assert 2000 * vmax * delta * 65536.0 > 4 * 2**53
        s = new_sketch(k=k)
        for _ in range(1000):
            s.update("x", delta).update("x", -delta)
        assert s == new_sketch(k=k)
        assert s._bound < 2**53
        assert new_sketch(k=k).update_many([("x", delta), ("x", -delta)] * 1000) == s

    def test_bound_covers_projections(self):
        s = new_sketch(k=16)
        for item, delta in _mixed_updates(7, 9):
            s.update(item, delta * 1e3)
            assert s._bound >= np.abs(s._scaled).max()
        for t in (s.copy(), s.merge(s), EntropySketch.from_bytes(s.to_bytes())):
            assert t._bound >= np.abs(t._scaled).max()


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
        assert len(s._cache) == CACHE_VARIATES // 1000
        assert sum(v.size for v in s._cache.values()) <= CACHE_VARIATES
        # increments and item -> key entries are kept for cached keys only
        assert s._cache_inc.keys() == s._cache.keys()
        assert set(s._cached_keys.values()) == s._cache.keys()

    def test_kept_increment_follows_the_last_delta(self):
        # a cached key keeps the increment of its last delta only, and the
        # str and bytes forms of an item share one key
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
        assert not s._cache
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
        # worst case is past its headroom, so it replays the loop
        updates = [("x", 2.0**30)] * 12 + [("x", -(2.0**30))] * 12 + [("y", 1.0)]
        for workers in (1, 2):
            _split_blocks(monkeypatch, workers)
            assert sketch_stream(updates, k=8) == _loop(updates, 8)

    def test_invalid_element_after_overflow_raises_overflow(self):
        with pytest.raises(ValueError):
            sketch_stream([("a", 1.0), ("y", float("nan"))], k=8)
        with pytest.raises(OverflowError):
            sketch_stream([("x", 1e15), ("y", float("nan"))], k=8)


def _split_blocks(monkeypatch, workers):
    """Split every block of more than one (key, delta) group over ``workers``
    threads.  The tests that take both 1 and 2 loop over them in their body,
    which keeps their test ids."""
    monkeypatch.setattr(sketch_mod, "_THREAD_VARIATES", 1)
    monkeypatch.setattr(sketch_mod, "_worker_count", lambda: workers)


def _loop_until_error(updates, k, seed=0):
    """The update() loop's sketch and error type at its first failing update."""
    s = new_sketch(k=k, master_seed=seed)
    for item, delta in updates:
        try:
            s.update(item, delta)
        except (OverflowError, ValueError) as exc:
            return s, type(exc)
    return s, None


class TestUpdateMany:
    def test_continues_a_sketch_bitwise(self, monkeypatch):
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 9)
        head, tail = _mixed_updates(5, 2), _mixed_updates(8, 3) + [(b"i2", -0.5)]
        s = _loop(head, 32, seed=1)
        assert s.update_many(iter(tail)) is s
        assert s.to_bytes() == _loop(head + tail, 32, seed=1).to_bytes()

    def test_hashes_each_item_once_per_block(self, monkeypatch):
        calls = []

        def counting_item_key(item, seed):
            calls.append(item)
            return item_key(item, seed)

        monkeypatch.setattr(sketch_mod, "item_key", counting_item_key)
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
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", block)
        updates = _mixed_updates(3, 3) + bad + [("z", 1.0)] * 4
        ref, error = _loop_until_error(updates, 8)
        assert error is not None
        for workers in (1, 2):
            _split_blocks(monkeypatch, workers)
            s = new_sketch(k=8)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error):
                    s.update_many(updates)
            assert s == ref and s.to_bytes() == ref.to_bytes()

    def test_worker_counts_give_the_same_bytes(self, monkeypatch):
        # any split of a block over threads sums to the same int64 bits, also
        # with more threads than cores switching often.  Small blocks and
        # batches put block, batch and part boundaries inside the stream,
        # and repeated items give one key several (key, delta) groups.
        monkeypatch.setattr(sketch_mod, "_STREAM_BLOCK", 50)
        monkeypatch.setattr(sketch_mod, "_BATCH_VARIATES", 3 * 16)
        monkeypatch.setattr(sketch_mod, "_THREAD_VARIATES", 16)
        parts = []
        real_part_sum = sketch_mod._part_sum

        def recording_part_sum(*args):
            parts.append(args[-2:])
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
                # 151 updates: three full blocks of 50 and one of 1
                assert len(parts) == 3 * workers + 1
        finally:
            sys.setswitchinterval(interval)

    def test_a_part_that_raises_leaves_the_sketch_unchanged(self, monkeypatch):
        _split_blocks(monkeypatch, 2)
        real_part_sum = sketch_mod._part_sum

        def failing_part_sum(*args):
            if args[-2] > 0:  # the second part
                raise MemoryError("part failed")
            return real_part_sum(*args)

        monkeypatch.setattr(sketch_mod, "_part_sum", failing_part_sum)
        s = _loop(_mixed_updates(5, 2), 16)
        before, bound = s.to_bytes(), s._bound
        with pytest.raises(MemoryError, match="part failed"):
            s.update_many(_mixed_updates(9, 3))
        assert s.to_bytes() == before and s._bound == bound


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
        assert s._bound >= np.abs(s._scaled).max()
