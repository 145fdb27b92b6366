"""Counter-based hashing: every variate is a pure function of (item, seed, row)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosketch import hashing, stable
from entrosketch.hashing import (
    GOLDEN,
    VariateWorkspace,
    _g0_from_words,
    _open_unit_into,
    _scratch,
    accumulate_np,
    fnv1a64,
    hash_word,
    item_key,
    item_keys,
    mix64,
    open_unit,
    uniform_exp_words,
    variate_from_key,
    variates_np,
)

U64 = 1 << 64
WIDTHS = [1, 2, 7, 16, 17, 200, 256, 2217]


def _unit_pairs(keys, k):
    """(u01, w01) of every (key, row), shape (len(keys), k): the hash words
    and ``stable``'s open-unit mapping, one allocating expression per step."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)

    def mix(x):
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    key = keys[:, None]
    row = np.arange(k, dtype=np.uint64)[None, :]
    u01 = stable._open_unit(mix(key + (np.uint64(2) * row) * np.uint64(GOLDEN)))
    w01 = stable._open_unit(mix(key + (np.uint64(2) * row + np.uint64(1)) * np.uint64(GOLDEN)))
    return u01, w01


def _reference_variates(keys, k):
    """The variates with one allocating numpy expression per step: the
    arithmetic ``VariateWorkspace`` must reproduce bit for bit, words
    clamped below 1.0 included.  With c = u - pi/2 and t = tan u,
    X = log(log(w01) / (c sqrt(1 + t^2))) - c t, which is
    (pi/2 - u) t + log(w cos u / (pi/2 - u)) for w = -log(w01)."""
    u01, w01 = _unit_pairs(keys, k)
    u = (u01 - 0.5) * np.pi
    t = np.tan(u)
    c = u - stable.HALF_PI
    return np.log(np.log(w01) / (np.sqrt(t * t + 1.0) * c)) - c * t


def _cos_form_variates(keys, k):
    """The variates by ``stable``'s Monte Carlo formula, which keeps cos u:
    the sketch's arithmetic before the cos-free kernel."""
    return stable._g0(*stable._uniform_exp(*_unit_pairs(keys, k)))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPrimitives:
    def test_fnv1a64_reference_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @given(st.integers(min_value=0, max_value=U64 - 1))
    def test_mix64_range(self, x):
        assert 0 <= mix64(x) < U64

    def test_mix64_reference(self):
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5

    @given(st.integers(min_value=0, max_value=U64 - 1))
    @settings(max_examples=200)
    def test_mix64_avalanche(self, x):
        # flipping one input bit should flip roughly half the output bits
        flipped = mix64(x ^ 1)
        assert 8 <= bin(mix64(x) ^ flipped).count("1")

    def test_hash_word_is_counter_keyed(self):
        key = item_key("x", 0)
        assert hash_word(key, 0) != hash_word(key, 1)
        assert hash_word(key, 5) == hash_word(key, 5)

    def test_item_key_accepts_str_and_bytes(self):
        assert item_key("abc", 3) == item_key(b"abc", 3)
        assert item_key("abc", 3) != item_key("abd", 3)
        assert item_key("abc", 3) != item_key("abc", 4)


class TestItemKeys:
    """``item_keys`` is ``item_key`` over many items at once, bit for bit."""

    @given(st.lists(st.text(max_size=12) | st.binary(max_size=12), max_size=80),
           st.integers(min_value=0, max_value=U64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_item_key(self, items, seed):
        keys = item_keys(items, seed)
        assert keys.dtype == np.uint64 and keys.shape == (len(items),)
        assert keys.tolist() == [item_key(item, seed) for item in items]

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 100])
    def test_edge_items(self, count):
        # empty items, NULs, non-ASCII text, duplicates in both forms and one
        # long item, next to short items that keep the vector pass running
        items = [f"k{i}" for i in range(count)] + [
            "", b"", "a\x00", b"a\x00", "\x00a", "a\x00b", "\u00e9\u20ac\U0001d11e",
            "\u00e9".encode("latin-1"), "x", "x", b"x", "long" * 5000]
        assert item_keys(items, 9).tolist() == [item_key(item, 9) for item in items]

    def test_memory_is_linear_in_item_bytes(self):
        # one 1 MiB item among 1000 short ones: padding every item to the
        # longest would take 1 GiB
        items = [f"item{i}" for i in range(1000)] + ["x" * (1 << 20)]
        tracemalloc.start()
        try:
            keys = item_keys(items, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert int(keys[-1]) == item_key(items[-1], 1)


class TestVariates:
    def test_scalar_vector_agreement(self):
        key = item_key("item-7", 42)
        k = 33
        vec = variates_np(key, k)
        for row in range(k):
            assert vec[row] == variate_from_key(key, row, k)

    @pytest.mark.parametrize("k", [1, 17, 200])
    def test_many_keys_match_one_key_bitwise(self, k):
        # a row of the batch does not depend on the other keys in the pass
        keys = [item_key(str(i), 5) for i in range(9)] + [0, U64 - 1]
        many = VariateWorkspace(k, len(keys)).variates(keys)
        assert many.shape == (len(keys), k)
        for key, row in zip(keys, many):
            assert np.array_equal(row.view(np.uint64), variates_np(key, k).view(np.uint64))

    def test_many_keys_redraw_matches_scalar(self, monkeypatch):
        # a coarser uniform scale clamps about half the hash words to
        # 1 - 2^-53, which real words almost never reach; the scalar
        # reference and the array path (stable's mapping) share the clamp
        monkeypatch.setattr(hashing, "_INV_2_64", 2.0**-63)
        monkeypatch.setattr(stable, "_INV_2_64", 2.0**-63)
        keys = [item_key(str(i), 1) for i in range(5)]
        k = 33
        many = VariateWorkspace(k, len(keys)).variates(keys)
        scalar = np.array([[variate_from_key(key, row, k) for row in range(k)] for key in keys])
        assert np.array_equal(many.view(np.uint64), scalar.view(np.uint64))

    @pytest.mark.parametrize("k", WIDTHS)
    def test_workspace_matches_reference_bitwise(self, k):
        # one workspace serves calls of any key count up to its size, and
        # a call leaves nothing behind that changes the next
        keys = [item_key(f"w{i}", 8) for i in range(12)] + [0, U64 - 1]
        reference = _reference_variates(keys, k)
        workspace = VariateWorkspace(k, len(keys))
        assert _same_bits(workspace.variates(keys), reference)
        for lo, hi in [(0, 14), (3, 4), (0, 1), (5, 14), (0, 14)]:
            assert _same_bits(workspace.variates(keys[lo:hi]), reference[lo:hi])

    @pytest.mark.parametrize("k", WIDTHS)
    def test_workspace_redraw_matches_reference(self, monkeypatch, k):
        # the coarser scale of test_many_keys_redraw_matches_scalar: about
        # three pairs in four have a clamped word, and every one is finite
        monkeypatch.setattr(hashing, "_INV_2_64", 2.0**-63)
        monkeypatch.setattr(stable, "_INV_2_64", 2.0**-63)
        keys = [item_key(str(i), 1) for i in range(5)]
        reference = _reference_variates(keys, k)
        assert np.isfinite(reference).all()
        workspace = VariateWorkspace(k, len(keys))
        assert _same_bits(workspace.variates(keys), reference)
        assert _same_bits(workspace.variates(keys[2:]), reference[2:])

    def test_open_unit_matches_the_uint64_cast(self):
        # ties of the uint64 -> float64 rounding at every exponent the
        # split into 32-bit halves can meet, and random words
        edges = [0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**53 + 1, 2**53 + 3, 2**63 - 1,
                 2**63, 2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10, 2**64 - 2**11, U64 - 1]
        rng = np.random.default_rng(3)
        words = np.concatenate([np.array(edges, dtype=np.uint64),
                                rng.integers(0, U64, 100_000, dtype=np.uint64, endpoint=False)])
        out = np.empty(words.shape)
        _open_unit_into(words, np.empty_like(words), out)
        assert _same_bits(out, stable._open_unit(words))

    def test_scalar_reference_within_rounding(self):
        # the scalar reference evaluates tan/log with libm, the sketch with
        # numpy's SIMD loops; they agree within rounding, not bit for bit
        keys = [item_key(f"item-{i}", 0) for i in range(100)]
        k = 256
        many = VariateWorkspace(k, len(keys)).variates(keys)
        scalar = np.array([[variate_from_key(key, row, k) for row in range(k)] for key in keys])
        scale = np.maximum(np.abs(scalar), 1.0)
        assert np.all(np.abs(many - scalar) <= 1e-12 * scale)

    def test_cos_free_kernel_matches_the_cos_form(self):
        # the kernel writes cos u as 1/sqrt(1 + tan^2 u), which moves a
        # variate only in its last bits: over 2^20 variates no grid
        # increment rint(v * delta * 2^16) of these deltas changes
        k, keys = 2048, [item_key(f"c{i}", 11) for i in range(512)]
        workspace = VariateWorkspace(k, 64)
        for lo in range(0, len(keys), 64):
            new = workspace.variates(keys[lo : lo + 64])
            old = _cos_form_variates(keys[lo : lo + 64], k)
            assert np.all(np.abs(new - old) <= 1e-12 * np.maximum(np.abs(old), 1.0))
            for delta in (1, -1, 2, 4, 1000):
                assert np.array_equal(np.rint(new * delta * 65536.0),
                                      np.rint(old * delta * 65536.0)), delta

    def test_rows_are_independent_streams(self):
        key = item_key("a", 0)
        v = variates_np(key, 64)
        assert len(np.unique(v)) == 64

    def test_distribution_moment(self):
        # pooled variates over many items behave like the projection law:
        # E[exp(X)] = 1
        keys = [item_key(str(i), 0) for i in range(2000)]
        pooled = np.concatenate([variates_np(key, 100) for key in keys])
        est = float(np.mean(np.exp(pooled)))
        se = math.sqrt(3.0 / pooled.size)  # Var(exp(X)) = 2^2 - 1^2 = 3
        assert abs(est - 1.0) <= 5.0 * se

    def test_uniform_exp_words_distinct(self):
        # row r reads stream words 2r and 2r + 1, and no other
        key = item_key("a", 0)
        words = [w for row in range(8) for w in uniform_exp_words(key, row)]
        assert words == [hash_word(key, n) for n in range(16)]
        assert len(set(words)) == 16

    @given(st.text(max_size=20), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_variates_finite(self, item, seed):
        v = variates_np(item_key(item, seed), 8)
        assert np.all(np.isfinite(v))


BELOW_ONE = 1.0 - 2.0**-53
TOP = 2**64 - 2**11  # the largest word whose (word + 0.5) * 2^-64 is below 1.0
MIDDLE = 2**63


class TestOpenUnitClamp:
    """Words that would round to 1.0 are clamped to 1 - 2^-53, so every
    hash word gives a variate."""

    def test_top_words_map_below_one(self):
        assert stable._BELOW_ONE == BELOW_ONE
        assert (TOP + 0.5) * 2.0**-64 == BELOW_ONE
        assert (U64 - 1 + 0.5) * 2.0**-64 == 1.0  # what the clamp prevents
        words = np.uint64(TOP) + np.arange(U64 - TOP, dtype=np.uint64)
        assert int(words[-1]) == U64 - 1
        out = np.empty(words.shape)
        _open_unit_into(words, np.empty_like(words), out)
        assert np.all(out == BELOW_ONE)
        assert np.all(stable._open_unit(words) == BELOW_ONE)
        assert {open_unit(int(w)) for w in words} == {BELOW_ONE}

    def test_clamp_leaves_lower_words(self):
        words = np.array([0, 1, MIDDLE, 2**64 - 2**12], dtype=np.uint64)
        expected = [2.0**-65, 1.5 * 2.0**-64, 0.5, 1.0 - 2.0**-52]
        out = np.empty(words.shape)
        _open_unit_into(words, np.empty_like(words), out)
        assert out.tolist() == expected
        assert stable._open_unit(words).tolist() == expected
        assert [open_unit(int(w)) for w in words] == expected

    @pytest.mark.parametrize("wu, ww", [(TOP, MIDDLE), (U64 - 1, MIDDLE), (MIDDLE, U64 - 1),
                                        (U64 - 1, U64 - 1), (MIDDLE, MIDDLE)])
    def test_variates_finite_at_the_clamp(self, monkeypatch, wu, ww):
        # feed the words straight in: the kernel's mixer and the scalar
        # reference's hash words are replaced by the chosen words
        monkeypatch.setattr(hashing, "_mix64_into", lambda x, tmp: None)
        monkeypatch.setattr(hashing, "uniform_exp_words", lambda key, row: (wu, ww))
        xu, xw, *rest = _scratch(1)
        xu[0], xw[0] = wu, ww
        _g0_from_words(xu, xw, *rest)
        vector, scalar = float(rest[-1][0]), variate_from_key(0, 0, 1)
        assert math.isfinite(vector) and math.isfinite(scalar)
        assert vector == pytest.approx(scalar, rel=1e-12)


class TestAccumulate:
    def test_matches_rint_of_variates(self):
        key = item_key("q", 1)
        k = 16
        scaled = np.zeros(k, dtype=np.int64)
        accumulate_np(scaled, key, 2.5)
        expected = np.rint(variates_np(key, k) * 2.5 * 65536.0).astype(np.int64)
        assert np.array_equal(scaled, expected)

    def test_additive_in_calls(self):
        key = item_key("q", 1)
        a = np.zeros(8, dtype=np.int64)
        b = np.zeros(8, dtype=np.int64)
        accumulate_np(a, key, 1.0)
        accumulate_np(a, key, 1.0)
        accumulate_np(b, key, 1.0)
        accumulate_np(b, key, 1.0)
        assert np.array_equal(a, b)

    def test_golden_constant(self):
        assert GOLDEN == 0x9E3779B97F4A7C15
