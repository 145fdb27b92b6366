"""Counter-based hashing: every variate is a pure function of (item, seed, row)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosketch import hashing, stable
from entrosketch.hashing import (
    GOLDEN,
    accumulate_np,
    fnv1a64,
    hash_word,
    item_key,
    mix64,
    uniform_exp_words,
    variate_from_key,
    variates_many_np,
    variates_np,
)

U64 = 1 << 64


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
        many = variates_many_np(keys, k)
        assert many.shape == (len(keys), k)
        for key, row in zip(keys, many):
            assert np.array_equal(row.view(np.uint64), variates_np(key, k).view(np.uint64))

    def test_many_keys_redraw_matches_scalar(self, monkeypatch):
        # a coarser uniform scale rejects about half the hash words, which
        # drives the redraw loop that real words almost never reach; the
        # scalar reference and the array path (stable's mapping) share it
        monkeypatch.setattr(hashing, "_INV_2_64", 2.0**-63)
        monkeypatch.setattr(stable, "_INV_2_64", 2.0**-63)
        keys = [item_key(str(i), 1) for i in range(5)]
        k = 33
        many = variates_many_np(keys, k)
        scalar = np.array([[variate_from_key(key, row, k) for row in range(k)] for key in keys])
        assert np.array_equal(many.view(np.uint64), scalar.view(np.uint64))

    def test_scalar_reference_within_rounding(self):
        # the scalar reference evaluates tan/log with libm, the sketch with
        # numpy's SIMD loops; they agree within rounding, not bit for bit
        keys = [item_key(f"item-{i}", 0) for i in range(100)]
        k = 256
        many = variates_many_np(keys, k)
        scalar = np.array([[variate_from_key(key, row, k) for row in range(k)] for key in keys])
        scale = np.maximum(np.abs(scalar), 1.0)
        assert np.all(np.abs(many - scalar) <= 1e-12 * scale)

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
        key = item_key("a", 0)
        u0, w0 = uniform_exp_words(key, 0, 8)
        u1, w1 = uniform_exp_words(key, 0, 8, attempt=1)
        assert (u0, w0) != (u1, w1)

    @given(st.text(max_size=20), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_variates_finite(self, item, seed):
        v = variates_np(item_key(item, seed), 8)
        assert np.all(np.isfinite(v))


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
