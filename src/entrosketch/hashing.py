"""Deterministic item -> projection-variate mapping.

Every distinct item gets k stationary draws from the skewed stable law
G(x;0) by feeding a counter-based 64-bit hash stream (splitmix64 over a
keyed index) into the stable sampler.  The mapping is a pure function of
(item bytes, row, master seed), so sketches built anywhere from the same
seed agree and can be merged.  No per-item state is needed; a sketch may
memoize an item's variates, but that never changes them.

The sketch's variates come from one vectorized numpy routine,
``variates_many_np`` (many keys, all k rows, in one pass);
``variates_np`` is its one-key case and ``accumulate_np`` adds
``rint(v * delta * 2^16)`` of it to a fixed-point sketch.  The routine
turns hash words into variates with the array helpers of ``stable``'s
sampler (open-unit mapping, endpoint rule, G(x;0) formula).  These
define the sketch's bits.

``variate_from_key`` is the scalar reference: the same hash words,
rejection rule and formula, evaluated with ``math.tan``/``math.log``
where the numpy routine uses numpy's CPU-dispatched SIMD
``np.tan``/``np.log``.  The two agree within rounding, not bit for bit:
on numpy 2.4 with AVX-512, about 0.3% of variates differ, by at most
64 ulp over 100 keys x 256 rows.
"""

from __future__ import annotations

import numpy as np

from .stable import _INV_2_64, _endpoint, _g0, _open_unit, _uniform_exp, g0_from_uniform_exp

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(x: int) -> int:
    """splitmix64 finalizer: a documented 64-bit bijective mixer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


def item_key(item: bytes | str, master_seed: int) -> int:
    """Combine item bytes and master seed into the per-item hash key."""
    if isinstance(item, str):
        item = item.encode("utf-8")
    return mix64(fnv1a64(item) ^ mix64((master_seed ^ GOLDEN) & MASK64))


def hash_word(key: int, n: int) -> int:
    """n-th 64-bit word of the counter-based stream keyed by ``key``."""
    return mix64((key + (n & MASK64) * GOLDEN) & MASK64)


def uniform_exp_words(key: int, row: int, k: int, attempt: int = 0) -> tuple[int, int]:
    """The two hash words feeding row ``row`` (attempt counts redraws)."""
    idx = attempt * k + row
    return hash_word(key, 2 * idx), hash_word(key, 2 * idx + 1)


def variate_from_key(key: int, row: int, k: int) -> float:
    """Scalar (libm) reference for row ``row`` of ``variates_np(key, k)``, within rounding."""
    attempt = 0
    while True:
        wu, ww = uniform_exp_words(key, row, k, attempt)
        u01 = (wu + 0.5) * _INV_2_64
        w01 = (ww + 0.5) * _INV_2_64
        # endpoints are excluded by construction but float rounding can
        # still land on 0.0/1.0; redraw from the next counter block
        if 0.0 < u01 < 1.0 and 0.0 < w01 < 1.0:
            u = np.pi * (u01 - 0.5)
            w = -np.log(w01)
            return g0_from_uniform_exp(u, w)
        attempt += 1


# vectorized (numpy) variates: the one implementation the sketch uses


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _uniforms_np(key: np.ndarray, row: np.ndarray, k: int, attempt: int):
    """(u01, w01, usable) from ``uniform_exp_words`` for broadcast key and row arrays."""
    idx = np.uint64(attempt) * np.uint64(k) + row
    golden = np.uint64(GOLDEN)
    u01 = _open_unit(_mix64_np(key + (np.uint64(2) * idx) * golden))
    w01 = _open_unit(_mix64_np(key + (np.uint64(2) * idx + np.uint64(1)) * golden))
    return u01, w01, ~_endpoint(u01, w01)


def variates_many_np(keys, k: int) -> np.ndarray:
    """Row variates of many item keys in one numpy pass, shape (len(keys), k).

    This is the one vectorized variate routine.  Each (key, row) pair
    goes through the hash words, rejection rule and arithmetic of
    ``variate_from_key``, elementwise, so a row of the result does not
    depend on which other keys share the pass; it matches that scalar
    reference within rounding (see the module docstring).
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    u01, w01, ok = _uniforms_np(keys[:, None], np.arange(k, dtype=np.uint64), k, 0)
    if ok.all():
        return _g0(*_uniform_exp(u01, w01))
    # endpoints are excluded by construction but float rounding can
    # still land on 0.0/1.0; redraw those pairs from the next counter block
    out = np.empty(u01.shape, dtype=np.float64)
    out[ok] = _g0(*_uniform_exp(u01[ok], w01[ok]))
    pending = np.argwhere(~ok)
    attempt = 1
    while pending.size:
        i, row = pending.T
        u01, w01, ok = _uniforms_np(keys[i], row.astype(np.uint64), k, attempt)
        out[i[ok], row[ok]] = _g0(*_uniform_exp(u01[ok], w01[ok]))
        pending = pending[~ok]
        attempt += 1
    return out


def variates_np(key: int, k: int) -> np.ndarray:
    """All k row variates for one item key: the one-key case of ``variates_many_np``."""
    return variates_many_np([key], k)[0]


def accumulate_np(scaled: np.ndarray, key: int, delta: float) -> None:
    """Add ``rint(v * delta * 2^16)`` of the key's variates to ``scaled`` in place."""
    v = variates_np(key, scaled.shape[0]) * delta * 65536.0
    scaled += np.rint(v).astype(np.int64)
