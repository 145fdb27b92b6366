"""Deterministic item -> projection-variate mapping, and the one G(x;0) formula.

Every distinct item gets k stationary draws from the skewed stable law
G(x;0) by feeding a counter-based 64-bit hash stream (splitmix64 over a
keyed index) into the stable sampler.  The mapping is a pure function of
(item bytes, row, master seed).  No per-item state is needed; a sketch
may memoize an item's variates, but that never changes them.
``item_key`` hashes one item (FNV-1a over its UTF-8 bytes, then
splitmix64 with the seed); ``item_keys`` gives the same keys for many
items at once.

The sketch's variates come from one vectorized numpy routine,
``_variates_into`` (many keys, all k rows, one ufunc pass at a time into
given arrays).  ``VariateWorkspace.variates``, the one many-key entry
point, runs it in arrays that each call reuses; ``variates_np`` is the
one-key case in fresh arrays, and ``accumulate_np`` adds
``rint(v * delta * 2^16)`` of it to a fixed-point sketch.  The routine
defines the sketch's bits.  Row ``row`` of an item reads hash words
2*row and 2*row + 1, maps each into (0, 1) (``_open_unit_into``), and
hands the two units to ``_g0_from_units``, the float tail.  With
u = (u01 - 0.5) * pi from the first unit and w01 the second, it
computes, in this order,

    t = tan u,  c = u - pi/2,  b = log(w01) = -w,
    X = log(b / (sqrt(t*t + 1) * c)) - c*t.

That is the Chambers-Mallows-Stuck G(x;0) sampler
(pi/2 - u) tan u + log(w cos u / (pi/2 - u)) with
cos u = 1/sqrt(1 + tan^2 u), which holds on (-pi/2, pi/2).  Both sign
flips are exact, so no pass negates.  The Monte Carlo sampler
(``stable.sample_g0``) runs the same two steps on Philox words, so the
package has one formula for the law.

Sketches built from the same seed merge exactly in practice, not by
construction: a variate's last bits depend on which SIMD loops numpy
picks for tan and log, so another CPU or numpy version can change them,
and nothing detects it.  Measured on numpy 2.4 with AVX-512 over
9,643,950 variates (the keys of "item0" ... "item4349" at seed 7,
k=2217):

* Disabling the AVX512_SPR, AVX512_ICL and X86_V4 loops
  (``NPY_DISABLE_CPU_FEATURES``) changed 0.45% of the variates, by at
  most 3.6e-12 absolute and 7.6e-16 relative.  No grid increment
  ``rint(v * delta * 2^16)`` changed for |delta| <= 123456, and 4
  changed at delta = 10^6.  The cos form gave 0.45%, 3.6e-12 and
  6.7e-16, and the same increments.
* This formula differs from the cos form in 27.6% of the variates, by
  at most 2.3e-13 absolute and 6.7e-16 relative.  No grid increment
  changed for |delta| <= 1000; 6 changed at delta = 123456 and 51 at
  delta = 10^6.  No byte of a sketch that the tests or CI pin changed.

Each word maps into (0, 1) as min((word + 0.5) * 2^-64, 1 - 2^-53).
The clamp touches only the words >= 2^64 - 2^10, which would otherwise
round to 1.0, and sends them where word 2^64 - 2^11 already goes.  So
every pair of words gives a finite variate, and no row reads more
words.  Before the clamp such a pair was replaced by later words of the
stream; the clamp changes a variate with probability about 2^-53, far
below the cross-CPU drift above.

The tests hold a scalar reference, ``variate_from_key`` in
``tests/paper.py``: the same hash words, clamp and arithmetic in the
same order, with ``math.tan``, ``math.sqrt`` and ``math.log`` where this
module uses numpy's CPU-dispatched SIMD loops.  sqrt is correctly
rounded everywhere, so only tan and log can differ.  On numpy 2.4 with
AVX-512, 0.45% of 221,700 variates (100 keys x 2217 rows) differ, by at
most 1.2e-13 absolute and 4.5e-16 relative.
"""

from __future__ import annotations

import math
import mmap
from functools import lru_cache

import numpy as np

HALF_PI = math.pi / 2
_INV_2_64 = 2.0**-64
# the largest double below 1, where the open-unit map (word + 0.5) * 2^-64
# puts word 2^64 - 2^11; the words above it, which would round to 1.0, go there too
_BELOW_ONE = 1.0 - 2.0**-53
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# item_keys finishes in the scalar loop once fewer items than this are hashing
_VECTOR_ITEMS = 32


def mix64(x: int) -> int:
    """splitmix64 finalizer: a documented 64-bit bijective mixer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a over ``data``, continued from the running hash ``h``."""
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


@lru_cache(maxsize=64)
def _seed_word(master_seed: int) -> int:
    return mix64((master_seed ^ GOLDEN) & MASK64)


def item_key(item: bytes | str, master_seed: int) -> int:
    """Combine item bytes and master seed into the per-item hash key."""
    if isinstance(item, str):
        item = item.encode("utf-8")
    return mix64(fnv1a64(item) ^ _seed_word(master_seed))


def item_keys(items, master_seed: int) -> np.ndarray:
    """``item_key`` of every item, as uint64, bit for bit.

    FNV-1a runs over the items' UTF-8 bytes one byte position at a time,
    for all items still hashing in one numpy pass.  The items are sorted
    by length, longest first, so those still hashing at a position are a
    prefix.  Memory is O(total item bytes).  Once fewer than
    ``_VECTOR_ITEMS`` items are left, each finishes in the scalar loop
    from its running hash, so one very long item costs what ``item_key``
    costs.
    """
    data = [item.encode("utf-8") if isinstance(item, str) else item for item in items]
    flat = np.frombuffer(b"".join(data), dtype=np.uint8)
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    # position j has actives[j] items with more than j bytes, at least _VECTOR_ITEMS
    steps = int(lengths[_VECTOR_ITEMS - 1]) if len(data) >= _VECTOR_ITEMS else 0
    actives = np.searchsorted(-lengths, -np.arange(steps), side="left").tolist()
    prime = np.uint64(_FNV_PRIME)
    for j, active in enumerate(actives):
        h[:active] ^= flat[starts[:active] + j]
        h[:active] *= prime
    for i in range(int(np.count_nonzero(lengths > steps))):
        h[i] = fnv1a64(data[order[i]][steps:], int(h[i]))
    keys = np.empty_like(h)
    keys[order] = h
    keys ^= np.uint64(_seed_word(master_seed))
    _mix64_into(keys, h)
    return keys


# vectorized (numpy) variates: the one implementation the sketch uses

_MIX_STEPS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)
_MIX_LAST_SHIFT = np.uint64(31)


def _mix64_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """``mix64`` of every word of ``x``, in place; ``tmp`` is scratch of its shape."""
    for shift, multiplier in _MIX_STEPS:
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= multiplier
    np.right_shift(x, _MIX_LAST_SHIFT, out=tmp)
    x ^= tmp


_LOW32 = np.uint64(0xFFFFFFFF)


def _open_unit_into(words: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
    """out = min((float(words) + 0.5) * 2^-64, 1 - 2^-53): every word maps into (0, 1).

    numpy has no SIMD loop for the uint64 -> float64 cast (about 6 ns per
    word against under 1 ns from int64), so float(words) is formed as
    hi * 2^32 + lo from the two 32-bit halves, each cast from int64.  Both
    terms are exact doubles, so the one rounding of their sum gives the
    correctly rounded cast, bit for bit.  ``tmp`` is uint64 scratch.
    """
    np.right_shift(words, np.uint64(32), out=tmp)
    np.multiply(tmp.view(np.int64), 2.0**32, out=out)
    np.bitwise_and(words, _LOW32, out=tmp)
    np.add(out, tmp.view(np.int64), out=out)
    out += 0.5
    out *= _INV_2_64
    np.minimum(out, _BELOW_ONE, out=out)


@lru_cache(maxsize=16)
def _row_offsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Counter offsets 2*row*GOLDEN and (2*row+1)*GOLDEN of rows 0..k-1 (read-only)."""
    rows = np.arange(k, dtype=np.uint64)
    golden = np.uint64(GOLDEN)
    offsets = ((np.uint64(2) * rows) * golden, (np.uint64(2) * rows + np.uint64(1)) * golden)
    for off in offsets:
        off.setflags(write=False)
    return offsets


def _g0_from_words(xu, xw, tmp, a, b, c, out):
    """out = the G(x;0) variates of hash inputs ``xu``, ``xw`` (key + counter*GOLDEN).

    Every argument is an array of one shape; ``xu``, ``xw``, ``tmp``, ``a``,
    ``b`` and ``c`` are overwritten.
    """
    for x, unit in ((xu, a), (xw, b)):
        _mix64_into(x, tmp)
        _open_unit_into(x, tmp, unit)
    _g0_from_units(a, b, c, out)


def _g0_from_units(a, b, c, out):
    """out = the G(x;0) values of units ``a`` (the u01) and ``b`` (the w01) in (0, 1).

    The one formula of the law in the package: the sketch's variates and
    the Monte Carlo samples both end here.  Every argument is a float64
    array of one shape; ``a``, ``b`` and ``c`` are overwritten.  The
    arithmetic is that of the module docstring, with numpy's ufuncs, one
    pass at a time.
    """
    a -= 0.5
    a *= np.pi  # u
    np.log(b, out=b)  # -w
    np.tan(a, out=out)  # t
    np.subtract(a, HALF_PI, out=c)  # u - pi/2
    np.multiply(out, c, out=a)  # (u - pi/2) t
    out *= out
    out += 1.0
    np.sqrt(out, out=out)
    out *= c  # (u - pi/2) / cos u
    np.divide(b, out, out=b)  # w cos u / (pi/2 - u)
    np.log(b, out=out)
    out -= a


def _scratch(n: int) -> list[np.ndarray]:
    """Fresh (xu, xw, tmp, a, b, c, out) arrays of n words for ``_g0_from_words``."""
    return [np.empty(n, np.uint64) for _ in range(3)] + [np.empty(n) for _ in range(4)]


def _variates_into(keys: np.ndarray, k: int, buffers) -> np.ndarray:
    """Row variates of uint64 ``keys``, shape (keys.size, k), computed in the
    first keys.size * k words of ``buffers`` (as from ``_scratch``); the
    result is a view of the last one."""
    shape = (keys.size, k)
    xu, xw, *rest = (buf[: keys.size * k].reshape(shape) for buf in buffers)
    off_u, off_w = _row_offsets(k)
    np.add(keys[:, None], off_u, out=xu)
    np.add(keys[:, None], off_w, out=xw)
    _g0_from_words(xu, xw, *rest)
    return rest[-1]


def _mapped_words(n: int, count: int) -> list[np.ndarray]:
    """``count`` uint64 arrays of n words in one anonymous memory mapping.

    The mapping is returned to the OS when the last array is dropped.
    Blocks of this size from malloc are not: freed in a worker thread, they
    stay in that thread's arena, and a threaded ingest would keep its
    buffers resident (about 10 MiB at k=2217 on two threads) after it
    returns.
    """
    words = np.frombuffer(mmap.mmap(-1, 8 * max(1, n * count)), dtype=np.uint64)
    return [words[i * n : (i + 1) * n] for i in range(count)]


class VariateWorkspace:
    """Preallocated arrays for the variates of up to ``keys`` item keys at width k.

    ``variates`` computes into the same arrays on every call, so a caller
    that needs many batches allocates (and page-faults) them once.  The
    arrays live in one memory mapping (``_mapped_words``) that is returned
    to the OS with the workspace.  Not shareable between threads: give
    each thread its own workspace.
    """

    def __init__(self, k: int, keys: int):
        self.k = k
        words = _mapped_words(k * max(1, keys), 7)
        self._buffers = words[:3] + [w.view(np.float64) for w in words[3:]]

    def variates(self, keys) -> np.ndarray:
        """Row variates of many item keys, shape (len(keys), k).

        The result is a view of the workspace that the next call
        overwrites.  Each (key, row) pair goes through its two hash words,
        the clamp and the float tail elementwise, so a row does not depend
        on which other keys share the call.
        """
        return _variates_into(np.asarray(keys, dtype=np.uint64).reshape(-1), self.k, self._buffers)


def variates_np(key: int, k: int) -> np.ndarray:
    """All k row variates for one item key: the one-key case of
    ``VariateWorkspace.variates``, in fresh arrays."""
    return _variates_into(np.array([key], dtype=np.uint64), k, _scratch(k))[0]


def accumulate_np(scaled: np.ndarray, key: int, delta: float) -> None:
    """Add ``rint(v * delta * 2^16)`` of the key's variates to ``scaled`` in place."""
    v = variates_np(key, scaled.shape[0]) * delta * 65536.0
    scaled += np.rint(v).astype(np.int64)
