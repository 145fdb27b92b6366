"""Monte Carlo samples of the maximally skewed 1-stable law G(x;0).

G(x;0) is the alpha=1 stable law with characteristic function
exp(-pi*|theta|/2 + i*theta*log|theta|); the moments of exp(X) are k^k.
A sample takes two Philox words, maps each into (0, 1) with
``hashing._open_unit_into`` and runs ``hashing._g0_from_units``, the
float tail of every sketch variate: one formula serves the sketch and
Monte Carlo.  Only the benchmark's probes and the tests draw samples.
"""

from __future__ import annotations

import numpy as np

from .hashing import _g0_from_units, _open_unit_into


def _words(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def _g0_of_words(u_words: np.ndarray, w_words: np.ndarray) -> np.ndarray:
    """G(x;0) samples whose u come from ``u_words`` and w from ``w_words``,
    one word of each per sample, through the sketch's open-unit map and
    float tail."""
    tmp = np.empty_like(u_words)
    a, b, c, out = (np.empty(u_words.shape) for _ in range(4))
    _open_unit_into(u_words, tmp, a)
    _open_unit_into(w_words, tmp, b)
    _g0_from_units(a, b, c, out)
    return out


def sample_g0(rng: np.random.Generator, size: int | None = None):
    """Sample from G(x;0) using an explicit generator state.

    Identical generator state gives identical output.  For reproducible
    Monte Carlo across worker counts pass a counter-based generator,
    e.g. np.random.Generator(np.random.Philox(key=(seed, stream))).
    The first n words drawn give the u of the n samples and the next n
    their w, and no sample draws more.  The open-unit map clamps the words
    that would round to 1.0 (those >= 2^64 - 2^10, probability 2^-54
    each) to 1 - 2^-53, so every word gives a finite sample.
    """
    n = 1 if size is None else int(size)
    y = _g0_of_words(_words(rng, n), _words(rng, n))
    return float(y[0]) if size is None else y

