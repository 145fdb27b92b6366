"""Monte Carlo engine of the bias correction, on numpy.

BC(k, zeta) is the mean log-mean of k pure G(z;0) samples.
``log_mean_replicates`` draws those replicates from counter-based
Philox streams in blocks, on threads, and ``bias_correction`` averages
them.  ``bench`` uses both, and the tests check the estimator's closed
form and quadrature against them; ``estimate`` never runs this module.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .sketchfile import Record
from .stable import _map_pinned, _worker_count, sample_g0_slices

# Monte Carlo chunks hold max(1, min(reps, _CHUNK_SAMPLES // k)) replicates
# and chunk i is drawn from Philox(key=[seed, i]): this defines every MC value
_CHUNK_SAMPLES = 8_000_000
# samples per Monte Carlo block, so that a block's temporaries stay in cache;
# 2^14 was the fastest of 2^12..2^18 in a fresh estimate process
_BLOCK_SAMPLES = 1 << 14


class BiasEstimate(Record):
    __slots__ = ("value", "std_error", "reps")


def _log_means(z: np.ndarray, zeta: float) -> np.ndarray:
    """Row-wise zeta^-1 log(zeta^-zeta k^-1 sum exp(zeta z)) of a (rows, k)
    array, each row through a max-shifted log-sum-exp."""
    v = zeta * z
    m = v.max(axis=1)
    return (m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta)


def _fill_rows(out, key, n: int, k: int, zeta: float, shift: float, rows: int, a: int, b: int):
    """out[a:b] = log-means of rows [a, b) of the chunk's n x k samples
    plus ``shift``, ``rows`` rows at a time."""
    for r0, z in zip(range(a, b, rows), sample_g0_slices(key, n * k, a * k, b * k, rows * k)):
        out[r0 : r0 + len(z) // k] = _log_means(z.reshape(-1, k) + shift, zeta)


def log_mean_replicates(
    k: int, zeta: float, reps: int, seed: int, shift: float = 0.0
) -> np.ndarray:
    """``reps`` replicates of the log-mean of k G(z;0) samples plus ``shift``.

    The chunk partition defines the stream: replicates come in chunks of
    ``max(1, min(reps, _CHUNK_SAMPLES // k))``, and chunk i is the
    ``sample_g0`` draw of its n*k samples from the counter-based
    ``Philox(key=[seed, i])`` (the key as two uint64 words, so every
    seed in [0, 2^64) has its own streams), one replicate per k
    consecutive samples.  Each chunk is computed in blocks of about
    ``_BLOCK_SAMPLES`` samples, split across the CPUs this process may run
    on, one thread pinned to each (``stable._map_pinned``).  ``sample_g0``
    clamps a word that would map to 1.0 to 1 - 2^-53 instead of drawing
    more, so each sample depends only on its own two words, and block size
    and worker count do not change the result, bit for bit.
    """
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be >= 1")
    chunk = max(1, min(reps, _CHUNK_SAMPLES // k))
    rows = max(1, _BLOCK_SAMPLES // k)
    workers = min(_worker_count(), -(-chunk // rows))
    values = np.empty(reps, dtype=np.float64)
    for chunk_idx, start in enumerate(range(0, reps, chunk)):
        n = min(chunk, reps - start)
        key = np.array([seed, chunk_idx], dtype=np.uint64)
        out = values[start : start + n]
        blocks = -(-n // rows)
        parts = min(workers, blocks)
        cuts = [min(n, blocks * i // parts * rows) for i in range(parts + 1)]
        _map_pinned(partial(_fill_rows, out, key, n, k, zeta, shift, rows), cuts[:-1], cuts[1:])
    return values


def bias_correction(k: int, zeta: float, reps: int = 500_000, seed: int = 0) -> BiasEstimate:
    """Monte Carlo BC: mean over replicates of the log-mean of k pure
    G(z;0) samples, with its standard error (sample sd / sqrt(reps)).
    The replicates are ``log_mean_replicates(k, zeta, reps, seed)``."""
    values = log_mean_replicates(k, zeta, reps, seed)
    value = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return BiasEstimate(value=value, std_error=se, reps=reps)
