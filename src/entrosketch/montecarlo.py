"""Monte Carlo engine of the bias correction, on numpy.

BC(k, zeta) is the mean log-mean of k pure G(z;0) samples.
``log_mean_replicates`` draws those replicates from counter-based
Philox streams in blocks, on threads, and ``bias_correction`` averages
them.  ``estimator.resolve_bias`` imports this module only when it
takes the Monte Carlo path, so an estimate inside the closed form's
region loads no numpy; ``bench`` uses the replicates directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .stable import _worker_count, sample_g0, sample_g0_slices

# Monte Carlo chunks hold max(1, min(reps, _CHUNK_SAMPLES // k)) replicates
# and chunk i is drawn from Philox(key=[seed, i]): this defines every MC value
_CHUNK_SAMPLES = 8_000_000
# samples per Monte Carlo block, so that a block's temporaries stay in cache;
# 2^14 was the fastest of 2^12..2^18 in a fresh estimate process
_BLOCK_SAMPLES = 1 << 14


@dataclass(frozen=True)
class BiasEstimate:
    value: float
    std_error: float
    reps: int


def _log_means(z: np.ndarray, zeta: float) -> np.ndarray:
    """Row-wise zeta^-1 log(zeta^-zeta k^-1 sum exp(zeta z)) of a (rows, k)
    array, each row through a max-shifted log-sum-exp."""
    v = zeta * z
    m = v.max(axis=1)
    return (m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta)


def _fill_rows(
    out, key, n: int, k: int, zeta: float, shift: float, rows: int, a: int, b: int
) -> bool:
    """out[a:b] = log-means of rows [a, b) of the chunk's n x k samples
    plus ``shift``, ``rows`` rows at a time; False if an endpoint word was met."""
    for r0, z in zip(range(a, b, rows), sample_g0_slices(key, n * k, a * k, b * k, rows * k)):
        if z is None:
            return False
        out[r0 : r0 + len(z) // k] = _log_means(z.reshape(-1, k) + shift, zeta)
    return True


def log_mean_replicates(
    k: int, zeta: float, reps: int, seed: int, shift: float = 0.0
) -> np.ndarray:
    """``reps`` replicates of the log-mean of k G(z;0) samples plus ``shift``.

    The chunk partition defines the stream: replicates come in chunks of
    ``max(1, min(reps, _CHUNK_SAMPLES // k))``, and chunk i is the
    ``sample_g0`` draw of its n*k samples from the counter-based
    ``Philox(key=[seed, i])``, one replicate per k consecutive samples.
    Each chunk is computed in blocks of about ``_BLOCK_SAMPLES`` samples,
    split across the CPUs this process may run on; a chunk that meets an
    endpoint word is drawn whole instead.  Block size and worker count do
    not change the result, bit for bit.
    """
    from concurrent.futures import ThreadPoolExecutor

    if k < 1 or reps < 1:
        raise ValueError("k and reps must be >= 1")
    chunk = max(1, min(reps, _CHUNK_SAMPLES // k))
    rows = max(1, _BLOCK_SAMPLES // k)
    workers = min(_worker_count(), -(-chunk // rows))
    values = np.empty(reps, dtype=np.float64)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk_idx, start in enumerate(range(0, reps, chunk)):
            n = min(chunk, reps - start)
            key = [seed, chunk_idx]
            out = values[start : start + n]
            blocks = -(-n // rows)
            parts = min(workers, blocks)
            cuts = [min(n, blocks * i // parts * rows) for i in range(parts + 1)]
            fill = partial(_fill_rows, out, key, n, k, zeta, shift, rows)
            if not all(list(pool.map(fill, cuts[:-1], cuts[1:]))):
                rng = np.random.Generator(np.random.Philox(key=key))
                out[:] = _log_means(sample_g0(rng, n * k).reshape(n, k) + shift, zeta)
    return values


def bias_correction(k: int, zeta: float, reps: int = 500_000, seed: int = 0) -> BiasEstimate:
    """Monte Carlo BC: mean over replicates of the log-mean of k pure
    G(z;0) samples, with its standard error (sample sd / sqrt(reps)).
    The replicates are ``log_mean_replicates(k, zeta, reps, seed)``."""
    values = log_mean_replicates(k, zeta, reps, seed)
    value = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return BiasEstimate(value=value, std_error=se, reps=reps)
