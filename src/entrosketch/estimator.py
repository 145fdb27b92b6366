"""Bias-corrected log-mean recovery of delta = sum p_j log p_j.

The raw estimator is
    delta_raw = zeta^-1 * log( zeta^-zeta * k^-1 * sum_j exp(zeta*y_j) )
with y_j = projections[j]/total, evaluated through a max-shifted
log-sum-exp.  A small-sample additive bias BC is subtracted.  The
paper's identity E exp(m X) = m^m gives every moment of
W = exp(zeta X)/zeta^zeta in closed form, so BC has a delta-method
expansion in 1/k through 1/k^3.  That expansion is used for zeta <= 1.5
wherever its 1/k^3 term is at most 2e-3; everywhere else BC is computed
by Monte Carlo.  The Shannon entropy is -delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .stable import _worker_count, sample_g0, sample_g0_slices

FISHER_INFO = 0.3445  # Fisher information for delta per sketch coordinate

# Region of the closed-form BC.  Against Monte Carlo, the residual was
# within noise wherever the 1/k^3 term is at most _CLOSED_FORM_T3_MAX for
# zeta <= 1.5, but negative at every k tried for zeta 2 and 2.5.
_CLOSED_FORM_T3_MAX = 2e-3
_CLOSED_FORM_ZETA_MAX = 1.5

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


@dataclass(frozen=True)
class EstimateResult:
    delta_hat: float
    entropy_hat: float
    bias_correction: float
    asymptotic_se: float

    def __post_init__(self):
        assert self.entropy_hat == -self.delta_hat


def _log_means(z: np.ndarray, zeta: float) -> np.ndarray:
    """Row-wise zeta^-1 log(zeta^-zeta k^-1 sum exp(zeta z)) of a (rows, k)
    array, each row through a max-shifted log-sum-exp."""
    v = zeta * z
    m = v.max(axis=1)
    return (m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta)


def log_mean(y: np.ndarray, zeta: float) -> float:
    """The log-mean of one vector: the one-row case of ``_log_means``."""
    return float(_log_means(np.asarray(y, dtype=np.float64).reshape(1, -1), zeta)[0])


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
    # imported here, not at the top: every CLI process imports this module,
    # few take this path, and concurrent.futures plus logging cost ~6 ms
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


def _bias_terms(k: int, zeta: float) -> tuple[float, float, float]:
    """The 1/k, 1/k^2 and 1/k^3 terms of BC = zeta^-1 E log(mean of k W's).

    W = exp(zeta X)/zeta^zeta has E W^m = m^(m zeta), from the paper's
    E exp(m X) = m^m; c2, c3, c4 are its central moments (E W = 1).
    """
    c2 = 4.0**zeta - 1.0
    c3 = 27.0**zeta - 3.0 * 4.0**zeta + 2.0
    c4 = 256.0**zeta - 4.0 * 27.0**zeta + 6.0 * 4.0**zeta - 3.0
    t1 = -c2 / (2.0 * k)
    t2 = (c3 / 3.0 - 0.75 * c2**2) / k**2
    t3 = (2.0 * c2 * c3 - (c4 - 3.0 * c2**2) / 4.0 - 2.5 * c2**3) / k**3
    return t1 / zeta, t2 / zeta, t3 / zeta


@lru_cache(maxsize=64)
def _monte_carlo_bias(k: int, zeta: float, reps: int, seed: int) -> float:
    import logging  # imported here, as concurrent.futures in log_mean_replicates

    logging.getLogger(__name__).info(
        "bias correction by Monte Carlo: k=%d, zeta=%r, reps=%d", k, zeta, reps
    )
    return bias_correction(k, zeta, reps=reps, seed=seed).value


def resolve_bias(
    k: int,
    zeta: float,
    mode: str = "auto",
    mc_reps: int = 500_000,
    mc_seed: int = 0,
) -> float:
    """BC for (k, zeta) per the configured policy.

    auto: the closed-form expansion of ``_bias_terms`` where it holds
    (zeta <= 1.5 and a 1/k^3 term of at most 2e-3; k >= 8 at zeta = 1,
    k >= 28 at zeta = 1.5), else Monte Carlo.  mc: always Monte Carlo.
    none: BC = 0 (the raw estimator).  Monte Carlo values are cached per
    (k, zeta, mc_reps, mc_seed), and each computation is logged at INFO
    with k, zeta and reps.
    """
    if mode not in ("auto", "mc", "none"):
        raise ValueError(f"unknown bias mode {mode!r}")
    if k < 1 or not zeta > 0.0:
        raise ValueError("k must be >= 1 and zeta positive")
    if mode == "none":
        return 0.0
    if mode == "auto" and zeta <= _CLOSED_FORM_ZETA_MAX:
        terms = _bias_terms(k, zeta)
        if abs(terms[2]) <= _CLOSED_FORM_T3_MAX:
            return sum(terms)
    return _monte_carlo_bias(k, zeta, mc_reps, mc_seed)


def estimate(sketch, bc_mode: str = "auto", mc_reps: int = 500_000) -> EstimateResult:
    """Entropy estimate from a sketch: H = -(log-mean - BC)."""
    if not sketch.total > 0.0:
        raise ValueError("sketch total must be positive (frequencies undefined)")
    zeta = sketch.config.zeta
    k = sketch.config.k
    raw = log_mean(sketch.normalized(), zeta)
    bc = resolve_bias(k, zeta, mode=bc_mode, mc_reps=mc_reps)
    delta_hat = raw - bc
    return EstimateResult(
        delta_hat=delta_hat,
        entropy_hat=-delta_hat,
        bias_correction=bc,
        asymptotic_se=asymptotic_std_error(k, zeta),
    )


def are(zeta: float) -> float:
    """Asymptotic relative efficiency vs the MLE: z^2/(0.3445*(4^z-1))."""
    if not zeta > 0.0:
        raise ValueError("zeta must be positive")
    return zeta**2 / (FISHER_INFO * (4.0**zeta - 1.0))


def asymptotic_std_error(k: int, zeta: float) -> float:
    """Large-k standard deviation of the estimator: sqrt((4^z-1)/(z^2 k))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not zeta > 0.0:
        raise ValueError("zeta must be positive")
    return math.sqrt((4.0**zeta - 1.0) / (zeta**2 * k))
