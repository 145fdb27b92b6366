"""Bias-corrected log-mean recovery of delta = sum p_j log p_j.

The raw estimator is
    delta_raw = zeta^-1 * log( zeta^-zeta * k^-1 * sum_j exp(zeta*y_j) )
with y_j = projections[j]/total, evaluated through a max-shifted
log-sum-exp.  A small-sample additive bias BC is subtracted; shipped
constants live in data/bias_table.txt, anything else is recomputed by
Monte Carlo or interpolated in 1/k.  The Shannon entropy is -delta.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .stable import sample_g0, sample_g0_slices

FISHER_INFO = 0.3445  # Fisher information for delta per sketch coordinate

# Monte Carlo BC is interpolated in 1/k inside the shipped-table range
# and treated as zero above this width (trend extrapolates to < 0.002).
_BC_ZERO_ABOVE = 1000

_ZETA_TOL = 1e-9

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


class BiasTable:
    """(k, zeta) -> BC lookup backed by the shipped data asset."""

    def __init__(self, entries=None):
        # entries: {(k, zeta): (bc, std_error, provenance)}
        self.entries = dict(entries) if entries else {}

    @classmethod
    def shipped(cls) -> "BiasTable":
        table = cls()
        text = resources.files("entrosketch.data").joinpath("bias_table.txt").read_text()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k_s, zeta_s, bc_s, se_s = line.split()
            table.entries[(int(k_s), float(zeta_s))] = (float(bc_s), float(se_s), "shipped")
        return table

    def add(self, k: int, zeta: float, bc: float, std_error: float, provenance: str = "recomputed"):
        self.entries[(k, zeta)] = (bc, std_error, provenance)

    def lookup(self, k: int, zeta: float):
        for (tk, tz), entry in self.entries.items():
            if tk == k and abs(tz - zeta) < _ZETA_TOL:
                return entry
        return None

    def _column(self, zeta: float):
        col = sorted(
            (tk, entry[0]) for (tk, tz), entry in self.entries.items() if abs(tz - zeta) < _ZETA_TOL
        )
        return col

    def interpolate(self, k: int, zeta: float) -> float:
        """BC linear in 1/k between table nodes; extrapolated above the
        last node up to k=1000, zero (with a warning) beyond."""
        col = self._column(zeta)
        if len(col) < 2:
            raise KeyError(f"no table column for zeta={zeta}")
        ks = [c[0] for c in col]
        if k < ks[0]:
            raise KeyError(f"k={k} below table range {ks[0]}")
        if k > _BC_ZERO_ABOVE:
            warnings.warn(
                f"k={k} beyond bias table; using BC=0 (residual bias < 0.002)",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
        if k > ks[-1]:
            lo, hi = col[-2], col[-1]
        else:
            i = next(i for i in range(len(ks) - 1) if ks[i] <= k <= ks[i + 1])
            lo, hi = col[i], col[i + 1]
        x0, y0 = 1.0 / lo[0], lo[1]
        x1, y1 = 1.0 / hi[0], hi[1]
        x = 1.0 / k
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


_SHIPPED: BiasTable | None = None
_MC_CACHE: dict[tuple[int, float], float] = {}


def shipped_bias_table() -> BiasTable:
    global _SHIPPED
    if _SHIPPED is None:
        _SHIPPED = BiasTable.shipped()
    return _SHIPPED


def log_mean(y: np.ndarray, zeta: float) -> float:
    """zeta^-1 log(zeta^-zeta k^-1 sum exp(zeta y)) via max-shifted LSE."""
    v = zeta * np.asarray(y, dtype=np.float64)
    m = float(np.max(v))
    s = float(np.log(np.mean(np.exp(v - m))))
    return (m + s) / zeta - math.log(zeta)


def _log_means(z: np.ndarray, zeta: float) -> np.ndarray:
    """Row-wise ``log_mean`` of a (rows, k) array of samples."""
    v = zeta * z
    m = v.max(axis=1)
    return (m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta)


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_rows(out, key, n: int, k: int, zeta: float, rows: int, a: int, b: int) -> bool:
    """out[a:b] = log-means of rows [a, b) of the chunk's n x k samples,
    ``rows`` rows at a time; False if an endpoint word was met."""
    for r0, z in zip(range(a, b, rows), sample_g0_slices(key, n * k, a * k, b * k, rows * k)):
        if z is None:
            return False
        out[r0 : r0 + len(z) // k] = _log_means(z.reshape(-1, k), zeta)
    return True


def bias_correction(k: int, zeta: float, reps: int = 500_000, seed: int = 0) -> BiasEstimate:
    """Monte Carlo BC: mean over replicates of the log-mean of k pure
    G(z;0) samples, with its standard error (sample sd / sqrt(reps)).

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
            fill = partial(_fill_rows, out, key, n, k, zeta, rows)
            if not all(list(pool.map(fill, cuts[:-1], cuts[1:]))):
                rng = np.random.Generator(np.random.Philox(key=key))
                out[:] = _log_means(sample_g0(rng, n * k).reshape(n, k), zeta)
    value = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return BiasEstimate(value=value, std_error=se, reps=reps)


def resolve_bias(
    k: int,
    zeta: float,
    mode: str = "auto",
    table: BiasTable | None = None,
    mc_reps: int = 500_000,
    mc_seed: int = 0,
) -> float:
    """BC for (k, zeta) per the configured policy.

    auto: exact table hit, else 1/k interpolation when the zeta column
    exists, else cached Monte Carlo.  table: no Monte Carlo fallback.
    mc: always Monte Carlo.  none: BC = 0 (the raw estimator).
    Each Monte Carlo computation is logged at INFO with k, zeta and reps.
    """
    if mode == "none":
        return 0.0
    if table is None:
        table = shipped_bias_table()
    if mode in ("auto", "table"):
        hit = table.lookup(k, zeta)
        if hit is not None:
            return hit[0]
        try:
            return table.interpolate(k, zeta)
        except KeyError:
            if mode == "table":
                raise
    cache_key = (k, round(zeta, 12))
    if cache_key not in _MC_CACHE:
        import logging  # imported here, as in bias_correction

        logging.getLogger(__name__).info(
            "bias correction by Monte Carlo: k=%d, zeta=%r, reps=%d", k, zeta, mc_reps
        )
        _MC_CACHE[cache_key] = bias_correction(k, zeta, reps=mc_reps, seed=mc_seed).value
    return _MC_CACHE[cache_key]


def estimate(
    sketch,
    bc_mode: str = "auto",
    table: BiasTable | None = None,
    mc_reps: int = 500_000,
) -> EstimateResult:
    """Entropy estimate from a sketch: H = -(log-mean - BC)."""
    if not sketch.total > 0.0:
        raise ValueError("sketch total must be positive (frequencies undefined)")
    zeta = sketch.config.zeta
    k = sketch.config.k
    raw = log_mean(sketch.normalized(), zeta)
    bc = resolve_bias(k, zeta, mode=bc_mode, table=table, mc_reps=mc_reps)
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
