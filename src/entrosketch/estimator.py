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

This module is pure Python.  ``estimate`` takes any loaded sketch (an
``EntropySketch`` or a ``sketchfile.SketchFile``), and the Monte Carlo
engine, ``montecarlo``, is imported only when a Monte Carlo BC is
computed, so an estimate inside the closed form's region loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

FISHER_INFO = 0.3445  # Fisher information for delta per sketch coordinate

# Region of the closed-form BC.  Against Monte Carlo, the residual was
# within noise wherever the 1/k^3 term is at most _CLOSED_FORM_T3_MAX for
# zeta <= 1.5, but negative at every k tried for zeta 2 and 2.5.
_CLOSED_FORM_T3_MAX = 2e-3
_CLOSED_FORM_ZETA_MAX = 1.5


@dataclass(frozen=True)
class EstimateResult:
    delta_hat: float
    entropy_hat: float
    bias_correction: float
    asymptotic_se: float

    def __post_init__(self):
        assert self.entropy_hat == -self.delta_hat


def log_mean(y, zeta: float) -> float:
    """zeta^-1 log(zeta^-zeta k^-1 sum_j exp(zeta y_j)) of a sequence of k
    floats, through a max-shifted log-sum-exp summed by ``math.fsum``.

    Pure Python, so an estimate needs no numpy.  The Monte Carlo
    engine's row-wise ``montecarlo._log_means`` computes the same
    expression with numpy's SIMD ``exp`` and pairwise sum, which round
    differently: the two agree within 2 ulp of max(1, |m| + |log s|)/zeta,
    m the largest zeta*y_j and s the mean of exp(zeta*y_j - m).
    """
    v = [zeta * float(x) for x in y]
    if not v:
        raise ValueError("log_mean needs at least one value")
    m = max(v)
    mean = math.fsum([math.exp(x - m) for x in v]) / len(v)
    return (m + math.log(mean)) / zeta - math.log(zeta)


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
    # imported here: only this path needs numpy and logging
    import logging

    from .montecarlo import bias_correction

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
    """Entropy estimate from a sketch: H = -(log-mean - BC).

    ``sketch`` is anything with ``config.k``, ``config.zeta``, ``total``
    and ``normalized()``: an ``EntropySketch`` or a ``SketchFile``.
    """
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
