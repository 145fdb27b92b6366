"""Bias-corrected log-mean recovery of delta = sum p_j log p_j.

The raw estimator is
    delta_raw = zeta^-1 * log( zeta^-zeta * k^-1 * sum_j exp(zeta*y_j) )
with y_j = projections[j]/total, evaluated through a max-shifted
log-sum-exp, or through log1p of the mean of expm1(zeta*y_j) where every
|zeta*y_j| < 1, so that a small zeta keeps its digits.  A small-sample
additive bias BC = zeta^-1 E log(mean of k W's), W = exp(zeta X)/zeta^zeta,
is subtracted; it is computed from the paper's moments E W^s = s^(zeta s)
by ``quadrature.bias_correction`` at every k >= 2.  At k = 1, BC = -inf,
so a k = 1 sketch estimates only without a correction.  The Shannon
entropy is -delta.  Each function here that takes zeta first asks the
one rule, ``sketchfile.asymptotic_std_error``:
"zeta=<repr> has no finite positive asymptotic standard error at k=<k>"
(k = len(y) in ``log_mean``, 1 in ``are``).

This module is pure Python, and so is the quadrature: an estimate loads
no numpy.  ``estimate`` reads a sketch value, ``sketchfile.SketchFile``; an
``EntropySketch`` accumulator is read through the same value, which its
``normalized()`` builds.
"""

from __future__ import annotations

import math

from .quadrature import bias_correction
from .sketchfile import Record, asymptotic_std_error

FISHER_INFO = 0.3445  # Fisher information for delta per sketch coordinate


class EstimateResult(Record):
    __slots__ = ("delta_hat", "entropy_hat", "bias_correction", "asymptotic_se")

    def _validate(self):
        assert self.entropy_hat == -self.delta_hat


def log_mean(y, zeta: float) -> float:
    """zeta^-1 log(zeta^-zeta k^-1 sum_j exp(zeta y_j)) of a sequence of k
    floats, through a max-shifted log-sum-exp summed by ``math.fsum``.
    Where every |zeta y_j| < 1 it is log1p of the mean of expm1(zeta y_j)
    instead, which keeps the y-part's digits as zeta -> 0, where the
    log-sum-exp's rounding near 1e-16 would be divided by zeta.

    Pure Python, so an estimate needs no numpy.  The test suite's Monte
    Carlo engine (``_log_means`` in ``tests/paper.py``) computes the
    log-sum-exp row-wise with numpy's SIMD ``exp`` and pairwise sum, which
    round differently: the two agree within 2 ulp of max(1, |m| + |log s|)/zeta,
    m the largest zeta*y_j and s the mean of exp(zeta*y_j - m).
    """
    if len(y) == 0:
        raise ValueError("log_mean needs at least one value")
    asymptotic_std_error(len(y), zeta)
    v = [zeta * float(x) for x in y]
    if max(map(abs, v)) < 1.0:
        return math.log1p(math.fsum(map(math.expm1, v)) / len(v)) / zeta - math.log(zeta)
    m = max(v)
    mean = math.fsum([math.exp(x - m) for x in v]) / len(v)
    return (m + math.log(mean)) / zeta - math.log(zeta)


def resolve_bias(k: int, zeta: float, mode: str = "auto") -> float:
    """BC for (k, zeta) per the configured policy.

    auto: ``quadrature.bias_correction``, cached per (k, zeta) and
    logged at INFO.  k = 1 has no finite BC and raises.
    none: BC = 0 (the raw estimator), at any k.
    """
    if mode not in ("auto", "none"):
        raise ValueError(f"unknown bias mode {mode!r}")
    asymptotic_std_error(k, zeta)
    return 0.0 if mode == "none" else bias_correction(k, zeta)


def estimate(sketch, bc_mode: str = "auto") -> EstimateResult:
    """Entropy estimate from a sketch: H = -(log-mean - BC).

    ``sketch`` is anything with ``config`` and ``normalized()``: a
    ``SketchFile``, or an ``EntropySketch`` through its own.  Its
    ``SketchConfig`` holds no zeta without a finite positive asymptotic SE,
    and ``normalized()`` refuses a total that is not positive.
    """
    zeta = sketch.config.zeta
    k = sketch.config.k
    se = asymptotic_std_error(k, zeta)
    raw = log_mean(sketch.normalized(), zeta)
    bc = resolve_bias(k, zeta, mode=bc_mode)
    delta_hat = raw - bc
    return EstimateResult(
        delta_hat=delta_hat,
        entropy_hat=-delta_hat,
        bias_correction=bc,
        asymptotic_se=se,
    )


def are(zeta: float) -> float:
    """Asymptotic relative efficiency vs the MLE: z^2/(0.3445*(4^z-1))."""
    asymptotic_std_error(1, zeta)
    return zeta**2 / (FISHER_INFO * (4.0**zeta - 1.0))
