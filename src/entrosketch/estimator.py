"""Bias-corrected log-mean recovery of delta = sum p_j log p_j.

The raw estimator is
    delta_raw = zeta^-1 * log( zeta^-zeta * k^-1 * sum_j exp(zeta*y_j) )
with y_j = projections[j]/total, evaluated through a max-shifted
log-sum-exp.  A small-sample additive bias BC = zeta^-1 E log(mean of
k W's), W = exp(zeta X)/zeta^zeta, is subtracted; it is computed from
the paper's moments E W^s = s^(zeta s) by ``quadrature.bias_correction``
at every k >= 2.  At k = 1, BC = -inf, so a k = 1 sketch estimates only
without a correction.  The Shannon entropy is -delta.

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

    Pure Python, so an estimate needs no numpy.  The test suite's Monte
    Carlo engine (``_log_means`` in ``tests/paper.py``) computes the same
    expression row-wise with numpy's SIMD ``exp`` and pairwise sum, which
    round differently: the two agree within 2 ulp of max(1, |m| + |log s|)/zeta,
    m the largest zeta*y_j and s the mean of exp(zeta*y_j - m).
    """
    v = [zeta * float(x) for x in y]
    if not v:
        raise ValueError("log_mean needs at least one value")
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
    if k < 1 or not zeta > 0.0:
        raise ValueError("k must be >= 1 and zeta positive")
    asymptotic_std_error(k, zeta)  # the rule and message ingest applies
    if mode == "none":
        return 0.0
    if k == 1:
        raise ValueError(
            "k=1 has no finite bias correction (it is -inf); use k >= 2 or no correction"
        )
    return bias_correction(k, zeta)


def estimate(sketch, bc_mode: str = "auto") -> EstimateResult:
    """Entropy estimate from a sketch: H = -(log-mean - BC).

    ``sketch`` is anything with ``config.k``, ``config.zeta``, ``total``
    and ``normalized()``: a ``SketchFile``, or an ``EntropySketch`` through its own.
    Its ``SketchConfig`` holds no zeta without a finite positive asymptotic SE.
    """
    if not sketch.total > 0.0:
        raise ValueError("sketch total must be positive (frequencies undefined)")
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
    if not zeta > 0.0:
        raise ValueError("zeta must be positive")
    return zeta**2 / (FISHER_INFO * (4.0**zeta - 1.0))
