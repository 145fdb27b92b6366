"""Bias-corrected log-mean recovery of delta = sum p_j log p_j.

The raw estimator is
    delta_raw = zeta^-1 * log( zeta^-zeta * k^-1 * sum_j exp(zeta*y_j) )
with y_j = projections[j]/total, evaluated through a max-shifted
log-sum-exp.  A small-sample additive bias BC is subtracted.  The
paper's identity E exp(m X) = m^m gives every moment of
W = exp(zeta X)/zeta^zeta in closed form, so BC has a delta-method
expansion in 1/k through 1/k^3.  That expansion is used for zeta <= 1.5
wherever its 1/k^3 term is at most 2e-3; everywhere else BC is computed
by quadrature (``quadrature.bias_correction``).  At k = 1, BC = -inf,
so a k = 1 sketch estimates only without a correction.  The Shannon
entropy is -delta.

This module is pure Python, and so is the quadrature, which it imports
only outside the closed form's region: an estimate loads no numpy.
``estimate`` reads a sketch value, ``sketchfile.SketchFile``; an
``EntropySketch`` accumulator is read through the same value, which its
``normalized()`` builds.
"""

from __future__ import annotations

import math

from .sketchfile import Record

FISHER_INFO = 0.3445  # Fisher information for delta per sketch coordinate

# Region of the closed-form BC.  Against Monte Carlo, the residual was
# within noise wherever the 1/k^3 term is at most _CLOSED_FORM_T3_MAX for
# zeta <= 1.5, but negative at every k tried for zeta 2 and 2.5.
_CLOSED_FORM_T3_MAX = 2e-3
_CLOSED_FORM_ZETA_MAX = 1.5


class EstimateResult(Record):
    __slots__ = ("delta_hat", "entropy_hat", "bias_correction", "asymptotic_se")

    def _validate(self):
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


def resolve_bias(k: int, zeta: float, mode: str = "auto") -> float:
    """BC for (k, zeta) per the configured policy.

    auto: the closed-form expansion of ``_bias_terms`` where it holds
    (zeta <= 1.5 and a 1/k^3 term of at most 2e-3; k >= 8 at zeta = 1,
    k >= 28 at zeta = 1.5), else ``quadrature.bias_correction``, cached
    per (k, zeta) and logged at INFO.  k = 1 has no finite BC and raises.
    none: BC = 0 (the raw estimator), at any k.
    """
    if mode not in ("auto", "none"):
        raise ValueError(f"unknown bias mode {mode!r}")
    if k < 1 or not zeta > 0.0:
        raise ValueError("k must be >= 1 and zeta positive")
    if mode == "none":
        return 0.0
    if k == 1:
        raise ValueError(
            "k=1 has no finite bias correction (it is -inf); use k >= 2 or no correction"
        )
    if zeta <= _CLOSED_FORM_ZETA_MAX:
        terms = _bias_terms(k, zeta)
        if abs(terms[2]) <= _CLOSED_FORM_T3_MAX:
            return sum(terms)
    from .quadrature import bias_correction  # imported here: only this path needs it

    return bias_correction(k, zeta)


def estimate(sketch, bc_mode: str = "auto") -> EstimateResult:
    """Entropy estimate from a sketch: H = -(log-mean - BC).

    ``sketch`` is anything with ``config.k``, ``config.zeta``, ``total``
    and ``normalized()``: a ``SketchFile``, or an ``EntropySketch`` through its own.
    A zeta without a finite positive asymptotic SE fails before any bias work.
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


def asymptotic_std_error(k: int, zeta: float) -> float:
    """Large-k standard deviation of the estimator: sqrt((4^z-1)/(z^2 k)).

    Raises ValueError naming zeta where that is not a finite positive
    double: 4^z overflows, or z^2 underflows, or 4^z - 1 rounds to 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not zeta > 0.0:
        raise ValueError("zeta must be positive")
    try:
        se = math.sqrt((4.0**zeta - 1.0) / (zeta**2 * k))
    except (OverflowError, ZeroDivisionError):
        se = math.inf
    if not 0.0 < se < math.inf:
        raise ValueError(f"zeta={zeta!r} has no finite positive asymptotic standard error at k={k}")
    return se
