"""Chernoff tail machinery for the raw log-mean estimator (zeta <= 1).

The moment series M(t) = sum_j t^j j^(zeta*j)/j! converges for all
t > 0 when zeta < 1 and for |t| < 1/e when zeta = 1; there is no
exponential bound for zeta > 1.  The tail constants are
    G_R = eps^2 / sup_t [-log M(t)  + t exp( zeta*eps)]
    G_L = eps^2 / sup_t [-log M(-t) - t exp(-zeta*eps)]
and the error probability is bounded by exp(-k eps^2 / G).  Both
constants tend to 2(4^zeta - 1)/zeta^2 as eps -> 0.  The bound applies
to the estimator *without* the small-sample bias correction.
"""

from __future__ import annotations

import math

from .sketchfile import Record

_E_INV = math.exp(-1.0)
_MAX_TERMS = 50_000
# the zeta=1 search domain is clipped at (1 - 5e-3)/e: closer to the
# edge the series needs millions of terms, and stopping short of the
# sup only makes the returned constants larger, never invalid
_EDGE = 1.0 - 5e-3


class SeriesDomain(Record):
    # t_max is math.inf for zeta < 1, 1/e for zeta = 1
    __slots__ = ("zeta", "t_max")


class TailBoundResult(Record):
    __slots__ = ("g_right", "g_left", "t_star_right", "t_star_left", "zeta", "epsilon")


def series_domain(zeta: float) -> SeriesDomain:
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must be in (0, 1]")
    return SeriesDomain(zeta=zeta, t_max=_E_INV if zeta == 1.0 else math.inf)


def m_series(zeta: float, t: float) -> float:
    """sum_{j>=0} t^j j^(zeta j)/j! with 0^0 := 1, to ~1e-12 relative.

    Terms are computed in log space (j^(zeta j) overflows quickly);
    negative t gives the alternating series with the same |t| domain.
    """
    dom = series_domain(zeta)
    if abs(t) >= dom.t_max:
        raise ValueError(f"|t|={abs(t)} outside convergence domain (max {dom.t_max})")
    if t == 0.0:
        return 1.0
    log_at = math.log(abs(t))
    negative = t < 0.0
    terms = [1.0]
    magsum = 1.0
    j = 1
    while True:
        mag = math.exp(j * log_at + zeta * j * math.log(j) - math.lgamma(j + 1))
        terms.append(-mag if (negative and j % 2 == 1) else mag)
        magsum += mag
        if j >= 5 and mag < 1e-16 * magsum:
            break
        j += 1
        if j > _MAX_TERMS:
            raise RuntimeError(f"series did not converge within {_MAX_TERMS} terms")
    total = math.fsum(terms)
    if abs(total) < 1e-10 * magsum:
        raise RuntimeError("catastrophic cancellation in alternating series")
    return total


def golden_section_max(f, a: float, b: float, rel_tol: float = 1e-10):
    """Maximize a concave f on [a, b]; returns (argmax, max)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _expand_bracket(f, b0: float, b_cap: float) -> float:
    """Grow the upper bracket until f starts decreasing (f is concave)."""
    b = b0
    while b < b_cap and f(b) > f(b / 2.0):
        b = min(2.0 * b, b_cap)
    return b


def tail_constants(zeta: float, epsilon: float) -> TailBoundResult:
    """Compute G_R, G_L and the optimizing t for each tail.

    The left-tail search is restricted to the same domain T as the
    right tail: the alternating series representation of M(-t) is only
    absolutely convergent there, and a restricted sup still yields a
    valid (at most slightly larger) constant.
    """
    dom = series_domain(zeta)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")

    er = math.exp(zeta * epsilon)
    el = math.exp(-zeta * epsilon)

    def q_right(t: float) -> float:
        return -math.log(m_series(zeta, t)) + t * er

    def q_left(t: float) -> float:
        return -math.log(m_series(zeta, -t)) - t * el

    lo = 1e-300
    if math.isfinite(dom.t_max):
        hi_r = hi_l = dom.t_max * _EDGE
    else:
        # bracket expansion stays near the optimum, keeping the
        # alternating left-tail series well conditioned
        hi_r = _expand_bracket(q_right, 0.25, 2.0**60)
        hi_l = _expand_bracket(q_left, 0.25, 2.0**60)

    t_r, q_r = golden_section_max(q_right, lo, hi_r)
    t_l, q_l = golden_section_max(q_left, lo, hi_l)
    if not (q_r > 0.0 and q_l > 0.0):
        raise RuntimeError("tail objective not positive at optimum")
    return TailBoundResult(
        g_right=epsilon**2 / q_r,
        g_left=epsilon**2 / q_l,
        t_star_right=t_r,
        t_star_left=t_l,
        zeta=zeta,
        epsilon=epsilon,
    )


def exceedance_bound(k: int, epsilon: float, bounds: TailBoundResult) -> float:
    """Two-sided union bound on P(|delta_raw - delta| >= eps)."""
    return math.exp(-k * epsilon**2 / bounds.g_right) + math.exp(
        -k * epsilon**2 / bounds.g_left
    )


def required_sketch_size(epsilon: float, gamma: float, zeta: float = 1.0) -> int:
    """Smallest k with exp(-k e^2/G_R) + exp(-k e^2/G_L) <= gamma.

    The guarantee covers the raw (uncorrected) log-mean estimator.
    """
    return _size_and_bounds(epsilon, gamma, zeta)[0]


def _size_and_bounds(epsilon: float, gamma: float, zeta: float) -> tuple[int, TailBoundResult]:
    """``required_sketch_size`` and the tail constants it was found from."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    bounds = tail_constants(zeta, epsilon)  # validates zeta <= 1
    g_max = max(bounds.g_right, bounds.g_left)
    hi = max(1, math.ceil(g_max / epsilon**2 * math.log(2.0 / gamma)))
    if exceedance_bound(hi, epsilon, bounds) > gamma:
        raise RuntimeError("upper seed for k did not satisfy the bound")
    lo = 0  # invariant: k=lo fails (k=0 gives bound 2 > gamma)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceedance_bound(mid, epsilon, bounds) <= gamma:
            hi = mid
        else:
            lo = mid
    return hi, bounds


def tail_curve(zeta: float, epsilons) -> list[TailBoundResult]:
    """Tail constants over an epsilon grid (plot/CSV feed)."""
    return [tail_constants(zeta, eps) for eps in epsilons]
