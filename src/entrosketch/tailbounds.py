"""Chernoff tail machinery for the raw log-mean estimator (zeta <= 1).

With W = exp(zeta X)/zeta^zeta and L(t) = E exp(-t W) from
``quadrature.log_laplace``, the tail constants are
    G_R = eps^2 / sup_t [-log L(-t) + t exp( zeta*eps)]
    G_L = eps^2 / sup_t [-log L(t)  - t exp(-zeta*eps)]
and the error probability is bounded by exp(-k eps^2 / G).  L(-t) is
finite for every t when zeta < 1, for t < 1/e when zeta = 1, and for no
t > 0 above.  Each sup is found by golden section over log t.  Both tend
to 2(4^zeta - 1)/zeta^2 as eps -> 0.  The bound is for the estimator
*without* the small-sample bias correction.  A zeta is checked by
``sketchfile.asymptotic_std_error``, the one rule ("zeta=<repr> has no finite
positive asymptotic standard error at k=1"), and then refused above 1.
"""

from __future__ import annotations

import math

from .quadrature import log_laplace, moment_top
from .sketchfile import Record, asymptotic_std_error

_LOG2 = math.log(2.0)


class TailBoundResult(Record):
    __slots__ = ("g_right", "g_left", "t_star_right", "t_star_left", "zeta", "epsilon")


def golden_section_max(f, a: float, b: float, rel_tol: float = 1e-10):
    """Maximize a unimodal f on [a, b]; returns (argmax, max)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
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


def _expand_bracket(f, v: float) -> float:
    """Grow the upper end of a bracket in log t until f, unimodal, falls: by
    log 2 up to log t = log 8, then by half of log t, so that a sup near
    log t = 350 takes 20 evaluations of f."""
    last, now = f(v - _LOG2), f(v)
    while now > last:
        v += max(_LOG2, v / 2.0)
        last, now = now, f(v)
    return v


def tail_constants(zeta: float, epsilon: float) -> TailBoundResult:
    """G_R, G_L and the optimizing t of each tail.  Raises ValueError naming
    zeta and epsilon where a sup is not above 1e-9 of its terms, near
    t* exp(+-zeta eps), whose rounding could then move it by 1e-7."""
    asymptotic_std_error(1, zeta)
    if zeta > 1.0:
        raise ValueError("zeta must be <= 1")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    er = math.exp(zeta * epsilon) if zeta * epsilon < 709.0 else math.inf
    el = math.exp(-zeta * epsilon)

    def q_right(v: float) -> float:
        return -log_laplace(zeta, v, -1.0) + math.exp(v) * er

    def q_left(v: float) -> float:
        return -log_laplace(zeta, v) - math.exp(v) * el

    found = []
    # log M is inf from log t = top on (t = 1/e at zeta = 1), so the right tail's
    # bracket ends there, and a large eps's sup is at it.  t* grows with eps, and
    # is near eps zeta/(4^zeta - 1) >= eps/3 at small eps, so e^-10 eps is below it.
    # The right tail goes first: an er of inf refuses eps before el, then 0,
    # could leave the left bracket nothing to fall from
    top = moment_top(zeta)
    for q, e in ((q_right, er), (q_left, el)):
        hi = top if q is q_right and zeta == 1.0 else _expand_bracket(q, -2.0 * _LOG2)
        if q is q_right:
            hi = min(hi, top)
        # the sup is flat in log t: 1e-8 there leaves it within about 1e-15
        v, sup = golden_section_max(q, min(math.log(epsilon), hi) - 10.0, hi, 1e-8)
        t = math.exp(v)
        if not 1e-9 * t * e < sup < math.inf:  # its terms are near t e
            raise ValueError(f"no tail constants at zeta={zeta!r}, epsilon={epsilon!r}: the "
                             f"sup {sup!r} at t={t!r} is not above 1e-9 of its terms")
        found.append((t, sup))
    (t_r, q_r), (t_l, q_l) = found
    return TailBoundResult(epsilon**2 / q_r, epsilon**2 / q_l, t_r, t_l, zeta, epsilon)


def exceedance_bound(k: int, epsilon: float, bounds: TailBoundResult) -> float:
    """Two-sided union bound on P(|delta_raw - delta| >= eps)."""
    return math.exp(-k * epsilon**2 / bounds.g_right) + math.exp(-k * epsilon**2 / bounds.g_left)


def required_sketch_size(epsilon: float, gamma: float, zeta: float = 1.0) -> int:
    """Smallest k with exp(-k e^2/G_R) + exp(-k e^2/G_L) <= gamma, a guarantee
    for the raw (uncorrected) log-mean estimator."""
    return _size_and_bounds(epsilon, gamma, zeta)[0]


def _size_and_bounds(epsilon: float, gamma: float, zeta: float) -> tuple[int, TailBoundResult]:
    """``required_sketch_size`` and the tail constants it was found from."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    bounds = tail_constants(zeta, epsilon)  # validates zeta and epsilon
    g_max = max(bounds.g_right, bounds.g_left)
    hi = max(1, math.ceil(g_max / epsilon**2 * (_LOG2 - math.log(gamma))))
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
