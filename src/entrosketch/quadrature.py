"""Bias correction of the log-mean by quadrature, in pure Python.

BC(k, zeta) = zeta^-1 E log(mean of k W's), W = exp(zeta X)/zeta^zeta,
X ~ G(x;0).  From log m = int (e^-t - e^-tm) dt/t, with t = e^v,

    BC = zeta^-1 int (exp(-e^v) - L(e^v/k)^k) dv  over all real v,

where L(t) = E exp(-t W) is the Laplace transform of W.  The package's
Chambers-Mallows-Stuck sampler gives X = log w + log A(s), w ~ Exp(1)
and s = u + pi/2 uniform on (0, pi), with

    log A(s) = log sin s - log(pi - s) - (pi - s) cot s,

increasing from -inf to 1.  So L(t) = E_s phi(t A(s)^zeta / zeta^zeta),
with phi(c) = E_w exp(-c w^zeta); phi(c) = 1/(1 + c) at zeta = 1.

* The s-integral runs over q = pi/s in (1, inf), with weight 1/q^2.
  For large t, phi(...) steps from 1 to 0 where log A = -log(t)/zeta,
  a step of fixed width 1/zeta in q that moves out like log t.  So each
  v gets its own Gauss-Legendre panels, doubling in width away from
  that step until phi's asymptotes put it within e^-25 of 0 or 1, and
  cut where they would reach too close to q = 1/2, where log A(pi/q) is
  singular; the rest of (1, inf) is added exactly.
* The v-integral runs over Gauss-Legendre panels that double outward
  from 0.  Below 0 the integrand is O(4^zeta e^2v).  Above it, it is
  -L^k, which decays only as (zeta/v)^k: X's left tail is heavy.  The
  panels stop once one adds less than 1e-10 zeta; past
  v = 2^14 max(1, zeta) the rest comes from the tail's asymptote
  L = s/pi, with log A(s) = -(v - log k - zeta log zeta
  + gamma (1 - zeta))/zeta, integrated over s.
* For zeta != 1, logit phi is tabulated once per call on a grid in
  log c, by the trapezoid rule over the log of an exponential variate,
  and read by six-point Lagrange interpolation.  Outside the grid it
  follows its asymptotes, from phi = 1 - Gamma(1+zeta) c and
  phi = Gamma(1+1/zeta) c^(-1/zeta).
* L^k is exp(k log L).  Near L = 1, log L = log1p(-(1 - L)), with 1 - L
  summed as such: a large k needs it to a relative 1e-12.

At zeta = 1 and k = 2, 3, 5, 10, 100 the result is within 2e-10 of an
adaptive reference quadrature.  For 0.5 <= zeta <= 2.5 and k from 2 to
2217 it is within 1e-9 of a run with 12-node panels, a table step of
0.02 and the asymptote from v = 2^18.  Every result tried, for zeta from
0.05 to 200, was within 1.5 standard errors of Monte Carlo.  Below
zeta = 1e-6 its rounding errors, which BC scales by 1/zeta, grow.
BC(1, zeta) = -inf (E X = -inf), so k must be at least 2.  Results are
cached per (k, zeta); each computation is logged at INFO.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

_NODES = 8  # Gauss-Legendre nodes per panel
_REACH = 25.0  # the s-panels reach where phi is within e^-25 of 0 or 1
_TAIL_TOL = 1e-10  # the v-panels stop once one adds less than this, times zeta
_ASYMPTOTE_V = 2.0**14  # past this v, times max(1, zeta), the tail's asymptote
_LOGIT_STEP = 0.1  # grid step of the logit phi table, times max(1, zeta)
_TRAPEZOID_STEP = 0.4  # trapezoid step over the log of an exponential variate


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> list[tuple[float, float]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / slope
            x -= step
            if abs(step) < 1e-15:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return rule


def _panels(edges) -> list[tuple[float, float]]:
    """Gauss-Legendre nodes and weights on consecutive panels between edges."""
    rule = _gauss_legendre(_NODES)
    return [
        ((lo + hi) / 2 + (hi - lo) / 2 * x, (hi - lo) / 2 * w)
        for lo, hi in zip(edges, edges[1:])
        for x, w in rule
    ]


def _log_a(s: float) -> float:
    return math.log(math.sin(s)) - math.log(math.pi - s) - (math.pi - s) / math.tan(s)


def _log_a_slope(s: float) -> float:
    return 2.0 / math.tan(s) + 1.0 / (math.pi - s) + (math.pi - s) / math.sin(s) ** 2


def _s_root(y: float) -> float:
    """The s in (0, pi) with log A(s) = y < 1: Newton's method, kept in a
    bisection bracket."""
    lo, hi = 0.0, math.pi
    s = math.pi / (1.0 - y + math.log(-y)) if y < -1.0 else math.pi / 2
    for _ in range(100):
        f = _log_a(s) - y
        if f > 0.0:
            hi = s
        else:
            lo = s
        t = s - f / _log_a_slope(s)
        if not lo < t < hi:
            t = (lo + hi) / 2
        if abs(t - s) <= 1e-12 * s:
            return t
        s = t
    return s


def _logit_phi(zeta: float):
    """x -> logit phi(e^x), phi(c) = E exp(-c w^zeta) with w ~ Exp(1).

    phi(e^x) = P(R1 - zeta R2 > x) for independent log-exponential R1,
    R2 (density exp(r - e^r)).  The table sums over R2 for zeta <= 1
    and over R1 otherwise, so the other factor is a step at least one
    unit wide, and sums phi and 1 - phi separately, so both keep their
    relative precision.
    """
    left = -math.lgamma(1.0 + zeta)  # logit phi -> left - x as x -> -inf
    right = math.lgamma(1.0 + 1.0 / zeta)  # logit phi -> right - x/zeta as x -> inf
    if zeta == 1.0:
        return lambda x: -x
    # beyond lo and hi, the asymptotes are within about 1e-10
    lo = -23.0 - max(0.0, math.lgamma(1.0 + 2.0 * zeta) + left)
    hi = zeta * (24.0 + max(0.0, math.lgamma(2.0 / zeta) - math.lgamma(1.0 / zeta), right))
    h = _LOGIT_STEP * max(1.0, zeta)
    x0 = lo - 2.0 * h
    n = int((hi - lo) / h) + 6
    # the density exp(r - e^r) of the log of an exponential variate is below e^-40 off [-45, 3.8]
    rs = [-45.0 + j * _TRAPEZOID_STEP for j in range(int(48.8 / _TRAPEZOID_STEP) + 1)]
    gs = [math.exp(r - math.exp(r)) for r in rs]
    table = []
    for i in range(n):
        x = x0 + i * h
        us = [math.exp(min(x + zeta * r if zeta <= 1.0 else (r - x) / zeta, 700.0)) for r in rs]
        # the means of P(R > arg) and P(R <= arg), R log-exponential
        over = sum(g * math.exp(-u) for g, u in zip(gs, us))
        under = sum(g * -math.expm1(-u) for g, u in zip(gs, us))
        phi, rest = (over, under) if zeta <= 1.0 else (under, over)
        # a sum that underflows is below 2^-1074: its asymptote may not hold yet
        if rest == 0.0:
            table.append(max(left - x, 745.0))
        elif phi == 0.0:
            table.append(min(right - x / zeta, -745.0))
        else:
            table.append(math.log(phi) - math.log(rest))
    top = x0 + (n - 4) * h

    def logit(x: float) -> float:
        if x < lo:
            return left - x
        if x > top:
            return right - x / zeta
        # six-point Lagrange interpolation, at f in [0, 1) between nodes 0 and 1
        t = (x - x0) / h
        i = int(t)
        f = t - i
        m2, m1, p0, p1, p2, p3 = table[i - 2 : i + 4]
        a, b, d, e, g = f + 2.0, f + 1.0, f - 1.0, f - 2.0, f - 3.0
        fde, ab = f * d * e, a * b
        return (
            (a * m1 - 0.2 * b * m2) * fde * g / 24.0
            + (p1 * f - p0 * d) * ab * e * g / 12.0
            + (0.2 * p3 * e - p2 * g) * ab * f * d / 24.0
        )

    return logit


def _doubling(unit: float, reach: float) -> list[float]:
    """0, unit, 3 unit, 7 unit, ... up to the first at least ``reach``."""
    return [unit * (2**j - 1) for j in range(1 + math.ceil(math.log2(reach / unit + 1.0)))]


@lru_cache(maxsize=64)
def bias_correction(k: int, zeta: float) -> float:
    """BC(k, zeta) by quadrature; k >= 2 and zeta positive and finite."""
    if k < 2 or not 0.0 < zeta < math.inf:
        raise ValueError(
            f"the bias correction needs k >= 2 and a finite zeta > 0, not k={k}, zeta={zeta!r}"
        )
    # a process that never imported logging has no handler that could show
    # this, and importing it would start threading
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(__name__).info(
            "bias correction by quadrature: k=%d, zeta=%r", k, zeta
        )
    logit = _logit_phi(zeta)
    # log c = v - shift + zeta log A(s)
    shift = math.log(k) + zeta * math.log(zeta)
    # panels around the step, out to where phi's asymptotes put it e^-25 from 0 or 1
    below = _doubling(min(1.0, 1.0 / zeta), _REACH + math.lgamma(1.0 + 1.0 / zeta))
    above = _doubling(1.0 / zeta, (_REACH + math.lgamma(1.0 + zeta)) / zeta)

    def log_l(v: float) -> float:
        """log L(e^v/k)"""
        vs = v - shift
        q0 = 1.0 if vs <= -zeta else math.pi / _s_root(-vs / zeta)
        edges = {max(1.0, q0 - d) for d in below} | {q0 + d for d in above}
        # 1/q^2 and log A(pi/q) are singular at q = 0 and 1/2: each panel
        # [lo, hi] is cut at 1 + 2^j/4 inside it, so hi - 1 <= 2 (lo - 1) + 1/4
        lo, hi = min(edges), max(edges)
        guard = 1.25
        while guard < hi:
            if guard > lo:
                edges.add(guard)
            guard += guard - 1.0
        edges = sorted(edges)
        l_sum, m_sum = 1.0 / edges[-1], 1.0 - 1.0 / edges[0]  # L and 1 - L off the panels
        for q, w in _panels(edges):
            e = math.exp(min(700.0, -logit(vs + zeta * _log_a(math.pi / q))))
            p = w / (q * q * (1.0 + e))
            l_sum += p
            m_sum += p * e
        return math.log(l_sum) if l_sum < 0.5 else math.log1p(-m_sum)

    def integral(lo: float, hi: float) -> float:
        return math.fsum(
            w * ((math.exp(-math.exp(v)) if v < 700.0 else 0.0) - math.exp(k * log_l(v)))
            for v, w in _panels([lo, hi])
        )

    total = integral(-1.0, 0.0)
    a = 1.0
    while -a > -40.0 - zeta * math.log(4.0):  # below, the integrand is O(4^zeta e^2v)
        total += integral(-2.0 * a, -a)
        a *= 2.0
    a = 0.0
    while a < _ASYMPTOTE_V * max(1.0, zeta):
        part = integral(a, max(1.0, 2.0 * a))
        total += part
        a = max(1.0, 2.0 * a)
        # past 4, |integrand| = L^k falls at least as fast as (zeta/v)^k with
        # k >= 2, so the panels to come add at most this one's integral
        if a > 4.0 and abs(part) < _TAIL_TOL * zeta:
            break
    else:
        # v(s) = shift - zeta log A(s) - gamma (1 - zeta), L = s/pi
        s1 = _s_root(-(a - shift + 0.5772156649015329 * (1.0 - zeta)) / zeta)
        total -= math.fsum(
            w * zeta * (s / math.pi) ** k * _log_a_slope(s) for s, w in _panels([0.0, s1])
        )
    return total / zeta
