"""The transform L(t) = E exp(-t W) of W = exp(zeta X)/zeta^zeta, X ~ G(x;0),
for both signs of t, and the bias correction of the log-mean by
quadrature over it, in pure Python.

``log_laplace`` is the package's one L: the bias correction integrates
L(t), and ``tailbounds`` maximises -log L(t) - t exp(-zeta eps) and
-log M(t) + t exp(zeta eps), M(t) = L(-t) = E exp(t W), for the left and
right Chernoff tails.  M is finite for every t at zeta < 1, for t < 1/e
at zeta = 1, and for no t > 0 above.

* At zeta = 1 the paper's E exp(jX) = j^j makes L's moment series
  sum_j (-t)^j j^j/j! the tree-function series of 1/(1 + W0(t)), W0
  Lambert's function, for either sign of t.
* At zeta < 1 and |t| <= 1/32, L is that series to 20 terms: quadrature's
  relative 1e-12 in 1 - L would leave a Chernoff sup at eps = 1e-8, 1e-17
  from terms near 1e-8, no digits.
* Elsewhere X = log w + log A(s) as the package's sampler draws it, with
  w ~ Exp(1), s uniform on (0, pi) and log A(s) = log sin s - log(pi - s)
  - (pi - s) cot s rising from -inf to 1.  So L(t) = E_s phi(t A(s)^zeta
  / zeta^zeta), phi(c) = E_w exp(-c w^zeta), over q = pi/s in (1, inf)
  with weight 1/q^2.  For large t, phi steps from 1 to 0 where log A =
  -log(t)/zeta, a step 1/zeta wide in q: each t gets Gauss-Legendre
  panels doubling away from it until phi's asymptotes put it e^-25 from
  0 or 1, cut short of q = 1/2, where log A(pi/q) is singular; the rest
  of (1, inf) is added exactly.  logit phi is tabulated once per zeta
  (the last 16 are kept) on a grid in log c, by the trapezoid rule over
  the log of an exponential variate, read by six-point Lagrange
  interpolation, and follows its asymptotes outside, from
  phi = 1 - Gamma(1+zeta) c and phi = Gamma(1+1/zeta) c^(-1/zeta).
* M(t) at zeta < 1 takes the other order, E_w rho(t w^zeta/zeta^zeta)
  with rho(b) = E_s exp(b A(s)^zeta): a growing t then only moves and
  narrows the w-integrand's peak, where E_s of E_w exp(c w^zeta) would
  meet a near-pole at c = 1 as zeta -> 1.  log log rho is tabulated the
  same way for log b in [0, 10], with rho's Taylor series below and its
  Laplace asymptote at s = pi above.  M - 1 is summed in log space by the
  trapezoid rule over log w, out from the peak: within 5e-12 of the
  moment series, in 4-9 ms per zeta for the table and 0.3 ms per t.

BC(k, zeta) = zeta^-1 E log(mean of k W's) = zeta^-1 int (exp(-e^v)
- L(e^v/k)^k) dv over all real v, from log m = int (e^-t - e^-tm) dt/t,
t = e^v.  L^k is exp(k log L), with 1 - L summed as such: a large k needs
it to a relative 1e-12.  The v-integral runs over Gauss-Legendre panels
that double outward from 0.  Below 0 the integrand is O(4^zeta e^2v).
Above it, it is -L^k, which decays only as (zeta/v)^k: X's left tail is
heavy.  The panels stop once one adds less than 1e-10 zeta; past v = 2^14
max(1, zeta) the rest comes from the tail's asymptote L = s/pi, with
log A(s) = -(v - log k - zeta log zeta + gamma (1 - zeta))/zeta, over s.

At zeta = 1 and k from 2 to 2217 the result is within 1e-10 of the digamma
identity BC(k, 1) = psi(k-1) - log k + int_0^inf [(1+w) e^(-k w e^w)
- e^(-k w)] dw/w, in about 0.3 ms.  For 0.5 <= zeta <= 2.5 it is within
1e-9 of a run with 12-node panels, a table step of 0.02 and the asymptote
from v = 2^18, in 20-90 ms.  Every result tried, for zeta from 0.05 to
200, was within 1.5 standard errors of Monte Carlo.  Below zeta = 1e-6
its rounding errors, which BC scales by 1/zeta, grow.  BC(1, zeta) = -inf
(E X = -inf), so k >= 2.  Results are cached per (k, zeta), logged at INFO.
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
_RHO_TOP = 10.0  # the log log rho table's top in log b, above which rho follows its asymptote


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


def _lagrange(table: list[float], x0: float, h: float, x: float) -> float:
    """Six-point Lagrange interpolation on the grid x0 + i h, i >= 2."""
    t = (x - x0) / h
    i = int(t)
    f = t - i
    m2, m1, p0, p1, p2, p3 = table[i - 2 : i + 4]
    a, b, d, e, g = f + 2.0, f + 1.0, f - 1.0, f - 2.0, f - 3.0
    fde, ab = f * d * e, a * b
    return ((a * m1 - 0.2 * b * m2) * fde * g / 24.0 + (p1 * f - p0 * d) * ab * e * g / 12.0
            + (0.2 * p3 * e - p2 * g) * ab * f * d / 24.0)


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
        return _lagrange(table, x0, h, x)

    return logit


def _doubling(unit: float, reach: float) -> list[float]:
    """0, unit, 3 unit, 7 unit, ... up to the first at least ``reach``."""
    return [unit * (2**j - 1) for j in range(1 + math.ceil(math.log2(reach / unit + 1.0)))]


def _lambert_w(log_t: float, sign: float = 1.0) -> float:
    """W0(sign t), the w > -1 with w e^w = sign t (t < 1/e if sign is -1), from
    log t: Halley's method on w e^w = sign t below t = e, Newton's on
    w + log w = log t above, so t is never formed where it could overflow."""
    if log_t < 1.0:
        x = sign * math.exp(log_t)
        # (1+x) log1p(x) >= x: at or above the root, where Halley's method descends
        w = math.log1p(x)
        for _ in range(100):
            ew = math.exp(w)
            f = w * ew - x
            step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
            w -= step
            if abs(step) <= 1e-14 * abs(w):
                break
        return w
    w = log_t - math.log(log_t)  # at or below the root, where Newton's method rises to it
    for _ in range(100):
        step = (w + math.log(w) - log_t) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-14 * w:
            break
    return w


@lru_cache(maxsize=16)
def _s_rule(zeta: float):
    """The per-zeta parts of the s-integral: logit phi, and the offsets in
    q of the panels below and above phi's step."""
    # out to where phi's asymptotes put it e^-25 from 0 or 1
    below = _doubling(min(1.0, 1.0 / zeta), _REACH + math.lgamma(1.0 + 1.0 / zeta))
    above = _doubling(1.0 / zeta, (_REACH + math.lgamma(1.0 + zeta)) / zeta)
    return _logit_phi(zeta), below, above


@lru_cache(maxsize=16)
def _log_moment(zeta: float):
    """log t -> log M(t) = log E_w rho(t w^zeta/zeta^zeta), rho(b) = E_s exp(b A(s)^zeta)."""
    ez, h = math.exp(zeta), 1.0 / 32.0  # h is the table's step in log b
    # rho - 1 = sum_j b^j E_s A^(j zeta)/j!, E_s A^(j zeta) = (j zeta)^(j zeta)/Gamma(1 + j zeta)
    coef = [math.exp(j * zeta * math.log(j * zeta) - math.lgamma(1 + j * zeta) - math.lgamma(1 + j))
            for j in range(30, 0, -1)]
    # b A^zeta is largest, b e^zeta, at s = pi; past the last edge it is below b e^-40
    edges = [1.0 + d for d in _doubling(2.0**-11, 40.0 / zeta)]
    nodes = [(math.log(w / q**2), math.exp(zeta * _log_a(math.pi / q)) - ez)
             for q, w in _panels(edges)]
    table = [math.log(b * ez + math.log(sum(math.exp(lw + b * a) for lw, a in nodes)
                                        + math.exp(-b * ez) / edges[-1]))
             for b in (math.exp((i - 2) * h) for i in range(int(_RHO_TOP / h) + 6))]
    # log A = 1 - d^2/2 - d^4/36 + ... at s = pi - d gives, with B = zeta b e^zeta,
    # log rho = b e^zeta - log(2 pi B)/2 + 3 (zeta/8 - 1/36)/B + O(B^-2)
    half, beta = 0.5 * math.log(2.0 * math.pi * zeta * ez), (0.375 * zeta - 1 / 12) / (zeta * ez)

    def log_excess(y: float) -> float:  # log(rho(e^y) - 1)
        b, total = math.exp(y), 0.0
        if y < 0.0:  # by Horner's rule: 30 terms reach 1e-17 below b = 1
            for c in coef:
                total = (total + c) * b
            return math.log(total)
        lr = (b * ez - 0.5 * y - half + beta / b if y > _RHO_TOP
              else math.exp(_lagrange(table, -2.0 * h, h, y)))
        return lr + math.log(-math.expm1(-lr))

    def log_m(log_t: float) -> float:
        lb = log_t - zeta * math.log(zeta)  # log b = lb + zeta r at w = e^r
        # the peak of r - e^r + b e^zeta, at e^r = 1 + zeta b e^zeta > zeta b e^zeta:
        # Newton's method on log1p(zeta b e^zeta) - r, convex and falling, rises to it
        zk = zeta * math.exp(lb + zeta)
        r = max(0.0, math.log(zk) / (1.0 - zeta))
        if r > 40.0:  # log M above e^40 (1 - zeta)/zeta: inf, as its doubles could not resolve it
            return math.inf
        for _ in range(100):
            u = zk * math.exp(zeta * r)
            step = (math.log1p(u) - r) / (1.0 - zeta * u / (1.0 + u))
            r += step
            if step < 1e-6:
                break
        dx = 0.3 / math.sqrt(1.0 + (1.0 - zeta) * math.expm1(r))  # 0.3 of the peak's width
        # log of each node's share of M - 1, out from the peak to e^-40 below the largest
        terms = []
        for step in (dx, -dx):
            x, best, prev = r if step > 0.0 else r - dx, -math.inf, math.inf
            while True:
                v = x - math.exp(x) + log_excess(lb + zeta * x)
                terms.append(v)
                best = max(best, v)
                if v < best - 40.0 and v < prev:
                    break
                x, prev = x + step, v
        top = max(terms)
        log_m1 = top + math.log(dx * math.fsum(math.exp(v - top) for v in terms))
        return max(log_m1, 0.0) + math.log1p(math.exp(-abs(log_m1)))

    return log_m


def log_laplace(zeta: float, log_t: float, sign: float = 1.0) -> float:
    """log L(sign t), L(t) = E exp(-t W) with W = exp(zeta X)/zeta^zeta, from
    log t; sign -1 gives log M(t), M(t) = E exp(t W), inf where M diverges or,
    at zeta < 1, passes about exp(e^40 (1 - zeta)/zeta).  zeta is positive and finite."""
    if sign < 0.0 and (zeta > 1.0 or zeta == 1.0 and log_t >= -1.0):
        return math.inf
    if zeta == 1.0:
        return -math.log1p(_lambert_w(log_t, sign))
    if zeta < 1.0 and log_t <= -math.log(32.0):  # L(-x) = sum_j x^j j^(zeta j)/j!
        x = -sign * math.exp(log_t)
        return math.log1p(math.fsum(
            x**j * math.exp(zeta * j * math.log(j) - math.lgamma(j + 1.0)) for j in range(1, 21)))
    if sign < 0.0:
        return _log_moment(zeta)(log_t)
    logit, below, above = _s_rule(zeta)
    # log c = vs + zeta log A(s)
    vs = log_t - zeta * math.log(zeta)
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
    log_k = math.log(k)

    def integral(lo: float, hi: float) -> float:
        return math.fsum(
            w * (
                (math.exp(-math.exp(v)) if v < 700.0 else 0.0)
                - math.exp(k * log_laplace(zeta, v - log_k))
            )
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
        # v(s) = log k + zeta log zeta - zeta log A(s) - gamma (1 - zeta), L = s/pi
        shift = log_k + zeta * math.log(zeta)
        s1 = _s_root(-(a - shift + 0.5772156649015329 * (1.0 - zeta)) / zeta)
        total -= math.fsum(
            w * zeta * (s / math.pi) ** k * _log_a_slope(s) for s, w in _panels([0.0, s1])
        )
    return total / zeta
