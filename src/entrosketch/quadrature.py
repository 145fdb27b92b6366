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
* At zeta < 1 and |t| <= 1/32, L is that series to 20 terms: the rounding
  of the line below, about 1e-16 t^(-1/2) relative in 1 - L, would leave
  a Chernoff sup at eps = 1e-8, 1e-17 from terms near 1e-8, no digits.
* Elsewhere, for t > 0, the moments E W^s = s^(zeta s), Re s > 0, give L as
  a 1-D contour integral over Gamma(z) t^-z E W^-z.  Up to log t = 8 m,
  m = max(1, zeta), it runs on the Mellin-Barnes line z = -1/(2m) + iy:
  L(t) - e^-t = pi^-1 Re int_0^inf Gamma(z) t^-z (E W^-z - 1) dy, whose
  integrand is analytic for -2 < Re z < 0 and O(zeta) as zeta -> 0.  The
  trapezoid rule in y converges exponentially.  Its nodes, built per zeta
  from Stirling's series, keep E W^-z whole at zeta >= 1, where they decay
  twice as fast; each t is one Horner pass in t^-ih.  Above, the line is
  wrapped round the cut of E W^-z on z > 0:  L(t) = pi^-1 int_0^inf
  Gamma(x) sin(pi zeta x) x^(-zeta x) t^-x dx, over fixed Gauss-Legendre
  panels in u = x log t.  Against 30-digit mpmath, for log t from -3.4 to
  1e9 and zeta from 0.01 to 200, both are within 1e-13 relative in L and
  in 1 - L down to 1e-6, and 1e-16 absolute in a smaller 1 - L (zeta = 50).
* M(t) at zeta < 1 is E_w rho(t w^zeta/zeta^zeta), rho(b) = E_s exp(b
  A(s)^zeta), from X = log w + log A(s) as the package's sampler draws it:
  w ~ Exp(1), s uniform on (0, pi), log A(s) = log sin s - log(pi - s)
  - (pi - s) cot s.  log log rho is tabulated once per zeta for log b in
  [0, 10] over Gauss-Legendre panels in q = pi/s and read by six-point
  Lagrange interpolation, with rho's Taylor series below and its Laplace
  asymptote at s = pi above.  M - 1 is summed in log space by the
  trapezoid rule over log w, out from the peak: within 5e-12 of the moment
  series, in 4-9 ms per zeta for the table and 0.3 ms per t.

BC(k, zeta) = zeta^-1 E log(mean of k W's) = zeta^-1 int (exp(-e^v)
- L(e^v/k)^k) dv over all real v, from log m = int (e^-t - e^-tm) dt/t,
t = e^v.  At zeta != 1 and v < 6.5 the integrand is -exp(-e^v) expm1(k
log1p((L - e^-t) e^t)): it keeps its digits as zeta -> 0, where BC scales
rounding by 1/zeta.  The v-integral runs over Gauss-Legendre panels that
double outward from 0.  Below 0 the integrand is O(4^zeta e^2v).  Above
it, it is -L^k, which decays only as (zeta/v)^k: X's left tail is heavy.
The panels stop once one adds less than 1e-10 zeta.

At zeta = 1 and k from 2 to 2217 the result is within 1.4e-10 of the
digamma identity BC(k, 1) = psi(k-1) - log k + int_0^inf [(1+w)
e^(-k w e^w) - e^(-k w)] dw/w, in about 0.3 ms.  At zeta != 1 it takes
3-9 ms from k = 5 on, and 20 ms at k = 2, whose panels run to v near
5e9 zeta.  Every result tried, for zeta from 0.05 to 200, was within 1.5
standard errors of Monte Carlo; BC(2, zeta) levels off at -0.45158 below
zeta = 1e-6.  BC(1, zeta) = -inf (E X = -inf), so k >= 2.  Results are
cached per (k, zeta), logged at INFO.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

_NODES = 8  # Gauss-Legendre nodes per panel
_TAIL_TOL = 1e-10  # the v-panels stop once one adds less than this, times zeta
_LINE_STEP = 0.07  # the Mellin-Barnes line's trapezoid step in Im z, over max(1, zeta)
_LINE_TOP = 8.0  # the line's top in log t, times max(1, zeta); the Hankel contour above
# B_2n/(2n (2n - 1)), n = 8 down to 1: Stirling's series for log Gamma
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360,
             1 / 12)
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


def _panels(edges, n: int = _NODES) -> list[tuple[float, float]]:
    """Gauss-Legendre nodes and weights on consecutive panels between edges."""
    rule = _gauss_legendre(n)
    return [
        ((lo + hi) / 2 + (hi - lo) / 2 * x, (hi - lo) / 2 * w)
        for lo, hi in zip(edges, edges[1:])
        for x, w in rule
    ]


def _log_a(s: float) -> float:
    return math.log(math.sin(s)) - math.log(math.pi - s) - (math.pi - s) / math.tan(s)


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


@lru_cache(maxsize=16)
def _line(zeta: float):
    """c, h and the trapezoid nodes of the Mellin-Barnes line Re z = c, highest
    first: (h/pi) Gamma(z_j) (E W^-z_j - 1) with z_j = c + i j h, halved at j = 0;
    at zeta >= 1 the nodes keep E W^-z_j whole, and their sum is L - 1."""
    import cmath  # only zeta != 1 reaches here

    c, h = -0.5 / max(1.0, zeta), _LINE_STEP / max(1.0, zeta)
    nodes = []
    while not nodes or abs(nodes[-1]) > 1e-16 * abs(nodes[0]):
        z = complex(c, len(nodes) * h)
        # Gamma(z) = Gamma(z + 10)/(z (z + 1) ... (z + 9)), Stirling's series at z + 10
        w, p, series = z + 10.0, z, 0j
        for i in range(1, 10):
            p *= z + i
        for b in _STIRLING:
            series = series / (w * w) + b
        node = cmath.exp((w - 0.5) * cmath.log(w) - w + series / w) * math.sqrt(2.0 * math.pi) / p
        q = -zeta * z * cmath.log(-z)  # E W^-z = (-z)^(-zeta z), the paper's moments
        if zeta < 1.0:  # expm1(q): O(zeta) as zeta -> 0, so L - e^-t keeps its digits
            em = math.expm1(q.real)
            node *= complex(em * math.cos(q.imag) - 2.0 * math.sin(q.imag / 2.0) ** 2,
                            (em + 1.0) * math.sin(q.imag))
        else:
            node *= cmath.exp(q)
        nodes.append(node * h / (math.pi if nodes else 2.0 * math.pi))
    return c, h, nodes[::-1]


def _excess(zeta: float, log_t: float, sign: float = 1.0) -> float:
    """L(sign t) - exp(-sign t) from log t at zeta != 1: the moment series at
    zeta < 1 and t <= 1/32, else (sign 1) the Mellin-Barnes line."""
    x = -sign * math.exp(min(log_t, 700.0))  # from t = e^700, e^-t is 0 in doubles
    if zeta < 1.0 and log_t <= -math.log(32.0):  # sum_j x^j (j^(zeta j) - 1)/j!
        return math.fsum(x**j * math.expm1(zeta * j * math.log(j)) / math.factorial(j)
                         for j in range(2, 21))
    c, h, nodes = _line(zeta)
    step, total = complex(math.cos(h * log_t), -math.sin(h * log_t)), 0j  # t^-ih
    for a in nodes:
        total = total * step + a
    total = total.real * math.exp(-c * log_t)
    return total if zeta < 1.0 else total - math.expm1(x)


@lru_cache(maxsize=1)
def _hankel_rule() -> list[tuple[float, float, float]]:
    """u, log u and the weight times e^-u/u of ``_hankel``'s nodes: 10-point
    panels, graded by 4 towards u = 0, where x log x is singular, to e^-64."""
    edges = [0.0] + [4.0**j for j in range(-7, 0)] + [2.0**j for j in range(7)]
    return [(u, math.log(u), w * math.exp(-u) / u) for u, w in _panels(edges, 10)]


def _hankel(zeta: float, log_t: float) -> float:
    """log L(t) for large t, from the Hankel contour around the cut of E W^-z:
    L(t) = pi^-1 int_0^inf Gamma(x) sin(pi zeta x) x^(-zeta x) t^-x dx, at x = u/log t."""
    log_log_t, total = math.log(log_t), 0.0
    for u, log_u, w in _hankel_rule():
        x = u / log_t
        total += w * math.exp(math.lgamma(1.0 + x) - zeta * x * (log_u - log_log_t)) * math.sin(
            math.pi * zeta * x)
    return math.log(total / math.pi)


def log_laplace(zeta: float, log_t: float, sign: float = 1.0) -> float:
    """log L(sign t), L(t) = E exp(-t W) with W = exp(zeta X)/zeta^zeta, from
    log t; sign -1 gives log M(t), M(t) = E exp(t W), inf where M diverges or,
    at zeta < 1, passes about exp(e^40 (1 - zeta)/zeta).  zeta is positive and finite."""
    if sign < 0.0 and (zeta > 1.0 or zeta == 1.0 and log_t >= -1.0):
        return math.inf
    if zeta == 1.0:
        return -math.log1p(_lambert_w(log_t, sign))
    if sign < 0.0 and log_t > -math.log(32.0):
        return _log_moment(zeta)(log_t)
    if sign > 0.0 and log_t > _LINE_TOP * max(1.0, zeta):
        return _hankel(zeta, log_t)
    x, d = -sign * math.exp(min(log_t, 700.0)), _excess(zeta, log_t, sign)
    s = math.expm1(x) + d  # L - 1
    return math.log1p(s) if s > -0.5 else math.log(math.exp(x) + d)


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

    def integrand(v: float) -> float:
        log_t = v - log_k
        if zeta != 1.0 and v < 6.5:  # -e^-kt expm1(k log(L e^t)), L e^t = 1 + (L - e^-t) e^t
            excess = _excess(zeta, log_t) * math.exp(math.exp(log_t))
            return -math.exp(-math.exp(v)) * math.expm1(k * math.log1p(excess))
        l_k = math.exp(k * log_laplace(zeta, log_t))
        return (math.exp(-math.exp(v)) if v < 700.0 else 0.0) - l_k

    def integral(lo: float, hi: float) -> float:
        return math.fsum(w * integrand(v) for v, w in _panels([lo, hi]))

    total = integral(-1.0, 0.0)
    a = 1.0
    while -a > -40.0 - zeta * math.log(4.0):  # below, the integrand is O(4^zeta e^2v)
        total += integral(-2.0 * a, -a)
        a *= 2.0
    a = 0.0
    while True:
        part = integral(a, max(1.0, 2.0 * a))
        total += part
        a = max(1.0, 2.0 * a)
        # past 4, |integrand| = L^k falls at least as fast as (zeta/v)^k with
        # k >= 2, so the panels to come add at most this one's integral
        if a > 4.0 and abs(part) <= _TAIL_TOL * zeta:
            return total / zeta
