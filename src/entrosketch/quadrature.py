"""The transform L(t) = E exp(-t W) of W = exp(zeta X)/zeta^zeta, X ~ G(x;0),
for both signs of t, and the bias correction of the log-mean by
quadrature over it, in pure Python.

``log_laplace`` is the package's one L: the bias correction integrates
L(t), and ``tailbounds`` maximises -log L(t) - t exp(-zeta eps) and
-log M(t) + t exp(zeta eps), M(t) = L(-t) = E exp(t W), for the left and
right Chernoff tails.  M is finite for every t at zeta < 1 (but taken as
inf past ``moment_top``), for t < 1/e at zeta = 1, and for no t > 0 above.
Everything here rests on the paper's moments, E W^s = s^(zeta s).

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
* M(t) at zeta < 1 and t > 1/32 is the same moment series, sum_j f(j)
  with f(x) = t^x x^(zeta x)/Gamma(1 + x), which the Abel-Plana formula
  (F. W. J. Olver, Asymptotics and Special Functions, 1974, ch. 8 sec. 3)
  turns, from j = 1, into two 1-D integrals:  M(t) = 1 + t/2 + int_1^inf
  f(x) dx - 2 int_0^inf Im f(1 + iy)/(e^(2 pi y) - 1) dy.  From j = 1,
  neither integrand meets x log x's branch point at 0.  The x-integral is
  summed in log space over 10-point Gauss-Legendre panels, out from f's
  peak x* = (e^zeta t)^(1/(1 - zeta)), about, three peak widths (x/(1 -
  zeta))^(1/2) wide, to e^-36 of the largest.  The y-integral needs
  Gamma(2 + iy) only at fixed nodes, from the line's Stirling series.
  Against 30-digit mpmath, log M is within 3e-13 relative wherever it is
  finite, in 0.06-0.2 ms per t.  From x* = e^33 on (``moment_top``), where
  log f's terms at the peak, near x* log x*, round by about 1 and doubles
  no longer place the peak, M is taken as inf.

BC(k, zeta) = zeta^-1 E log(mean of k W's) = -zeta^-1 int D dv over all
real v, D(v) = L(e^v/k)^k - exp(-e^v), from log m = int (e^-t - e^-tm) dt/t,
t = e^v; and Var(log of the mean) = 2 int v D dv + 2 gamma int D dv - (int D
dv)^2, gamma Euler's constant (``bench``'s MSE curve is it over zeta^2).
At zeta != 1 and v < 6.5, D is exp(-e^v) expm1(k log1p((L - e^-t) e^t)): it
keeps its digits as zeta -> 0, where BC scales rounding by 1/zeta.  Both
come from one walk, ``_moment_parts``, over Gauss-Legendre panels that double
outward from 0; its docstring says where it stops.  BC takes 8 nodes a panel
and the variance 16.

At zeta = 1 and k from 2 to 2217, BC is within 1.4e-10 of the digamma
identity BC(k, 1) = psi(k-1) - log k + int_0^inf [(1+w) e^(-k w e^w) -
e^(-k w)] dw/w, in about 0.3 ms.  At zeta != 1 it takes 3-9 ms from k = 5
on, and 20 ms at k = 2, whose panels run to v near 5e9 zeta.  Every result
tried, for zeta from 0.05 to 200, was within 1.5 standard errors of Monte
Carlo; BC(2, zeta) levels off at -0.45158 below zeta = 1e-6.  BC(1, zeta) =
-inf (E X = -inf), so BC refuses k = 1; both first ask the one rule,
``sketchfile.asymptotic_std_error`` ("zeta=<repr> has no finite positive
asymptotic standard error at k=<k>").  Results are cached per (k, zeta),
logged at INFO.  The variance is inf at k <= 2 and, at zeta = 1, within
5e-11 relative of 30-digit mpmath at k = 3 and 20, in under 1 ms; at
zeta != 1 it takes 1.5-7 ms from k = 5 on and about 17 ms at k = 3.  The
estimate path never runs it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .sketchfile import asymptotic_std_error

_NODES = 8  # Gauss-Legendre nodes per panel
_EULER_GAMMA = 0.5772156649015329
_TAIL_TOL = 1e-10  # where ``_moment_parts`` stops, times zeta
_LINE_STEP = 0.07  # the Mellin-Barnes line's trapezoid step in Im z, over max(1, zeta)
_LINE_TOP = 8.0  # the line's top in log t, times max(1, zeta); the Hankel contour above
_PEAK_STEP = 3.0  # the width of M's x-panels, over the width of f's peak
_PEAK_TOP = 33.0  # M is inf once f's peak passes x* = e^33, where x* log x* = 0.79 2^53
# B_2n/(2n (2n - 1)), n = 8 down to 1: Stirling's series for log Gamma
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360,
             1 / 12)


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


def _gamma(z: complex) -> complex:
    """Gamma(z) = Gamma(z + 10)/(z (z + 1) ... (z + 9)), Stirling's series at z + 10."""
    import cmath  # only zeta != 1 reaches here

    w, p, series = z + 10.0, z, 0j
    for i in range(1, 10):
        p *= z + i
    for b in _STIRLING:
        series = series / (w * w) + b
    return cmath.exp((w - 0.5) * cmath.log(w) - w + series / w) * math.sqrt(2.0 * math.pi) / p


@lru_cache(maxsize=16)
def _line(zeta: float):
    """c, h and the trapezoid nodes of the Mellin-Barnes line Re z = c, highest
    first: (h/pi) Gamma(z_j) (E W^-z_j - 1) with z_j = c + i j h, halved at j = 0;
    at zeta >= 1 the nodes keep E W^-z_j whole, and their sum is L - 1."""
    import cmath

    c, h = -0.5 / max(1.0, zeta), _LINE_STEP / max(1.0, zeta)
    nodes = []
    while not nodes or abs(nodes[-1]) > 1e-16 * abs(nodes[0]):
        z = complex(c, len(nodes) * h)
        node = _gamma(z)
        q = -zeta * z * cmath.log(-z)  # E W^-z = (-z)^(-zeta z), the paper's moments
        if zeta < 1.0:  # expm1(q): O(zeta) as zeta -> 0, so L - e^-t keeps its digits
            em = math.expm1(q.real)
            node *= complex(em * math.cos(q.imag) - 2.0 * math.sin(q.imag / 2.0) ** 2,
                            (em + 1.0) * math.sin(q.imag))
        else:
            node *= cmath.exp(q)
        nodes.append(node * h / (math.pi if nodes else 2.0 * math.pi))
    return c, h, nodes[::-1]


@lru_cache(maxsize=1)
def _plana_rule() -> list[tuple[float, float, float, float, float]]:
    """y, u, v, p and w at the nodes of ``_abel_plana``'s y-integral: zeta (1 + iy)
    log(1 + iy) = zeta (u + iv), p = -arg Gamma(2 + iy), and w is the weight times
    2/(|Gamma(2 + iy)| (e^(2 pi y) - 1)).  8-point panels to y = 9, where the
    integrand is below e^-40 of its start."""
    import cmath

    rule = []
    for y, w in _panels([0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 5.0, 7.0, 9.0]):
        log_z, g = cmath.log(complex(1.0, y)), _gamma(complex(2.0, y))
        rule.append((y, log_z.real - y * log_z.imag, y * log_z.real + log_z.imag, -cmath.phase(g),
                     2.0 * w / (abs(g) * math.expm1(2.0 * math.pi * y))))
    return rule


def _abel_plana(zeta: float, log_t: float) -> float:
    """log M(t) at zeta < 1 from log t, by the Abel-Plana formula from j = 1:
    M = 1 + t/2 + int_1^inf f(x) dx - 2 int_0^inf Im f(1 + iy)/(e^(2 pi y) - 1) dy,
    f(x) = t^x x^(zeta x)/Gamma(1 + x)."""
    peak = max(1.0, math.exp((log_t + zeta) / (1.0 - zeta)))  # x* = (e^zeta t)^(1/(1 - zeta))
    nodes, top = [], -math.inf
    for sign in (1.0, -1.0):  # out from the peak, to e^-36 of the largest node
        a = peak
        while sign > 0.0 or a > 1.0:
            # _PEAK_STEP peak widths (x/(1 - zeta))^1/2, but no wider than the panel's
            # lower end is far from x log x's branch point at 0
            step = _PEAK_STEP * math.sqrt(a / (1.0 - zeta))
            b = a + min(step, a) if sign > 0.0 else max(1.0, a - step, a / 2.0)
            panel = [(x * log_t + zeta * x * math.log(x) - math.lgamma(1.0 + x), w)
                     for x, w in _panels(sorted((a, b)), 10)]
            nodes += panel
            high = max(v for v, _ in panel)
            top = max(top, high)
            # f falls beyond x*; below it, f(1) = t may be larger than the panel
            if max(high, log_t if sign < 0.0 else -math.inf) < top - 36.0:
                break
            a = b
    log_i1 = top + math.log(math.fsum(w * math.exp(v - top) for v, w in nodes))
    if log_i1 > 700.0:  # 1 + t/2 and the y-integral, O(t), are below its rounding
        return log_i1
    t = math.exp(log_t)
    y_integral = t * math.fsum(w * math.exp(zeta * u) * math.sin(y * log_t + zeta * v + p)
                               for y, u, v, p, w in _plana_rule())
    return math.log1p(0.5 * t + math.exp(log_i1) - y_integral)


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


def moment_top(zeta: float) -> float:
    """The log t from which M(t) = E exp(t W) is taken as inf: -inf above zeta = 1,
    -1 (t = 1/e, where M diverges) at 1, and below 1 where f's peak x* passes e^33."""
    if zeta >= 1.0:
        return -1.0 if zeta == 1.0 else -math.inf
    return (1.0 - zeta) * _PEAK_TOP - zeta


def log_laplace(zeta: float, log_t: float, sign: float = 1.0) -> float:
    """log L(sign t), L(t) = E exp(-t W) with W = exp(zeta X)/zeta^zeta, from
    log t; sign -1 gives log M(t), M(t) = E exp(t W), inf from log t =
    ``moment_top(zeta)`` on.  zeta is positive and finite."""
    if sign < 0.0 and log_t >= moment_top(zeta):
        return math.inf
    if zeta == 1.0:
        return -math.log1p(_lambert_w(log_t, sign))
    if sign < 0.0 and log_t > -math.log(32.0):
        return _abel_plana(zeta, log_t)
    if sign > 0.0 and log_t > _LINE_TOP * max(1.0, zeta):
        return _hankel(zeta, log_t)
    x, d = -sign * math.exp(min(log_t, 700.0)), _excess(zeta, log_t, sign)
    s = math.expm1(x) + d  # L - 1
    if s <= -0.5:
        return math.log(math.exp(x) + d)
    # where 1 - L is near its rounding (zeta = 50, small t), L may round above 1
    return math.log1p(s) if sign < 0.0 else min(math.log1p(s), 0.0)


def _log_mean_gap(v: float, k: int, zeta: float) -> float:
    """D(v) = L(e^v/k)^k - exp(-e^v), the v-integrand of E log and E log^2 of
    the mean of k W's.  At zeta != 1 and v < 6.5 it is exp(-e^v) expm1(k
    log1p((L - e^-t) e^t)), t = e^v/k, which keeps its digits as zeta -> 0."""
    log_t = v - math.log(k)
    if zeta != 1.0 and v < 6.5:
        excess = _excess(zeta, log_t) * math.exp(math.exp(log_t))
        return math.exp(-math.exp(v)) * math.expm1(k * math.log1p(excess))
    l_k = math.exp(k * log_laplace(zeta, log_t))
    return l_k - (math.exp(-math.exp(v)) if v < 700.0 else 0.0)


def _moment_parts(k: int, zeta: float, nodes: int, powers: tuple[int, ...]):
    """For each v-panel in turn, int v^j D(v) dv for each j in ``powers``, by
    ``nodes``-point Gauss-Legendre.  The panels double from 0 down to
    -40 - zeta log 4, where D is O(4^zeta e^2v), then from 0 up.  Above 0, D
    tends to L^k, which falls only as (zeta/v)^k (X's left tail is heavy): past
    v = 4 a part shrinks by at least 2^(j + 1 - k) a panel, so at j <= k - 2 the
    panels to come add at most the last one's part.  The walk stops once a
    panel ends past 4 with every part below 1e-10 zeta."""
    parts, lo, hi = [], -1.0, 0.0
    while True:
        weighted = [(v, w * _log_mean_gap(v, k, zeta)) for v, w in _panels([lo, hi], nodes)]
        parts.append(tuple(math.fsum(v**j * d for v, d in weighted) for j in powers))
        if lo < 0.0:
            lo, hi = (2.0 * lo, lo) if lo > -40.0 - zeta * math.log(4.0) else (0.0, 1.0)
        elif hi > 4.0 and all(abs(p) <= _TAIL_TOL * zeta for p in parts[-1]):
            return parts
        else:
            lo, hi = hi, 2.0 * hi


@lru_cache(maxsize=64, typed=True)  # typed: k=3.0 or True must not hit the entry of 3 or 1
def bias_correction(k: int, zeta: float) -> float:
    """BC(k, zeta) = -zeta^-1 int D dv by quadrature, at k >= 2 and a zeta
    that ``asymptotic_std_error`` accepts."""
    asymptotic_std_error(k, zeta)
    if k < 2:
        raise ValueError("k=1 has no finite bias correction (it is -inf); "
                         "use k >= 2 or no correction")
    # a process that never imported logging has no handler that could show
    # this, and importing it would start threading
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(__name__).info(
            "bias correction by quadrature: k=%d, zeta=%r", k, zeta
        )
    total = 0.0
    for (part,) in _moment_parts(k, zeta, _NODES, (0,)):
        total += part  # in panel order: builtin sum() compensates from Python 3.12
    return -total / zeta


@lru_cache(maxsize=64, typed=True)
def log_mean_variance(k: int, zeta: float) -> float:
    """Var(log Ybar), Ybar the mean of k W's, by quadrature: inf at k <= 2.

    E log Ybar = -int D dv and E log^2 Ybar = 2 int v D dv + 2 gamma int D dv,
    gamma Euler's constant, on 16-node panels: at 8, v D lost up to 8e-9
    relative (k = 20, zeta = 1).  int v D dv diverges at k <= 2, and at k = 3
    its panels run to near v = 2e10, where BC's stop near 1e5.
    """
    asymptotic_std_error(k, zeta)
    if k <= 2:
        return math.inf
    d, vd = map(math.fsum, zip(*_moment_parts(k, zeta, 16, (0, 1))))
    return 2.0 * vd + 2.0 * _EULER_GAMMA * d - d * d
