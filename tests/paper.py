"""The paper's laws and identities as the tests check them.

These are references, not program paths: the general alpha=1
Chambers-Mallows-Stuck transform and its cos-form G(x;0) special case,
the characteristic function of G(x;0), the positive stable law and the
Y_alpha variable that converges to G(x;0), the scalar (libm) reference
of a sketch variate, the alpha -> 1 limit relations of the exact
entropies, the eps -> 0 limit of the tail constants, and two checks of
the bias correction: the digamma identity at zeta = 1 and the
delta-method expansion through 1/k^3 at large k.  Last, the Monte Carlo
engine that the quadrature is checked against: ``log_mean_replicates``
draws replicates of the log-mean of k G(x;0) samples from counter-based
Philox streams, in blocks on pinned threads, and ``bias_correction``
averages them.

G(x;0) is the alpha=1 stable law with characteristic function
exp(-pi*|theta|/2 + i*theta*log|theta|); the moments of exp(X) are k^k.
The skew sign and scale/location constants below were fixed empirically
against that moment identity (stable-law sign conventions differ between
references, so the moment check, not a convention, is authoritative).

The open-unit references read ``hashing._INV_2_64`` and
``hashing._BELOW_ONE`` at call time, so a test that patches the scale
moves them together with the package's map.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from entrosketch import hashing
from entrosketch.hashing import GOLDEN, HALF_PI, MASK64, mix64
from entrosketch.oracle import AccumulationVector, exact_entropies
from entrosketch.sketch import _map_pinned, _worker_count
from entrosketch.sketchfile import Record
from entrosketch.stable import _g0_of_words, _words

# the smallest positive u + pi/2 of any word, from word 512 on; words 0-511
# give u = -pi/2 exactly, so sample_positive_stable clamps their U up to it
_U_MIN = 2.0**-52

# G(x;0) in the four-parameter convention used throughout this package:
# cf = exp(gamma*(-|th| - i*th*beta*(2/pi)*log|th|) + i*delta*th)
G0_ALPHA = 1.0
G0_BETA = -1.0
G0_GAMMA = HALF_PI
G0_DELTA = 0.0


class StableParams(Record):
    __slots__ = ("alpha", "beta", "gamma", "delta")

    def _validate(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [-1, 1]")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")


G0_PARAMS = StableParams(G0_ALPHA, G0_BETA, G0_GAMMA, G0_DELTA)


class UniformExpPair(Record):
    """One (uniform on (-pi/2, pi/2), standard exponential) input pair."""

    __slots__ = ("u", "w")

    def _validate(self):
        if not -HALF_PI < self.u < HALF_PI:
            raise ValueError("u must lie strictly inside (-pi/2, pi/2)")
        if not self.w > 0.0:
            raise ValueError("w must be positive")


def cms_transform(pair: UniformExpPair, params: StableParams) -> float:
    """Chambers-Mallows-Stuck transform for the alpha=1 stable family.

    Returns one realization of the law with the given parameters.  The
    unit-scale transform is
        x = (2/pi) * [(pi/2 + beta*u) tan u
                      - beta*log((pi/2) w cos u / (pi/2 + beta*u))],
    and for scale gamma the alpha=1 scaling law drifts the location by
    -beta*(2/pi)*gamma*log(gamma), which is compensated here.
    """
    if params.alpha != 1.0:
        raise ValueError("cms_transform handles alpha=1 only")
    u, w, beta = pair.u, pair.w, params.beta
    bu = HALF_PI + beta * u
    x = (2.0 / math.pi) * (bu * math.tan(u) - beta * math.log(HALF_PI * w * math.cos(u) / bu))
    gamma = params.gamma
    return gamma * x + params.delta + beta * (2.0 / math.pi) * gamma * math.log(gamma)


def g0_from_uniform_exp(u: float, w: float) -> float:
    """cms_transform specialized to G(x;0), with cos u.

    The package's one formula (``hashing._g0_from_units``) writes cos u
    as 1/sqrt(1 + tan^2 u) instead, which moves a value only in its last
    bits."""
    return (HALF_PI - u) * math.tan(u) + math.log(w * math.cos(u) / (HALF_PI - u))


def char_fn(theta: float) -> complex:
    """Characteristic function of G(x;0): exp(-pi|th|/2 + i th log|th|).

    The th*log|th| singularity at 0 is removable; char_fn(0) == 1.
    """
    if theta == 0.0:
        return complex(1.0, 0.0)
    a = abs(theta)
    return complex(math.exp(-HALF_PI * a)) * complex(
        math.cos(theta * math.log(a)), math.sin(theta * math.log(a))
    )


def open_unit_np(words: np.ndarray) -> np.ndarray:
    """min((float(words) + 0.5) * 2^-64, 1 - 2^-53) through numpy's uint64 cast:
    the reference of ``hashing._open_unit_into``."""
    return np.minimum((words.astype(np.float64) + 0.5) * hashing._INV_2_64, hashing._BELOW_ONE)


def open_unit(word: int) -> float:
    """``open_unit_np`` of one word, in Python floats."""
    return min((word + 0.5) * hashing._INV_2_64, hashing._BELOW_ONE)


def _draw_uniform_exp(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (u, w): the first n words give the u, the next n the w."""
    u01, w01 = (open_unit_np(rng.integers(0, 2**64, size=n, dtype=np.uint64)) for _ in range(2))
    return np.pi * (u01 - 0.5), -np.log(w01)


def sample_positive_stable(alpha: float, rng: np.random.Generator, size: int | None = None):
    """Positive strictly stable Z_a, Laplace transform exp(-lambda^alpha).

    Kanter's representation: Z = (a(U)/W)^((1-alpha)/alpha) with U
    uniform on (0, pi) and W standard exponential; evaluated in log
    space because the a(U) factors overflow as alpha -> 1.  U is
    clamped to at least ``_U_MIN``, its smallest positive value, so the
    u words below 512, which give U = 0 and log sin 0, give a finite Z.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n = 1 if size is None else int(size)
    u, w = _draw_uniform_exp(rng, n)
    u = np.maximum(u + HALF_PI, _U_MIN)  # uniform on (0, pi)
    log_a = (
        np.log(np.sin((1.0 - alpha) * u))
        + (alpha / (1.0 - alpha)) * np.log(np.sin(alpha * u))
        - (1.0 / (1.0 - alpha)) * np.log(np.sin(u))
    )
    z = np.exp(((1.0 - alpha) / alpha) * (log_a - np.log(w)))
    return float(z[0]) if size is None else z


def y_alpha_transform(alpha: float, z):
    """Map a positive stable Z_a sample into the variable converging to G(x;0).

    y = (1 - z)/(1 - alpha) + log(1 - alpha), valid for alpha in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return (1.0 - z) / (1.0 - alpha) + math.log(1.0 - alpha)


def y_alpha_mgf(alpha: float, theta: float) -> float:
    """Moment generating function of the pre-limit variable Y_alpha.

    E exp(theta*Y_alpha) = (1-a)^theta * exp(-(theta/(1-a))^a + theta/(1-a));
    converges to theta^theta as alpha -> 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    r = theta / (1.0 - alpha)
    return (1.0 - alpha) ** theta * math.exp(-(r**alpha) + r)


def hash_word(key: int, n: int) -> int:
    """n-th 64-bit word of the counter-based stream keyed by ``key``."""
    return mix64((key + (n & MASK64) * GOLDEN) & MASK64)


def uniform_exp_words(key: int, row: int) -> tuple[int, int]:
    """The two hash words feeding row ``row``."""
    return hash_word(key, 2 * row), hash_word(key, 2 * row + 1)


def variate_from_key(key: int, row: int, k: int) -> float:
    """Scalar (libm) reference for row ``row`` of ``hashing.variates_np(key, k)``:
    the kernel's arithmetic, one operation at a time in its order."""
    u01, w01 = map(open_unit, uniform_exp_words(key, row))
    u = (u01 - 0.5) * math.pi
    b = math.log(w01)  # -w
    t = math.tan(u)
    c = u - HALF_PI
    return math.log(b / (math.sqrt(t * t + 1.0) * c)) - c * t


def from_probabilities(probs) -> AccumulationVector:
    """An accumulation vector with item str(j) at weight probs[j]."""
    acc = AccumulationVector()
    for j, p in enumerate(probs):
        acc.add(str(j).encode(), float(p))
    return acc


def _power_sum(probs, alpha: float) -> float:
    # p^alpha as exp(alpha*log p), skipping p = 0 terms
    return math.fsum(math.exp(alpha * math.log(p)) for p in probs if p > 0.0)


def limit_check(acc: AccumulationVector, alpha_grid) -> list[tuple[float, float, float]]:
    """Residuals of the alpha -> 1 limit relations on a grid.

    r1 = |(B-1)/(1-a) - S_a|, r2 = |log(B)/(1-a) - H_a| with
    B = (sum p^a)^(1/a); both must shrink as the grid approaches 1.
    """
    probs = acc.probabilities()
    rows = []
    for alpha in alpha_grid:
        if alpha == 1.0:
            raise ValueError("alpha grid must exclude 1")
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha grid must lie in (0,1) or (1,2)")
        _, h_alpha, s_alpha = exact_entropies(acc, alpha)
        b = _power_sum(probs, alpha) ** (1.0 / alpha)
        r1 = abs((b - 1.0) / (1.0 - alpha) - s_alpha)
        r2 = abs(math.log(b) / (1.0 - alpha) - h_alpha)
        rows.append((alpha, r1, r2))
    return rows


def small_eps_limit(zeta: float) -> float:
    """Common eps -> 0 limit of both tail constants: 2(4^zeta-1)/zeta^2."""
    return 2.0 * (4.0**zeta - 1.0) / zeta**2


def laplace_series(zeta: float, t: float) -> float:
    """L(t) = E exp(-t W), W = exp(zeta X)/zeta^zeta, by the alternating
    moment series sum_j (-t)^j j^(zeta j)/j!, summed in log space.

    The small-t reference of ``quadrature.log_laplace``: the series
    cancels as t grows, so it serves only for t well inside (0, 1/e) at
    zeta = 1 and for small t at zeta < 1.
    """
    terms = [1.0]
    j = 1
    while True:
        mag = math.exp(j * math.log(t) + zeta * j * math.log(j) - math.lgamma(j + 1))
        terms.append(-mag if j % 2 else mag)
        if j >= 5 and mag < 1e-17:
            return math.fsum(terms)
        j += 1


def m_series(zeta: float, t: float) -> float:
    """M(t) = E exp(t W) = sum_{j>=0} t^j j^(zeta j)/j! with 0^0 := 1, to
    ~1e-12 relative, for 0 <= t < 1/e at zeta = 1 and t >= 0 at zeta < 1.

    The small-t reference of ``quadrature.log_laplace(zeta, log t, -1.0)``.
    Terms are computed in log space (j^(zeta j) overflows quickly); near
    1/e at zeta = 1 it needs thousands of them, and at zeta < 1 its terms
    only start to fall near j = (e t)^(1/(1 - zeta)), so it serves only
    where that is small.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must be in (0, 1]")
    t_max = math.exp(-1.0) if zeta == 1.0 else math.inf
    if not 0.0 <= t < t_max:
        raise ValueError(f"t={t} outside [0, {t_max})")
    if t == 0.0:
        return 1.0
    log_t = math.log(t)
    terms = [1.0]
    magsum = 1.0
    j = 1
    while True:
        mag = math.exp(j * log_t + zeta * j * math.log(j) - math.lgamma(j + 1))
        terms.append(mag)
        magsum += mag
        if j >= 5 and mag < 1e-16 * magsum:
            return math.fsum(terms)
        j += 1


def bias_correction_digamma(k: int) -> float:
    """BC(k, 1) = psi(k-1) - log k + int_0^inf [(1+w) e^(-k w e^w) - e^(-k w)] dw/w.

    With L(t) = 1/(1 + W(t)) at zeta = 1, substituting t = w e^w in
    BC = int_0^inf (e^-t - L(t/k)^k) dt/t and splitting off the Frullani
    integral int [e^(-kw) - (1+w)^(1-k)] dw/w = psi(k-1) - log k leaves
    this integral, whose integrand is e^(-kw) expm1(log1p(w) - k w expm1(w))/w.
    It runs over u = k w by 24-point Gauss-Legendre panels that double
    from u = 2^-12 to 64, where e^-u is below 2e-28.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = [0.0] + [2.0**j for j in range(-12, 7)]
    total = []
    for lo, hi in zip(edges, edges[1:]):
        for x, wt in zip(nodes.tolist(), weights.tolist()):
            u = (lo + hi) / 2 + (hi - lo) / 2 * x
            w = u / k
            f = math.exp(-u) * math.expm1(math.log1p(w) - u * math.expm1(w)) / u
            total.append((hi - lo) / 2 * wt * f)
    psi = -0.57721566490153286 + math.fsum(1.0 / j for j in range(1, k - 1))
    return psi - math.log(k) + math.fsum(total)


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


def sample_g0_slices(key, size: int, start: int, stop: int, step: int):
    """Samples [start, stop) of ``sample_g0(Generator(Philox(key=key)), size)``,
    yielded at most ``step`` at a time, without drawing the ones before
    ``start``.  Sample i reads only words i and size + i, clamped into
    (0, 1) as in ``sample_g0``, so every slice equals the whole draw's.
    """
    u_rng = _philox_at(key, start)
    w_rng = _philox_at(key, size + start)
    for lo in range(start, stop, step):
        m = min(step, stop - lo)
        yield _g0_of_words(_words(u_rng, m), _words(w_rng, m))


def _philox_at(key, offset: int) -> np.random.Generator:
    """A Philox generator that has already drawn ``offset`` words."""
    bitgen = np.random.Philox(key=key)
    bitgen.advance(offset // 4)  # one counter step makes four words
    rng = np.random.Generator(bitgen)
    _words(rng, offset % 4)
    return rng


# Monte Carlo chunks hold max(1, min(reps, _CHUNK_SAMPLES // k)) replicates
# and chunk i is drawn from Philox(key=[seed, i]): this defines every MC value
_CHUNK_SAMPLES = 8_000_000
# samples per Monte Carlo block, so that a block's temporaries stay in cache;
# 2^14 was the fastest of 2^12..2^18 in a fresh estimate process
_BLOCK_SAMPLES = 1 << 14


class BiasEstimate(Record):
    __slots__ = ("value", "std_error", "reps")


def _log_means(z: np.ndarray, zeta: float) -> np.ndarray:
    """Row-wise zeta^-1 log(zeta^-zeta k^-1 sum exp(zeta z)) of a (rows, k)
    array, each row through a max-shifted log-sum-exp."""
    v = zeta * z
    m = v.max(axis=1)
    return (m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta)


def _fill_rows(out, key, n: int, k: int, zeta: float, shift: float, rows: int, a: int, b: int):
    """out[a:b] = log-means of rows [a, b) of the chunk's n x k samples
    plus ``shift``, ``rows`` rows at a time."""
    for r0, z in zip(range(a, b, rows), sample_g0_slices(key, n * k, a * k, b * k, rows * k)):
        out[r0 : r0 + len(z) // k] = _log_means(z.reshape(-1, k) + shift, zeta)


def log_mean_replicates(
    k: int, zeta: float, reps: int, seed: int, shift: float = 0.0
) -> np.ndarray:
    """``reps`` replicates of the log-mean of k G(z;0) samples plus ``shift``.

    The chunk partition defines the stream: replicates come in chunks of
    ``max(1, min(reps, _CHUNK_SAMPLES // k))``, and chunk i is the
    ``sample_g0`` draw of its n*k samples from the counter-based
    ``Philox(key=[seed, i])`` (the key as two uint64 words, so every
    seed in [0, 2^64) has its own streams), one replicate per k
    consecutive samples.  Each chunk is computed in blocks of about
    ``_BLOCK_SAMPLES`` samples, split across the CPUs this process may run
    on, one thread pinned to each (``sketch._map_pinned``).  ``sample_g0``
    clamps a word that would map to 1.0 to 1 - 2^-53 instead of drawing
    more, so each sample depends only on its own two words, and block size
    and worker count do not change the result, bit for bit.
    """
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be >= 1")
    chunk = max(1, min(reps, _CHUNK_SAMPLES // k))
    rows = max(1, _BLOCK_SAMPLES // k)
    workers = min(_worker_count(), -(-chunk // rows))
    values = np.empty(reps, dtype=np.float64)
    for chunk_idx, start in enumerate(range(0, reps, chunk)):
        n = min(chunk, reps - start)
        key = np.array([seed, chunk_idx], dtype=np.uint64)
        out = values[start : start + n]
        blocks = -(-n // rows)
        parts = min(workers, blocks)
        cuts = [min(n, blocks * i // parts * rows) for i in range(parts + 1)]
        _map_pinned(partial(_fill_rows, out, key, n, k, zeta, shift, rows), cuts[:-1], cuts[1:])
    return values


def bias_correction(k: int, zeta: float, reps: int = 500_000, seed: int = 0) -> BiasEstimate:
    """Monte Carlo BC: mean over replicates of the log-mean of k pure
    G(z;0) samples, with its standard error (sample sd / sqrt(reps)).
    The replicates are ``log_mean_replicates(k, zeta, reps, seed)``."""
    values = log_mean_replicates(k, zeta, reps, seed)
    value = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return BiasEstimate(value=value, std_error=se, reps=reps)
