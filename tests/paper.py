"""The paper's laws and identities as the tests check them.

These are references, not program paths: the general alpha=1
Chambers-Mallows-Stuck transform and its cos-form G(x;0) special case,
the characteristic function of G(x;0), the positive stable law and the
Y_alpha variable that converges to G(x;0), the scalar (libm) reference
of a sketch variate, the alpha -> 1 limit relations of the exact
entropies, and the eps -> 0 limit of the tail constants.

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

import numpy as np

from entrosketch import hashing
from entrosketch.hashing import GOLDEN, HALF_PI, MASK64, mix64
from entrosketch.oracle import AccumulationVector, _power_sum, exact_entropies
from entrosketch.sketchfile import Record

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
