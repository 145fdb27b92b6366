"""Maximally skewed 1-stable law G(x;0) and related samplers.

G(x;0) is the alpha=1 stable law with characteristic function
exp(-pi*|theta|/2 + i*theta*log|theta|); the moments of exp(X) are k^k.
Sampling follows the Chambers-Mallows-Stuck alpha=1 transform with the
skew sign and scale/location constants fixed empirically against the
k^k moment identity (stable-law sign conventions differ between
references, so the moment check, not a convention, is authoritative).
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .sketchfile import Record

HALF_PI = math.pi / 2
_INV_2_64 = 2.0**-64
# the largest double below 1, where the open-unit map (word + 0.5) * 2^-64
# puts word 2^64 - 2^11; the words above it, which would round to 1.0, go there too
_BELOW_ONE = 1.0 - 2.0**-53
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
    """cms_transform specialized to G(x;0), with cos u; ``_g0`` is its numpy form.

    The sketch's variates (``hashing``) write cos u as 1/sqrt(1 + tan^2 u)
    instead, which moves a variate only in its last bits."""
    return (HALF_PI - u) * math.tan(u) + math.log(w * math.cos(u) / (HALF_PI - u))


def _worker_count() -> int:
    """The CPUs this process may run on: the thread count of the parallel paths."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_pinned(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, with call i on a thread of its own
    pinned to allowed CPU i mod n, where n is the number of CPUs this
    process may run on.

    A lone call runs on the calling thread.  Left to the scheduler, two
    threads started together often shared one CPU for a whole ingest.
    Each thread pins only itself (``os.sched_setaffinity(0, ...)`` acts
    on the calling thread), so the caller's affinity is unchanged; where
    pinning is missing or refused, the thread runs unpinned.  Every
    thread is joined before the exception of a call, if any, is raised.
    """
    calls = list(zip(*iterables))
    if len(calls) == 1:
        return [fn(*calls[0])]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    results: list = [None] * len(calls)
    errors: list = [None] * len(calls)

    def call(i):
        if cpus:
            try:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            except OSError:
                pass
        try:
            results[i] = fn(*calls[i])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _open_unit(words: np.ndarray) -> np.ndarray:
    """min((float(words) + 0.5) * 2^-64, 1 - 2^-53): every word maps into (0, 1)."""
    return np.minimum((words.astype(np.float64) + 0.5) * _INV_2_64, _BELOW_ONE)


def _words(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def _draw_uniform_exp(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (u, w): the first n words give the u, the next n the w."""
    return _uniform_exp(_open_unit(_words(rng, n)), _open_unit(_words(rng, n)))


def _uniform_exp(u01: np.ndarray, w01: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.pi * (u01 - 0.5), -np.log(w01)


def _g0(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (HALF_PI - u) * np.tan(u) + np.log(w * np.cos(u) / (HALF_PI - u))


def sample_g0(rng: np.random.Generator, size: int | None = None):
    """Sample from G(x;0) using an explicit generator state.

    Identical generator state gives identical output.  For reproducible
    Monte Carlo across worker counts pass a counter-based generator,
    e.g. np.random.Generator(np.random.Philox(key=(seed, stream))).
    The first n words drawn give the u of the n samples and the next n
    their w, and no sample draws more.  ``_open_unit`` clamps the words
    that would round to 1.0 (those >= 2^64 - 2^10, probability 2^-54
    each) to 1 - 2^-53, so every word gives a finite sample.
    """
    n = 1 if size is None else int(size)
    y = _g0(*_draw_uniform_exp(rng, n))
    return float(y[0]) if size is None else y


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
        yield _g0(*_uniform_exp(_open_unit(_words(u_rng, m)), _open_unit(_words(w_rng, m))))


def _philox_at(key, offset: int) -> np.random.Generator:
    """A Philox generator that has already drawn ``offset`` words."""
    bitgen = np.random.Philox(key=key)
    bitgen.advance(offset // 4)  # one counter step makes four words
    rng = np.random.Generator(bitgen)
    _words(rng, offset % 4)
    return rng


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
