"""Monte Carlo samples of the maximally skewed 1-stable law G(x;0), and
the pinned threads of the parallel ingest.

G(x;0) is the alpha=1 stable law with characteristic function
exp(-pi*|theta|/2 + i*theta*log|theta|); the moments of exp(X) are k^k.
A sample takes two Philox words, maps each into (0, 1) with
``hashing._open_unit_into`` and runs ``hashing._g0_from_units``, the
float tail of every sketch variate: one formula serves the sketch and
Monte Carlo.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .hashing import _g0_from_units, _open_unit_into


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


def _words(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def _g0_of_words(u_words: np.ndarray, w_words: np.ndarray) -> np.ndarray:
    """G(x;0) samples whose u come from ``u_words`` and w from ``w_words``,
    one word of each per sample, through the sketch's open-unit map and
    float tail."""
    tmp = np.empty_like(u_words)
    a, b, c, out = (np.empty(u_words.shape) for _ in range(4))
    _open_unit_into(u_words, tmp, a)
    _open_unit_into(w_words, tmp, b)
    _g0_from_units(a, b, c, out)
    return out


def sample_g0(rng: np.random.Generator, size: int | None = None):
    """Sample from G(x;0) using an explicit generator state.

    Identical generator state gives identical output.  For reproducible
    Monte Carlo across worker counts pass a counter-based generator,
    e.g. np.random.Generator(np.random.Philox(key=(seed, stream))).
    The first n words drawn give the u of the n samples and the next n
    their w, and no sample draws more.  The open-unit map clamps the words
    that would round to 1.0 (those >= 2^64 - 2^10, probability 2^-54
    each) to 1 - 2^-53, so every word gives a finite sample.
    """
    n = 1 if size is None else int(size)
    y = _g0_of_words(_words(rng, n), _words(rng, n))
    return float(y[0]) if size is None else y

