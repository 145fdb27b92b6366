"""Select the compiled kernel when available, numpy fallback otherwise.

Set ENTROSKETCH_FORCE_PYTHON=1 to force the fallback (used by the
backend parity tests and the benchmark).

Entry points: ``variates(key, k)`` for one item, ``variates_many(keys, k)``
for a batch (shape (len(keys), k)) and ``accumulate(scaled, key, delta)``.
``EntropySketch.update`` uses ``variates``; ``EntropySketch.update_many``,
the batch entry point behind ``sketch_stream`` and ``entrosketch ingest``,
calls ``variates_many`` once per group of distinct keys, so its cost
scales with the distinct items per block of the stream.  The compiled
``variates_many`` calls the kernel once per key, so a batch keeps the
compiled bits.
"""

from __future__ import annotations

import os

import numpy as np

from . import hashing

if os.environ.get("ENTROSKETCH_FORCE_PYTHON") == "1":
    _kernel = None
else:
    try:
        from . import _kernel  # type: ignore[attr-defined]
    except ImportError:
        _kernel = None

if _kernel is not None:
    BACKEND = "compiled"
    variates = _kernel.variates
    accumulate = _kernel.accumulate

    def variates_many(keys, k: int) -> np.ndarray:
        out = np.empty((len(keys), k), dtype=np.float64)
        for i, key in enumerate(keys):
            out[i] = _kernel.variates(key, k)
        return out

else:
    BACKEND = "python"
    variates = hashing.variates_np
    variates_many = hashing.variates_many_np
    accumulate = hashing.accumulate_np
