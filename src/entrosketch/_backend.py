"""Names of the variate layer that the benchmark's per-layer probes time.

There is one variate implementation, numpy's, in ``hashing``; the sketch
calls it directly.  ``variates(key, k)`` is one item's k variates and
``accumulate(scaled, key, delta)`` adds ``rint(v * delta * 2^16)`` to a
fixed-point sketch.
"""

from .hashing import accumulate_np as accumulate
from .hashing import variates_np as variates

__all__ = ["accumulate", "variates"]
