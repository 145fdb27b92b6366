"""The v1 sketch file and the integer merge rule, in the standard library only.

A sketch is its config, k projections and the stream total.  Each value
is kept as an integer count of ``QUANTUM`` = 2^-16 below 2^53 in
magnitude, so it is an exact double.  ``SketchFile`` holds those
integers in Python ints, as loaded from a file; ``sketch.EntropySketch``
holds them in numpy int64 for ingest and delegates its loading, encoding
and merge checks here, so each check exists once.  ``entrosketch
estimate`` and ``entrosketch merge`` load sketches through this module
alone and import no numpy.

Binary format (little endian): magic b"ESKV", version u16, k u64,
zeta f64, master_seed u64, total f64, then k f64 projections.  All
stored values are exact multiples of 2^-16, so the round trip is
bit-exact.  ``from_bytes`` and ``from_json`` raise ValueError on a value
that is not finite or not below 2^37 in magnitude, and round a value off
that grid to the nearest multiple.

Merge adds the integers.  Integer addition is exact, associative and
invertible, so a merge equals the single-pass sketch bit for bit; a sum
that reaches 2^53 raises OverflowError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

MAGIC = b"ESKV"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHQdQd")

QUANTUM_BITS = 16
QUANTUM = 2.0**-QUANTUM_BITS
SCALE = 2.0**QUANTUM_BITS
LIMIT = 1 << 53  # beyond this, integer counts are no longer exact doubles
OVERFLOW = "projection accumulator left the exact-double range"


@dataclass(frozen=True)
class SketchConfig:
    k: int
    zeta: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 < self.zeta < math.inf:
            raise ValueError("zeta must be positive and finite")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must fit in 64 bits")


def check_mergeable(a: SketchConfig, b: SketchConfig) -> None:
    """Raise ValueError unless sketches of configs a and b can be merged."""
    if a != b:
        raise ValueError("cannot merge sketches with different configs")


def check_exact(peak: int, total: int) -> None:
    """Raise OverflowError unless the largest |projection| and |total|,
    in units of ``QUANTUM``, are below 2^53."""
    if peak >= LIMIT or abs(total) >= LIMIT:
        raise OverflowError(OVERFLOW)


def _number(value) -> float:
    """A JSON number as a float; TypeError for anything else (bools too)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class SketchFile:
    """A loaded sketch: config, projections and total in units of ``QUANTUM``."""

    config: SketchConfig
    scaled: tuple[int, ...]
    scaled_total: int

    @property
    def total(self) -> float:
        return self.scaled_total * QUANTUM

    @property
    def projections(self) -> list[float]:
        return [s * QUANTUM for s in self.scaled]

    def normalized(self) -> list[float]:
        """y_l = projections[l]/total, the estimator's input."""
        total = self.total
        if not total > 0.0:
            raise ValueError("total must be positive to normalize")
        return [s * QUANTUM / total for s in self.scaled]

    def merge(self, other: SketchFile) -> SketchFile:
        check_mergeable(self.config, other.config)
        scaled = tuple(a + b for a, b in zip(self.scaled, other.scaled))
        total = self.scaled_total + other.scaled_total
        check_exact(max(map(abs, scaled)), total)
        return SketchFile(self.config, scaled, total)

    def to_bytes(self) -> bytes:
        config = self.config
        header = HEADER.pack(
            MAGIC, FORMAT_VERSION, config.k, config.zeta, config.master_seed, self.total
        )
        return header + struct.pack(f"<{config.k}d", *self.projections)

    @classmethod
    def from_bytes(cls, data: bytes) -> SketchFile:
        if len(data) < HEADER.size:
            raise ValueError("truncated sketch: header incomplete")
        magic, version, k, zeta, seed, total = HEADER.unpack_from(data)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        expected = HEADER.size + 8 * k
        if len(data) != expected:
            raise ValueError(f"sketch length {len(data)} != expected {expected}")
        config = SketchConfig(k=k, zeta=zeta, master_seed=seed)
        return cls._from_values(config, struct.unpack_from(f"<{k}d", data, HEADER.size), total)

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "k": self.config.k,
                "zeta": self.config.zeta,
                "master_seed": self.config.master_seed,
                "total": self.total,
                "projections": self.projections,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> SketchFile:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("sketch document must be a JSON object")
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported format version")
        try:
            config = SketchConfig(
                k=int(obj["k"]),
                zeta=float(obj["zeta"]),
                master_seed=int(obj["master_seed"]),
            )
            projections = [_number(v) for v in obj["projections"]]
            total = _number(obj["total"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed sketch document: {exc!r}") from exc
        if len(projections) != config.k:
            raise ValueError("projections length does not match k")
        return cls._from_values(config, projections, total)

    @classmethod
    def _from_values(cls, config: SketchConfig, projections, total: float) -> SketchFile:
        # stored values must be finite and below the exact-double limit,
        # checked before any conversion to int; off-grid values round to
        # the quantum (half to even, as numpy's rint)
        values = [v * SCALE for v in projections]
        values.append(total * SCALE)
        if not all(map(math.isfinite, values)):
            raise ValueError("sketch values must be finite")
        if not all(abs(v) < LIMIT for v in values):
            raise ValueError("sketch values must be below 2^37 in magnitude")
        scaled = tuple(map(round, values))
        return cls(config, scaled[:-1], scaled[-1])
