"""The sketch value: the v1 file, merge, normalize and equality, in the standard library only.

A sketch is its config, k projections and the stream total.  Each value
is kept as an integer count of ``QUANTUM`` = 2^-16 below 2^53 in
magnitude, so it is an exact double.  ``SketchFile`` holds those
integers in Python ints and is the one sketch value type: what is
merged, estimated and stored.  ``sketch.EntropySketch`` is the ingest
accumulator that produces one; its read-side methods convert to a
``SketchFile`` and run the rules here, so each rule and check exists
once.  ``entrosketch estimate`` and ``entrosketch merge`` load sketches
through this module alone and import no numpy.  Since every read path
loads it, it also holds ``Record``, the frozen-record base of the
package's value classes, which keeps ``dataclasses`` off those paths.

Binary format (little endian): magic b"ESKV", version u16, k u64,
zeta f64, master_seed u64, total f64, then k f64 projections.  All
stored values are exact multiples of 2^-16, so the round trip is
bit-exact.  ``from_bytes`` and ``from_json`` raise ValueError on a value
that is not finite or not below 2^37 in magnitude, and round a value off
that grid to the nearest multiple.  ``from_json`` coerces no type: a
version, k or master_seed that is not a JSON integer, or a zeta, total
or projection that is not a JSON number, raises ValueError, as does a
bool anywhere.  ``SketchConfig`` refuses a zeta without a finite
positive asymptotic standard error (``asymptotic_std_error``, the one
rule), so no sketch holds a zeta that no estimate can use.

Merge adds the integers.  Integer addition is exact, associative and
invertible, so a merge equals the single-pass sketch bit for bit; a sum
that reaches 2^53 raises OverflowError.  That limit is the constructor's:
``SketchFile`` holds no value that its loaders would refuse.
"""

from __future__ import annotations

import math
import struct

MAGIC = b"ESKV"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sHQdQd")

QUANTUM_BITS = 16
QUANTUM = 2.0**-QUANTUM_BITS
SCALE = 2.0**QUANTUM_BITS
LIMIT = 1 << 53  # beyond this, integer counts are no longer exact doubles
OVERFLOW = "projection accumulator left the exact-double range"


class Record:
    """Base of the package's small frozen value records, in place of
    ``dataclasses`` (whose import, with ``inspect``, costs a read-path
    process about 12 ms).

    A subclass names its fields in ``__slots__``, in constructor order,
    and gives the defaults of trailing fields in ``_defaults``.  Fields
    are set by position or keyword, then ``_validate`` runs.  Records
    compare and hash by their field values, equal only to a record of
    the same class; the repr is ``Name(field=value, ...)``; assigning or
    deleting a field raises AttributeError.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self.__slots__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not given.keys().isdisjoint(kwargs) or (
            not set(kwargs) <= set(fields)
        ):
            raise TypeError(f"{name}() takes the fields {', '.join(fields)}, each at most once")
        values = {**self._defaults, **given, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing {', '.join(missing)}")
        for field in fields:
            object.__setattr__(self, field, values[field])
        self._validate()

    def _validate(self) -> None:
        """Raise if the field values are invalid; called by ``__init__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ leaves the only way in
        return type(self), self._values()


class SketchConfig(Record):
    __slots__ = ("k", "zeta", "master_seed")
    _defaults = {"zeta": 1.0, "master_seed": 0}

    def _validate(self):
        if not _is_int(self.k) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not _is_number(self.zeta):
            raise ValueError("zeta must be a number")
        asymptotic_std_error(self.k, self.zeta)
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be an integer that fits in 64 bits")


def asymptotic_std_error(k: int, zeta: float) -> float:
    """Large-k standard deviation of the estimator: sqrt((4^z-1)/(z^2 k)).

    The one rule for a usable (k, zeta), asked by every entry point that
    takes zeta.  A k that is not an int (a bool, a float such as 2.0 or a
    numpy integer) raises "k must be an integer, not <repr>", k < 1 raises
    "k must be >= 1", and a zeta whose variance is not a finite positive
    double (nan, zeta <= 0, 4^z overflows, z^2 or 4^z - 1 rounds to 0)
    raises "zeta=<repr> has no finite positive asymptotic standard error
    at k=<k>".
    """
    if not _is_int(k):
        raise ValueError(f"k must be an integer, not {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        variance = (4.0**zeta - 1.0) / (zeta**2 * k)
    except (OverflowError, ZeroDivisionError):
        variance = math.inf
    if not 0.0 < variance < math.inf:
        raise ValueError(f"zeta={zeta!r} has no finite positive asymptotic standard error at k={k}")
    return math.sqrt(variance)


def _is_int(value) -> bool:
    """An int and not a bool (JSON true is not 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float, and not a bool."""
    return isinstance(value, float) or _is_int(value)


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


class SketchFile(Record):
    """The sketch value: config, projections and total in units of ``QUANTUM``.

    Fields: ``config`` (a ``SketchConfig``), ``scaled`` (a tuple of k
    ints) and ``scaled_total`` (an int).  Anything else raises ValueError,
    and a peak or |total| at or past 2^53 raises ``check_exact``'s
    OverflowError, so every value can be written and loaded back.
    """

    __slots__ = ("config", "scaled", "scaled_total")

    def _validate(self):
        if not isinstance(self.config, SketchConfig):
            raise ValueError("config must be a SketchConfig")
        k = self.config.k
        # type(), not isinstance: a bool is not a count
        if not isinstance(self.scaled, tuple) or len(self.scaled) != k or (
            not {*map(type, self.scaled)} <= {int}
        ):
            raise ValueError(f"scaled must be a tuple of k={k} ints")
        if not _is_int(self.scaled_total):
            raise ValueError("scaled_total must be an int")
        check_exact(max(map(abs, self.scaled)), self.scaled_total)

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
            raise ValueError("sketch total must be positive (frequencies undefined)")
        return [s * QUANTUM / total for s in self.scaled]

    def merge(self, other: SketchFile) -> SketchFile:
        if self.config != other.config:
            raise ValueError("cannot merge sketches with different configs")
        scaled = tuple(a + b for a, b in zip(self.scaled, other.scaled))
        return SketchFile(self.config, scaled, self.scaled_total + other.scaled_total)

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
        import json

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
        import json

        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("sketch document must be a JSON object")
        version = obj.get("format_version")
        if not _is_int(version) or version != FORMAT_VERSION:
            raise ValueError("unsupported format version")
        try:
            # nothing is coerced: SketchConfig checks the integer fields' types
            config = SketchConfig(
                k=obj["k"], zeta=_number(obj["zeta"]), master_seed=obj["master_seed"]
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
