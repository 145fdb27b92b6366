"""The frozen value records: construction, defaults, equality, repr, validation."""

import copy
import math
import pickle
import re

import pytest

from entrosketch.estimator import EstimateResult
from entrosketch.sketchfile import LIMIT, OVERFLOW, SketchConfig, SketchFile
from entrosketch.tailbounds import TailBoundResult
from paper import HALF_PI, BiasEstimate, StableParams, UniformExpPair

# (class, field values, repr, defaults, {field: (bad value, ValueError message)})
RECORDS = [
    pytest.param(
        SketchConfig, (64, 1.0, 0), "SketchConfig(k=64, zeta=1.0, master_seed=0)",
        {"zeta": 1.0, "master_seed": 0},
        {"k": (0, "k must be a positive integer"),
         "zeta": (math.inf, "zeta=inf has no finite positive asymptotic standard error at k=64"),
         "master_seed": (1 << 64, "master_seed must be an integer that fits in 64 bits")},
        id="SketchConfig"),
    pytest.param(
        SketchFile, (SketchConfig(2), (1, -2), 3),
        "SketchFile(config=SketchConfig(k=2, zeta=1.0, master_seed=0), scaled=(1, -2), "
        "scaled_total=3)", {},
        {"config": (2, "config must be a SketchConfig"),
         "scaled": ((1,), "scaled must be a tuple of k=2 ints"),
         "scaled_total": (3.0, "scaled_total must be an int")},
        id="SketchFile"),
    pytest.param(
        EstimateResult, (-1.5, 1.5, -0.25, 0.125),
        "EstimateResult(delta_hat=-1.5, entropy_hat=1.5, bias_correction=-0.25, "
        "asymptotic_se=0.125)", {}, {}, id="EstimateResult"),
    pytest.param(
        TailBoundResult, (5.5, 6.0, 0.25, 0.125, 1.0, 0.1),
        "TailBoundResult(g_right=5.5, g_left=6.0, t_star_right=0.25, t_star_left=0.125, "
        "zeta=1.0, epsilon=0.1)", {}, {}, id="TailBoundResult"),
    pytest.param(
        StableParams, (1.0, -1.0, 2.0, 0.0),
        "StableParams(alpha=1.0, beta=-1.0, gamma=2.0, delta=0.0)", {},
        {"alpha": (2.5, "alpha must be in (0, 2]"),
         "beta": (-1.5, "beta must be in [-1, 1]"),
         "gamma": (0.0, "gamma must be positive")},
        id="StableParams"),
    pytest.param(
        UniformExpPair, (0.5, 2.0), "UniformExpPair(u=0.5, w=2.0)", {},
        {"u": (HALF_PI, "u must lie strictly inside (-pi/2, pi/2)"),
         "w": (0.0, "w must be positive")},
        id="UniformExpPair"),
    pytest.param(
        BiasEstimate, (-0.5, 0.01, 1000), "BiasEstimate(value=-0.5, std_error=0.01, reps=1000)",
        {}, {}, id="BiasEstimate"),
]


@pytest.mark.parametrize("cls, values, text, defaults, bad", RECORDS)
def test_record_semantics(cls, values, text, defaults, bad):
    fields = cls.__slots__
    by_name = dict(zip(fields, values))
    record = cls(*values)
    assert tuple(getattr(record, field) for field in fields) == values
    assert repr(record) == text

    # positional and keyword construction, trailing defaults
    assert cls(**by_name) == record
    required = len(fields) - len(defaults)
    assert cls(*values[:required]) == record
    assert [getattr(cls(*values[:required]), f) for f in defaults] == list(defaults.values())
    for args, kwargs in [(values[: required - 1], {}), ((*values, values[0]), {}),
                         (values, {fields[0]: values[0]}), (values, {"other": 1})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    # value equality and hash, for records of the same class only
    twin = cls(*values)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record != values and record != type("Other", (cls,), {})(*values)
    assert copy.deepcopy(record) == record and pickle.loads(pickle.dumps(record)) == record

    # frozen
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert tuple(getattr(record, field) for field in fields) == values

    # validation, with the messages the callers match on
    for field, (value, message) in bad.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**by_name, field: value})


@pytest.mark.parametrize("scaled, total, message", [
    ([1, -2], 3, "scaled must be a tuple of k=2 ints"),
    ((1, -2, 3), 3, "scaled must be a tuple of k=2 ints"),
    ((1, True), 3, "scaled must be a tuple of k=2 ints"),
    ((1, -2.0), 3, "scaled must be a tuple of k=2 ints"),
    ((1, -2), True, "scaled_total must be an int"),
], ids=["list", "long", "bool", "float", "bool-total"])
def test_sketch_file_takes_only_ints(scaled, total, message):
    # a float would merge inexactly, and a tuple of the wrong length fail in to_bytes
    with pytest.raises(ValueError, match=re.escape(message)):
        SketchFile(SketchConfig(2), scaled, total)


@pytest.mark.parametrize("scaled, total", [((2**60,) * 4, 1), ((1, 2, 3, 4), -(2**53))])
def test_sketch_file_holds_no_value_its_loader_refuses(scaled, total):
    # such a value would write bytes that from_bytes refuses as not below 2^37;
    # one step inside the limit round-trips
    with pytest.raises(OverflowError, match=re.escape(OVERFLOW)):
        SketchFile(SketchConfig(4), scaled, total)
    limit = tuple(min(s, LIMIT - 1) for s in scaled)
    value = SketchFile(SketchConfig(4), limit, max(total, 1 - LIMIT))
    assert SketchFile.from_bytes(value.to_bytes()) == value
