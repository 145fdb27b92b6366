"""Workload inputs, reference outputs and output checks.

Every input is a pure function of the seed: the stream files, the
sketch files the read path queries, and the sketches' master seed.  All
of it is made during untimed set-up, and the CLI sees only the files.

A workload is a cycle of operations that the closed loop repeats.  Each
operation carries the reference its output is checked against:

* ingest: sketch bytes equal to a reference built without the update
  loop, by grouping the stream by ``(item, delta)`` and adding
  ``count * rint(v * delta * 2^16)`` per group, with ``v`` from the
  active backend's public ``variates``;
* merge: bytes equal to a single-pass ingest of the concatenated shards;
* estimate: entropy within ``ESTIMATE_BOUND_SE`` asymptotic standard
  errors of the exact (oracle) entropy of the stream;
* size: the ``k`` that ``required_sketch_size`` returns.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from entrosketch import _backend
from entrosketch.estimator import asymptotic_std_error
from entrosketch.hashing import item_key
from entrosketch.oracle import AccumulationVector, shannon_entropy
from entrosketch.sketch import FORMAT_VERSION, EntropySketch, sketch_stream
from entrosketch.streams import zipf_probabilities
from entrosketch.tailbounds import required_sketch_size

N_IDS = 10_000
ZIPF_S = 1.1
DELETE_SHARE = 0.1
ZIPF_K = 200
SIZE_EPSILON, SIZE_GAMMA = 0.1, 0.05
SIZE_K = 2217  # required_sketch_size(SIZE_EPSILON, SIZE_GAMMA), the width users are told to use
ESTIMATE_BOUND_SE = 6.0

# (k, zeta) for each way estimate resolves its bias correction: a shipped
# table entry, 1/k interpolation in a shipped column, k beyond the table
# (BC = 0), and an off-table zeta (Monte Carlo, 5e5 replicates, cost
# linear in k; k=20 takes about 1.1 s on a 2.1 GHz Xeon core, short
# enough that one run holds the samples its tail percentile needs).
BIAS_CLASSES = {
    "table": (100, 1.0),
    "interp": (75, 1.15),
    "beyond": (SIZE_K, 1.0),
    "mc": (20, 0.9),
}

# stream lines per workload at scale 1; query_mix ingests the second
# half of its stream (2000 all-distinct lines) in every cycle
LINES = {"ingest_zipf": 5_000, "query_mix": 4_000}
NAMES = tuple(LINES)


@dataclass
class Op:
    label: str
    spec: dict  # "kind" plus arguments; replay.py takes the same dict
    expect: object  # bytes (ingest, merge), (entropy, bound) (estimate), int (size)
    lines: int = 0  # stream lines read, for ingest


@dataclass
class Workload:
    name: str
    seed: int
    cycle: list[Op]  # what the closed loop repeats, in order; cycle[0] is an ingest
    stream: dict  # properties of the ingested stream

    @property
    def ingest(self) -> Op:
        return self.cycle[0]

    def distinct_ops(self) -> list[Op]:
        return list({op.label: op for op in self.cycle}.values())


def zipf_records(rng: np.random.Generator, n: int) -> list[tuple[str, int]]:
    """Zipf(ZIPF_S) items, quantities 1-4; about DELETE_SHARE of lines
    remove one unit of an item still held (the drawn item, else the last
    one inserted), so counts never go negative."""
    ids = rng.choice(N_IDS, size=n, p=zipf_probabilities(N_IDS, ZIPF_S)).tolist()
    qty = rng.integers(1, 5, size=n).tolist()
    delete = (rng.random(n) < DELETE_SHARE).tolist()
    held = [0] * N_IDS
    last = None
    out = []
    for i, q, d in zip(ids, qty, delete):
        target = i if held[i] > 0 else last
        if d and target is not None and held[target] > 0:
            held[target] -= 1
            out.append((f"item{target}", -1))
        else:
            held[i] += q
            last = i
            out.append((f"item{i}", q))
    return out


def distinct_records(rng: np.random.Generator, n: int) -> list[tuple[str, int]]:
    ids = rng.choice(10**12, size=n, replace=False).tolist()
    return [(f"item{i}", 1) for i in ids]


def write_stream(path: Path, records) -> None:
    path.write_text("".join(f"{item},{delta}\n" for item, delta in records), encoding="utf-8")


def stream_properties(records) -> dict:
    n = len(records)
    return {
        "updates": n,
        "distinct_items": len({item for item, _ in records}),
        "item_repeat_share": 1.0 - len({item for item, _ in records}) / n,
        "pair_repeat_share": 1.0 - len(set(records)) / n,
        "deletion_share": sum(1 for _, d in records if d < 0) / n,
    }


def grouped_reference(records, k: int, zeta: float, seed: int) -> bytes:
    """Sketch bytes from one ``variates`` call per distinct item."""
    scaled = np.zeros(k, dtype=np.int64)
    total = 0
    variates: dict[str, np.ndarray] = {}
    for (item, delta), count in Counter(records).items():
        if item not in variates:
            variates[item] = _backend.variates(item_key(item, seed), k)
        d = float(delta)
        scaled += count * np.rint(variates[item] * d * 65536.0).astype(np.int64)
        total += count * int(np.rint(d * 65536.0))
    state = {
        "format_version": FORMAT_VERSION,
        "k": k,
        "zeta": zeta,
        "master_seed": seed,
        "total": total * 2.0**-16,
        "projections": (scaled * 2.0**-16).tolist(),
    }
    return EntropySketch.from_json(json.dumps(state)).to_bytes()


def entropy_expect(records, k: int, zeta: float) -> tuple[float, float]:
    exact = shannon_entropy(AccumulationVector.from_stream(records))
    return exact, ESTIMATE_BOUND_SE * asymptotic_std_error(k, zeta)


def _ingest_op(workdir, name, records, k, zeta, seed) -> Op:
    src = workdir / f"{name}.csv"
    write_stream(src, records)
    spec = {"kind": "ingest", "input": str(src), "output": str(workdir / f"{name}.bin"),
            "k": k, "zeta": zeta, "seed": seed}
    return Op("ingest", spec, grouped_reference(records, k, zeta, seed), len(records))


def _ingest_workload(name, records, k, seed, workdir) -> Workload:
    ingest = _ingest_op(workdir, name, records, k, 1.0, seed)
    estimate = Op("estimate", {"kind": "estimate", "sketch": ingest.spec["output"]},
                  entropy_expect(records, k, 1.0))
    return Workload(name, seed, [ingest, estimate], stream_properties(records))


def _query_mix(records, seed, workdir) -> Workload:
    half = len(records) // 2
    shard_a, shard_b = records[:half], records[half:]
    estimates = {}
    for cls, (k, zeta) in BIAS_CLASSES.items():
        path = workdir / f"query_{cls}.bin"
        path.write_bytes(sketch_stream(records, k, zeta, seed).to_bytes())
        estimates[cls] = Op(f"estimate/{cls}", {"kind": "estimate", "sketch": str(path)},
                            entropy_expect(records, k, zeta))
    # the shards use the beyond class's config, so its sketch is the
    # single-pass ingest of the concatenated shards
    single_pass = Path(estimates["beyond"].spec["sketch"]).read_bytes()
    path_a = workdir / "shard_a.bin"
    path_a.write_bytes(sketch_stream(shard_a, SIZE_K, 1.0, seed).to_bytes())
    ingest_b = _ingest_op(workdir, "shard_b", shard_b, SIZE_K, 1.0, seed)
    merge = Op("merge", {"kind": "merge", "a": str(path_a), "b": ingest_b.spec["output"],
                         "output": str(workdir / "merged.bin")}, single_pass)
    size = Op("size", {"kind": "size", "epsilon": SIZE_EPSILON, "gamma": SIZE_GAMMA},
              required_sketch_size(SIZE_EPSILON, SIZE_GAMMA))
    mc = estimates["mc"]
    # 3 of the 8 query processes per cycle run Monte Carlo: enough that
    # the tail percentile falls inside that class, few enough that the
    # median stays outside it.
    cycle = [ingest_b, mc, merge, estimates["table"], mc, estimates["interp"],
             estimates["beyond"], mc, size]
    return Workload("query_mix", seed, cycle, stream_properties(shard_b))


def build(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Make the inputs and references of workload ``name`` under ``workdir``."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n = max(2, round(LINES[name] * scale))
    if name == "ingest_zipf":
        return _ingest_workload(name, zipf_records(rng, n), ZIPF_K, seed, workdir)
    return _query_mix(distinct_records(rng, n), seed, workdir)


def cli_args(spec: dict) -> list[str]:
    kind = spec["kind"]
    if kind == "ingest":
        return ["ingest", "--input", spec["input"], "--output", spec["output"],
                "--k", str(spec["k"]), "--zeta", repr(spec["zeta"]), "--seed", str(spec["seed"])]
    if kind == "estimate":
        return ["estimate", spec["sketch"]]
    if kind == "merge":
        return ["merge", spec["a"], spec["b"], "--output", spec["output"]]
    if kind == "size":
        return ["size", "--epsilon", repr(spec["epsilon"]), "--gamma", repr(spec["gamma"])]
    raise ValueError(f"no CLI command for {kind!r}")


def check(op: Op, returncode: int, stdout: str, stderr: str = "") -> str | None:
    """None when the operation's output is correct, else the reason."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"{op.label}: exit code {returncode} {last[0]}".rstrip()
    kind = op.spec["kind"]
    try:
        if kind in ("ingest", "merge"):
            if Path(op.spec["output"]).read_bytes() != op.expect:
                return f"{op.label}: sketch bytes differ from the reference"
            return None
        printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        if kind == "estimate":
            exact, bound = op.expect
            got = float(printed["entropy"])
            if not abs(got - exact) <= bound:
                return f"{op.label}: entropy {got!r} not within {bound!r} of {exact!r}"
            return None
        if int(printed["k"]) != op.expect:
            return f"{op.label}: k={printed['k']} but required_sketch_size gives {op.expect}"
        return None
    except (OSError, KeyError, ValueError) as exc:
        return f"{op.label}: unreadable output ({exc!r})"
