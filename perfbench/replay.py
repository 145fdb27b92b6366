"""Replay one CLI operation with a span around every call into a layer.

    PYTHONPATH=src python3 perfbench/replay.py '{"kind": "estimate", "sketch": "s.bin"}'

Each replay mirrors the matching ``entrosketch.cli`` command, calling the
same public functions in the same order, so a traced replay and an
untraced CLI process do the same work.  It prints the ``key=value``
lines the CLI prints, then one JSON line ``{"spans": [...]}``; spans
stay in memory until then.  Spans wrap calls made from this file only:
time spent in ``hashing`` and ``_backend`` inside ``sketch.update``
counts as ``sketch`` self time here, and the per-call probes split it.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def _g(x: float) -> str:
    return f"{x:.17g}"


def replay_ingest(tr, spec):
    from entrosketch.sketch import new_sketch
    from entrosketch.streams import iter_stream_file

    sketch = new_sketch(k=spec["k"], zeta=spec["zeta"], master_seed=spec["seed"])
    records = iter_stream_file(spec["input"])
    begin, end = tr.begin, tr.end
    while True:
        begin("streams.parse")
        record = next(records, None)
        end()
        if record is None:
            break
        begin("sketch.update")
        sketch.update(*record)
        end()
    with tr.span("sketch.to_bytes"):
        data = sketch.to_bytes()
    with open(spec["output"], "wb") as fp:
        fp.write(data)
    return [f"k={sketch.config.k}", f"total={_g(sketch.total)}"]


def _load(tr, path):
    from entrosketch.sketch import EntropySketch

    with open(path, "rb") as fp:
        data = fp.read()
    with tr.span("sketch.from_bytes"):
        return EntropySketch.from_bytes(data)


def replay_estimate(tr, spec):
    from entrosketch.estimator import asymptotic_std_error, log_mean, resolve_bias

    sketch = _load(tr, spec["sketch"])
    k, zeta = sketch.config.k, sketch.config.zeta
    with tr.span("sketch.normalized"):
        y = sketch.normalized()
    with tr.span("estimator.log_mean"):
        raw = log_mean(y, zeta)
    with tr.span("estimator.resolve_bias"):
        bc = resolve_bias(k, zeta)
    with tr.span("estimator.asymptotic_std_error"):
        se = asymptotic_std_error(k, zeta)
    delta = raw - bc
    return [f"entropy={_g(-delta)}", f"delta={_g(delta)}", f"bias_correction={_g(bc)}",
            f"asymptotic_se={_g(se)}"]


def replay_bias(tr, spec):
    from entrosketch.estimator import resolve_bias

    with tr.span("estimator.resolve_bias"):
        bc = resolve_bias(spec["k"], spec["zeta"])
    return [f"bias_correction={_g(bc)}"]


def replay_merge(tr, spec):
    a = _load(tr, spec["a"])
    b = _load(tr, spec["b"])
    with tr.span("sketch.merge"):
        merged = a.merge(b)
    with tr.span("sketch.to_bytes"):
        data = merged.to_bytes()
    with open(spec["output"], "wb") as fp:
        fp.write(data)
    return [f"total={_g(merged.total)}"]


def replay_size(tr, spec):
    from entrosketch.tailbounds import required_sketch_size, tail_constants

    with tr.span("tailbounds.required_sketch_size"):
        k = required_sketch_size(spec["epsilon"], spec["gamma"])
    with tr.span("tailbounds.tail_constants"):
        bounds = tail_constants(1.0, spec["epsilon"])
    return [f"k={k}", f"g_right={_g(bounds.g_right)}", f"g_left={_g(bounds.g_left)}"]


REPLAYS = {
    "ingest": replay_ingest,
    "estimate": replay_estimate,
    "bias": replay_bias,
    "merge": replay_merge,
    "size": replay_size,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tr = Tracer()
    with tr.span("cli.import"):
        import entrosketch.cli  # noqa: F401  (what every CLI process imports)
    lines = []
    if spec["kind"] != "import":
        with tr.span(f"cli.{spec['kind']}"):
            lines = REPLAYS[spec["kind"]](tr, spec)
    for line in lines:
        print(line)
    print(json.dumps({"spans": tr.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
