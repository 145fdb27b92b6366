"""Command-line front end.

Subcommands: ingest, estimate, merge, size, oracle, bench.  All output
numbers are printed as key=value with 17 significant digits so values
round-trip.  The default master seed comes from ENTROSKETCH_SEED.
Each subcommand imports the modules it runs inside its ``cmd_*``
function, so building the parser, or running ``size``, loads no numpy.
``estimate`` and ``merge`` read sketch files through the stdlib-only
``sketchfile``; only ``ingest``, ``oracle``, ``bench`` and a Monte Carlo
bias correction load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _g(x: float) -> str:
    return f"{x:.17g}"


def _default_seed() -> int:
    return int(os.environ.get("ENTROSKETCH_SEED", "0"))


def _iter_input(args):
    from .streams import iter_stream_file, iter_stream_lines

    if args.input == "-":
        return iter_stream_lines(sys.stdin, args.delimiter)
    return iter_stream_file(args.input, args.delimiter)


def cmd_ingest(args) -> int:
    from .sketch import new_sketch

    sketch = new_sketch(k=args.k, zeta=args.zeta, master_seed=args.seed)
    sketch.update_many(_iter_input(args))
    with open(args.output, "wb") as fp:
        fp.write(sketch.to_bytes())
    print(f"k={sketch.config.k}")
    print(f"total={_g(sketch.total)}")
    return 0


def _load_sketch(path: str):
    from .sketchfile import SketchFile

    with open(path, "rb") as fp:
        return SketchFile.from_bytes(fp.read())


def cmd_estimate(args) -> int:
    from .estimator import estimate

    sketch = _load_sketch(args.sketch)
    result = estimate(sketch, bc_mode=args.bc_mode, mc_reps=args.reps)
    print(f"entropy={_g(result.entropy_hat)}")
    print(f"delta={_g(result.delta_hat)}")
    print(f"bias_correction={_g(result.bias_correction)}")
    print(f"asymptotic_se={_g(result.asymptotic_se)}")
    return 0


def cmd_merge(args) -> int:
    merged = _load_sketch(args.a).merge(_load_sketch(args.b))
    with open(args.output, "wb") as fp:
        fp.write(merged.to_bytes())
    print(f"total={_g(merged.total)}")
    return 0


def cmd_size(args) -> int:
    from .tailbounds import required_sketch_size, tail_constants

    k = required_sketch_size(args.epsilon, args.gamma, args.zeta)
    bounds = tail_constants(args.zeta, args.epsilon)
    print(f"k={k}")
    print(f"g_right={_g(bounds.g_right)}")
    print(f"g_left={_g(bounds.g_left)}")
    return 0


def cmd_oracle(args) -> int:
    from .oracle import AccumulationVector, exact_entropies

    acc = AccumulationVector.from_stream(_iter_input(args))
    h, h_alpha, s_alpha = exact_entropies(acc, args.alpha)
    print(f"shannon={_g(h)}")
    print(f"renyi={_g(h_alpha)}")
    print(f"tsallis={_g(s_alpha)}")
    return 0


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fp:
            spec = bench_mod.ExperimentSpec(**json.load(fp))
    else:
        spec = bench_mod.ExperimentSpec(
            kind=args.kind,
            k_values=args.k,
            zeta_values=args.zeta,
            reps=args.reps,
            seed=args.seed,
            epsilons=args.epsilon or [],
            distribution=args.distribution,
            n_items=args.items,
            n_updates=args.updates,
            zipf_s=args.zipf_s,
        )
    bench_mod.run(spec, out_path=args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrosketch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="stream a file into a binary sketch")
    p.add_argument("--input", default="-", help="stream file, or - for stdin")
    p.add_argument("--output", required=True, help="binary sketch path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--delimiter", default=",")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("estimate", help="entropy estimate from a sketch file")
    p.add_argument("sketch")
    p.add_argument(
        "--bc-mode",
        default="auto",
        choices=["auto", "mc", "none"],
        help="auto: closed-form bias correction for zeta <= 1.5 and k large enough "
        "(k >= 8 at zeta=1), else Monte Carlo; mc: always Monte Carlo; none: no correction",
    )
    p.add_argument("--reps", type=int, default=500_000, help="Monte Carlo BC replicates")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("merge", help="merge two sketches with equal configs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("size", help="sketch width for a target accuracy")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("oracle", help="exact entropies of a materialized stream")
    p.add_argument("--input", default="-")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--alpha", type=float, default=0.99)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="Monte Carlo experiments, CSV output")
    p.add_argument("--config", help="JSON ExperimentSpec file (overrides flags)")
    p.add_argument(
        "--kind", default="bias_table", help="bias_table, mse_curve, tail_curve or end_to_end"
    )
    p.add_argument("--k", type=int, nargs="+", default=[10])
    p.add_argument("--zeta", type=float, nargs="+", default=[1.0])
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--epsilon", type=float, nargs="+")
    p.add_argument("--distribution", default="uniform", choices=["uniform", "zipf"])
    p.add_argument("--items", type=int, default=4)
    p.add_argument("--updates", type=int, default=100_000)
    p.add_argument("--zipf-s", type=float, default=1.2)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
