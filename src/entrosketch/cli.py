"""Command-line front end.

Subcommands: ingest, estimate, merge, size, oracle, bench.  All output
numbers are printed as key=value with 17 significant digits so values
round-trip.  The default master seed of ``ingest`` and ``bench`` comes
from ENTROSKETCH_SEED.  ``bench`` takes flags only: each fills the
``bench.ExperimentSpec`` field of its ``dest``, an unset one leaves that
field's default, and the spec rejects out-of-range values by field name.
Each subcommand imports the modules it runs inside its ``cmd_*``
function, so building the parser, or running ``size``, loads no numpy.
``estimate`` and ``merge`` read sketch files through the stdlib-only
``sketchfile``, and ``estimate``'s bias correction is pure Python at
every (k, zeta); only ``ingest`` and ``bench --kind end_to_end`` load
numpy.
Before that, ``main`` sets
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 where the caller
left them unset.  A bad value, an overflow, a file error or
an allocation too large for memory prints ``error: ...`` and exits 1.

The program's entry point is ``run``: ``python -m entrosketch.cli`` and
the ``entrosketch`` console script both call it.  It runs ``main``,
flushes stdout and stderr, and ends the process with ``os._exit``,
skipping interpreter teardown (module and object clean-up, atexit
handlers), which cost an ``estimate`` process about 13 ms and an
``ingest`` at k=2217 about 30 ms on a 2-vCPU Xeon VM.  Every file the
CLI writes is closed by then.  ``main`` flushes stdout itself, so a
closed pipe or a full disk prints ``error: ...`` and exits 1 here too.
A bad flag (exit 2) or an uncaught exception ends through the normal
interpreter exit.  ``main`` returns its exit code, so in-process
callers are unaffected.
"""

from __future__ import annotations

import argparse
import os
import sys


def _g(x: float) -> str:
    return f"{x:.17g}"


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
    result = estimate(sketch, bc_mode=args.bc_mode)
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
    from .tailbounds import _size_and_bounds

    k, bounds = _size_and_bounds(args.epsilon, args.gamma, args.zeta)
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
    from dataclasses import fields

    from . import bench as bench_mod

    given = vars(args)
    spec = bench_mod.ExperimentSpec(
        **{f.name: given[f.name] for f in fields(bench_mod.ExperimentSpec) if f.name in given}
    )
    bench_mod.run(spec, out_path=args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrosketch")
    # argparse converts (and checks) a string default only for the subcommand that runs
    seed = os.environ.get("ENTROSKETCH_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="stream a file into a binary sketch")
    p.add_argument("--input", default="-", help="stream file, or - for stdin")
    p.add_argument("--output", required=True, help="binary sketch path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--delimiter", default=",")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("estimate", help="entropy estimate from a sketch file")
    p.add_argument("sketch")
    p.add_argument(
        "--bc-mode",
        default="auto",
        choices=["auto", "none"],
        help="auto: the exact bias correction, by quadrature, at every k >= 2; "
        "k=1 has none and fails; none: no correction",
    )
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

    # an unset flag leaves its field out, so ExperimentSpec's default applies
    p = sub.add_parser("bench", help="experiments, CSV output", argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", help="bias_table, mse_curve, tail_curve or end_to_end")
    p.add_argument("--k", dest="k_values", type=int, nargs="+")
    p.add_argument("--zeta", dest="zeta_values", type=float, nargs="+")
    p.add_argument("--reps", type=int, help="end_to_end replicates; the other kinds are exact")
    p.add_argument("--seed", type=int, default=seed, help="end_to_end master seed")
    p.add_argument("--epsilon", dest="epsilons", type=float, nargs="+")
    p.add_argument("--distribution", choices=["uniform", "zipf"])
    p.add_argument("--items", dest="n_items", type=int)
    p.add_argument("--updates", dest="n_updates", type=int)
    p.add_argument("--zipf-s", type=float)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    # one BLAS thread unless the caller set a count: ingest's dot products
    # are small and the CLI runs its own threads, while starting OpenBLAS's
    # pool costs every numpy-loading process tens of milliseconds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe or a full disk fails here, not at exit
        return code
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    """The program: ``main()``, then flush and ``os._exit``; never returns."""
    code = main()
    try:
        # main flushed a successful command's stdout; this flushes what a failed one left
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        pass  # a closed pipe or a full disk: main has reported it and returned 1
    os._exit(code)


if __name__ == "__main__":
    run()
