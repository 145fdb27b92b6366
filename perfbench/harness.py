"""Closed-loop measurement of the CLI, and the traced pass.

Untraced (``--trace 0``): one client runs the workload's cycle of
``python -m entrosketch.cli ...`` processes back to back, each started
only after the previous one exits, until ``--seconds`` have passed (the
last cycle is finished).  No two children ever run at once.

Traced (``--trace 1``): for each distinct operation of the cycle, an
untraced CLI process and a traced replay (``replay.py``) of the same
operation run alternately; spans give self time per layer and the
traced/untraced wall-time ratio gives the tracing overhead.  Then fresh
processes time bias resolution per class and in-process probes time
each layer's public functions on the workload's inputs.

The last stdout line is the result; the line before it is a JSON record
of the environment, sample counts, percentiles and stream properties.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import entrosketch
import probes
import workloads
from run import ONE_THREAD_ENV, SCRUBBED_ENV, SRC
from spans import root_seconds, self_seconds, span_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 5
BIAS_PROBES = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
SELF_LAYERS = ("cli", "streams", "sketch", "estimator", "process")

E2E_UNITS = {
    "setup_s": "s",
    "ingest_updates_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "share",
}


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int


class Runner:
    """Runs one child at a time from the checkout root and reaps it with its rusage."""

    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.env.update({var: "1" for var in ONE_THREAD_ENV})
        self.stderr_path = workdir / "stderr.txt"

    def run(self, argv: list[str]) -> Outcome:
        with open(self.stderr_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                proc.stdout.close()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return Outcome(proc.returncode, out.decode(errors="replace"),
                           err.read().decode(errors="replace"), wall, usage.ru_maxrss)

    def cli(self, spec: dict) -> Outcome:
        return self.run([sys.executable, "-m", "entrosketch.cli", *workloads.cli_args(spec)])

    def replay(self, spec: dict) -> Outcome:
        return self.run([sys.executable, str(HERE / "replay.py"), json.dumps(spec)])


def run_op(runner: Runner, op: workloads.Op, traced: bool = False):
    """(outcome, failure reason or None, spans) of one operation."""
    if "output" in op.spec:
        Path(op.spec["output"]).unlink(missing_ok=True)
    if not traced:
        out = runner.cli(op.spec)
        return out, workloads.check(op, out.returncode, out.stdout, out.stderr), []
    out = runner.replay(op.spec)
    printed, _, last = out.stdout.rstrip("\n").rpartition("\n")
    try:
        spans = json.loads(last)["spans"]
    except (ValueError, KeyError):
        return out, f"{op.label} replay: no spans (exit code {out.returncode})", []
    return out, workloads.check(op, out.returncode, printed, out.stderr), spans


def replay_spans(runner: Runner, spec: dict, failures: list[str]) -> list:
    out = runner.replay(spec)
    try:
        return json.loads(out.stdout.rstrip("\n").rpartition("\n")[2])["spans"]
    except (ValueError, KeyError):
        failures.append(f"{spec['kind']} replay: exit code {out.returncode}")
        return []


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND samples beyond it."""
    return n - TAIL_BEYOND if n > TAIL_BEYOND else n


def summarize(samples: list[tuple[float, str]], worse_high: bool) -> dict:
    """Median and tail of (value, op label) samples, with the labels found there."""
    xs = sorted(samples, reverse=not worse_high)
    n = len(xs)
    r = tail_rank(n)
    return {
        "n": n,
        "median": statistics.median(v for v, _ in xs),
        "median_ops": sorted({xs[(n - 1) // 2][1], xs[n // 2][1]}),
        "tail": xs[r - 1][0],
        "tail_pct": 100.0 * r / n,
        "tail_op": xs[r - 1][1],
    }


def import_wall(runner: Runner, failures: list[str]) -> float:
    """Wall time of a fresh process that only imports entrosketch.cli."""
    out = runner.run([sys.executable, "-c", "import entrosketch.cli"])
    if out.returncode:
        failures.append(f"import: exit code {out.returncode}")
    return out.wall_s


def measure(wl: workloads.Workload, seconds: float, runner: Runner):
    failures: list[str] = []
    # warm-up, not counted: bytecode compilation, then the workload's first operation
    import_wall(runner, [])
    run_op(runner, wl.cycle[0])
    setup = []
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        # one import process per cycle, so setup_s samples the whole run
        setup.append(import_wall(runner, failures))
        for op in wl.cycle:
            out, reason, _ = run_op(runner, op)
            samples.append((op, out))
            if reason:
                failures.append(reason)
        if time.perf_counter() >= deadline:
            break
    ingests = [(op, out) for op, out in samples if op.spec["kind"] == "ingest"]
    ingest = summarize([(op.lines / out.wall_s, op.label) for op, out in ingests],
                       worse_high=False)
    # pooled over the run: lines of every ingest over their summed wall
    # time.  Unlike the per-process median it moves smoothly when the
    # host switches between fast and slow spells during a run.
    ingest["pooled"] = (sum(op.lines for op, _ in ingests)
                        / sum(out.wall_s for _, out in ingests))
    query = summarize([(out.wall_s, op.label) for op, out in samples
                       if op.spec["kind"] != "ingest"], worse_high=True)
    attempted = len(setup) + len(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "ingest_updates_per_s": ingest["pooled"],
        "query_p50_s": query["median"],
        "query_tail_s": query["tail"],
        "peak_rss_mib": max(out.maxrss_kib for _, out in samples) / 1024.0,
        "ok_share": (attempted - len(failures)) / attempted,
    }
    detail = {"cycles": len(setup), "ingest_updates_per_s": ingest, "query_s": query}
    return attempted, failures, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, detail


def traced_pass(wl: workloads.Workload, seconds: float, runner: Runner):
    failures: list[str] = []
    replay_spans(runner, {"kind": "import"}, [])  # warm-up, not counted
    imports = [span_seconds(replay_spans(runner, {"kind": "import"}, failures), "cli.import")
               for _ in range(IMPORT_PROBES)]
    attempted = IMPORT_PROBES

    ops = wl.distinct_ops()
    walls = {(op.label, traced): [] for op in ops for traced in (False, True)}
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        layers = dict.fromkeys(SELF_LAYERS, 0.0)
        for op in ops:
            for traced in (False, True):
                out, reason, spans = run_op(runner, op, traced)
                attempted += 1
                if reason:
                    failures.append(reason)
                walls[op.label, traced].append(out.wall_s)
            # out and spans are the traced replay's, which ran second
            for layer, s in self_seconds(spans).items():
                layers[layer] = layers.get(layer, 0.0) + s
            layers["process"] += out.wall_s - root_seconds(spans)
        passes.append(layers)
        if time.perf_counter() >= deadline:
            break
    untraced_s = sum(statistics.median(walls[op.label, False]) for op in ops)
    traced_s = sum(statistics.median(walls[op.label, True]) for op in ops)

    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    metrics.update(probes.ingest_probes(wl.ingest.spec))
    metrics.update(probes.read_probes(wl.ingest.expect))
    metrics.update(probes.fixed_probes(wl.seed, workloads.SIZE_EPSILON, workloads.SIZE_GAMMA))
    for cls, (k, zeta) in workloads.BIAS_CLASSES.items():
        bias = {"kind": "bias", "k": k, "zeta": zeta}
        times = [span_seconds(replay_spans(runner, bias, failures), "estimator.resolve_bias")
                 for _ in range(BIAS_PROBES)]
        attempted += BIAS_PROBES
        metrics[f"estimator.resolve_bias_s.{cls}"] = (statistics.median(times), "s")
    for name, value in wl.stream.items():
        metrics[f"stream.{name}"] = (value, "share" if name.endswith("share") else "count")
    for layer in SELF_LAYERS:
        metrics[f"self_s.{layer}"] = (statistics.median(p[layer] for p in passes), "s")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    detail = {"passes": len(passes), "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "import_probes": IMPORT_PROBES, "bias_probes": BIAS_PROBES}
    return attempted, failures, metrics, detail


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "backend": entrosketch.BACKEND,
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 runner_cls=Runner) -> tuple[dict, dict]:
    """(detail record, result) of one run; inputs live in a scratch directory of the checkout."""
    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(name, seed, workdir, scale)
        runner = runner_cls(workdir)
        attempted, failures, metrics, detail = (traced_pass if trace else measure)(
            wl, seconds, runner)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "stream": wl.stream, **detail,
              "failures": failures}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0
