"""Monte Carlo experiment runner emitting deterministic CSV.

Experiments: the small-sample bias table, the relative-MSE curve
against the Cramer-Rao floor, the tail-constant grid, and end-to-end
sketch-vs-oracle runs on synthetic streams.  Identical spec + seed
reproduce identical CSV bytes: replicates use the counter-based Philox
generator keyed by (seed, replicate block) and rows are emitted in
sorted spec order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import FISHER_INFO, estimate, resolve_bias
from .montecarlo import bias_correction, log_mean_replicates
from .oracle import AccumulationVector, shannon_entropy
from .sketch import sketch_stream
from .streams import counts_to_stream, uniform_stream, zipf_counts
from .tailbounds import tail_constants

KINDS = ("bias_table", "mse_curve", "tail_curve", "end_to_end")

# reference delta for relative-MSE reporting (uniform over 4 types);
# the absolute MSE column makes the output delta-independent
DEFAULT_DELTA = -math.log(4.0)


@dataclass
class ExperimentSpec:
    kind: str = "bias_table"
    k_values: list[int] = field(default_factory=lambda: [10])
    zeta_values: list[float] = field(default_factory=lambda: [1.0])
    reps: int = 1000
    seed: int = 0
    # tail_curve inputs
    epsilons: list[float] = field(default_factory=list)
    # end_to_end inputs
    distribution: str = "uniform"  # or "zipf"
    n_items: int = 4
    n_updates: int = 100_000
    zipf_s: float = 1.2

    def __post_init__(self):
        # the CLI's flags convert each value with argparse's type=; only ranges are checked here
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for name in ("reps", "n_items", "n_updates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("k_values", "zeta_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if min(self.k_values) < 1:
            raise ValueError("k_values must be >= 1")
        for name in ("zeta_values", "epsilons"):
            if not all(0.0 < x < math.inf for x in getattr(self, name)):
                raise ValueError(f"{name} must be > 0 and finite")
        if not 0.0 < self.zipf_s < math.inf:
            raise ValueError("zipf_s must be > 0 and finite")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64)")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def run_bias_table(spec: ExperimentSpec):
    """Rows (k, zeta, bc, std_error); std_error is nan for reps=1."""
    rows = []
    for k in sorted(spec.k_values):
        for zeta in sorted(spec.zeta_values):
            est = bias_correction(k, zeta, reps=spec.reps, seed=spec.seed)
            rows.append((k, zeta, est.value, est.std_error))
    return ["k", "zeta", "bc", "std_error"], rows


def _delta_hat_replicates(k: int, zeta: float, reps: int, seed: int, delta: float) -> np.ndarray:
    """Replicated raw log-mean estimates at a known location delta."""
    return log_mean_replicates(k, zeta, reps, seed, shift=delta)


def run_mse_curve(spec: ExperimentSpec, delta: float = DEFAULT_DELTA):
    """Empirical MSE of the bias-corrected estimator vs the CR floor.

    Rows: (k, zeta, mse_abs, mse_rel, var, cr_bound, cr_bound_rel).
    """
    if delta == 0.0:
        raise ValueError("relative MSE undefined at delta = 0")
    rows = []
    for k in sorted(spec.k_values):
        for zeta in sorted(spec.zeta_values):
            raw = _delta_hat_replicates(k, zeta, spec.reps, spec.seed, delta)
            bc = resolve_bias(k, zeta, mode="auto")
            err = raw - bc - delta
            mse = float(np.mean(err**2))
            var = float(np.var(err, ddof=1)) if spec.reps > 1 else float("nan")
            cr = 1.0 / (FISHER_INFO * k)
            rows.append((k, zeta, mse, mse / delta**2, var, cr, cr / delta**2))
    return ["k", "zeta", "mse_abs", "mse_rel", "var", "cr_bound", "cr_bound_rel"], rows


def run_tail_curve(spec: ExperimentSpec):
    """Rows (zeta, epsilon, g_right, g_left, t_star_right, t_star_left)."""
    epsilons = spec.epsilons or [round(0.01 * i, 4) for i in range(1, 101)]
    rows = []
    for zeta in sorted(spec.zeta_values):
        for eps in sorted(epsilons):
            r = tail_constants(zeta, eps)
            rows.append((zeta, eps, r.g_right, r.g_left, r.t_star_right, r.t_star_left))
    return ["zeta", "epsilon", "g_right", "g_left", "t_star_right", "t_star_left"], rows


def _replicate_stream(spec: ExperimentSpec, rng: np.random.Generator):
    if spec.distribution == "uniform":
        return list(uniform_stream(spec.n_items, spec.n_updates, rng))
    if spec.distribution == "zipf":
        # weighted per-item updates: linearity makes this sketch equal in
        # distribution to the unit-update stream with the same totals
        counts = zipf_counts(spec.n_items, spec.zipf_s, spec.n_updates, rng)
        return list(counts_to_stream(counts))
    raise ValueError(f"unknown distribution {spec.distribution!r}")


def run_end_to_end(spec: ExperimentSpec):
    """Sketch + estimate vs exact oracle entropy, one row per replicate.

    Rows: (replicate, k, zeta, entropy_hat, entropy_oracle, error).
    """
    rows = []
    for k in sorted(spec.k_values):
        for zeta in sorted(spec.zeta_values):
            for rep in range(spec.reps):
                key = np.array([spec.seed, rep], dtype=np.uint64)
                elements = _replicate_stream(spec, np.random.Generator(np.random.Philox(key=key)))
                master_seed = (spec.seed + rep) % (1 << 64)
                sketch = sketch_stream(elements, k=k, zeta=zeta, master_seed=master_seed)
                acc = AccumulationVector.from_stream(elements)
                h_true = shannon_entropy(acc)
                h_hat = estimate(sketch).entropy_hat
                rows.append((rep, k, zeta, h_hat, h_true, h_hat - h_true))
    return ["replicate", "k", "zeta", "entropy_hat", "entropy_oracle", "error"], rows


def run(spec: ExperimentSpec, out_path=None):
    runner = {
        "bias_table": run_bias_table,
        "mse_curve": run_mse_curve,
        "tail_curve": run_tail_curve,
        "end_to_end": run_end_to_end,
    }[spec.kind]
    header, rows = runner(spec)
    if out_path is not None:
        write_csv(out_path, header, rows)
    return header, rows
