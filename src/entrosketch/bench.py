"""Experiment runner emitting deterministic CSV.

Experiments: the small-sample bias table, the MSE curve against the
Cramer-Rao floor, the tail-constant grid, and end-to-end sketch-vs-oracle
runs on synthetic streams.  The first three are exact: the bias table is
``estimator.resolve_bias``, the MSE curve ``quadrature.log_mean_variance``
and the tail grid ``tailbounds.tail_constants``, so nothing is sampled
and ``reps`` and ``seed`` apply to ``end_to_end`` alone, the one kind
that loads numpy.  Identical spec + seed reproduce identical CSV bytes:
its replicate streams use the counter-based Philox generator keyed by
(seed, replicate), and rows are emitted in sorted spec order.
"""

from __future__ import annotations

import csv
import math

from .estimator import FISHER_INFO, estimate, resolve_bias
from .oracle import AccumulationVector, shannon_entropy
from .quadrature import log_mean_variance
from .sketchfile import Record, asymptotic_std_error
from .tailbounds import tail_constants

KINDS = ("bias_table", "mse_curve", "tail_curve", "end_to_end")

# reference delta for relative-MSE reporting (uniform over 4 types);
# the absolute MSE column makes the output delta-independent
DEFAULT_DELTA = -math.log(4.0)


class ExperimentSpec(Record):
    """One experiment: its kind, the (k, zeta) grid and each kind's inputs
    (``epsilons`` for tail_curve, empty for 0.01 to 1; ``distribution``,
    "uniform" or "zipf", ``n_items``, ``n_updates`` and ``zipf_s`` for
    end_to_end).  The three grids are stored as tuples, whatever sequence
    they were given as.  Every (k, zeta) of the grid asks the one rule first."""

    __slots__ = ("kind", "k_values", "zeta_values", "reps", "seed", "epsilons",
                 "distribution", "n_items", "n_updates", "zipf_s")
    _defaults = {"kind": "bias_table", "k_values": (10,), "zeta_values": (1.0,), "reps": 1000,
                 "seed": 0, "epsilons": (), "distribution": "uniform", "n_items": 4,
                 "n_updates": 100_000, "zipf_s": 1.2}

    def _validate(self):
        for name in ("k_values", "zeta_values", "epsilons"):  # as tuples, so a spec of lists hashes
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # the CLI's flags convert each value with argparse's type=; only ranges are checked here
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for name in ("reps", "n_items", "n_updates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("k_values", "zeta_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for k in self.k_values:
            for zeta in self.zeta_values:
                asymptotic_std_error(k, zeta)
        if self.kind != "tail_curve" and min(self.k_values) < 2:
            # k=1 has no finite bias correction, so no corrected estimator
            raise ValueError(f"k_values must be >= 2 for {self.kind}")
        if not all(0.0 < x < math.inf for x in self.epsilons):
            raise ValueError("epsilons must be > 0 and finite")
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
    """Rows (k, zeta, bc): the estimator's bias correction."""
    rows = [(k, zeta, resolve_bias(k, zeta))
            for k in sorted(spec.k_values) for zeta in sorted(spec.zeta_values)]
    return ["k", "zeta", "bc"], rows


def run_mse_curve(spec: ExperimentSpec):
    """MSE of the bias-corrected estimator vs the CR floor.

    The corrected estimator is unbiased, so its MSE is its variance,
    Var(log Ybar)/zeta^2, inf at k = 2.
    Rows: (k, zeta, mse_abs, mse_rel, var, cr_bound, cr_bound_rel).
    """
    rows = []
    for k in sorted(spec.k_values):
        for zeta in sorted(spec.zeta_values):
            mse = log_mean_variance(k, zeta) / zeta**2
            cr = 1.0 / (FISHER_INFO * k)
            rows.append((k, zeta, mse, mse / DEFAULT_DELTA**2, mse, cr, cr / DEFAULT_DELTA**2))
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


def _replicate_stream(spec: ExperimentSpec, rng):
    from .streams import counts_to_stream, uniform_stream, zipf_counts

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
    import numpy as np

    from .sketch import sketch_stream

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
