"""Experiment harness: shapes, determinism, CSV output; and the test
suite's Monte Carlo replicates, which the acceptance criteria read."""

import csv
import math

import numpy as np
import pytest

import paper
from entrosketch import quadrature
from entrosketch.bench import (
    DEFAULT_DELTA,
    ExperimentSpec,
    run,
    run_bias_table,
    run_end_to_end,
    run_mse_curve,
    run_tail_curve,
)
from entrosketch.estimator import FISHER_INFO, resolve_bias
from entrosketch.stable import sample_g0
from paper import log_mean_replicates


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope")

    def test_reps_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="bias_table", reps=0)

    def test_k1_only_for_the_bias_table(self):
        # the bias correction is -inf at k=1: no kind that reads it takes k=1
        for kind in ("bias_table", "mse_curve", "end_to_end"):
            with pytest.raises(ValueError, match=f"^k_values must be >= 2 for {kind}$"):
                ExperimentSpec(kind=kind, k_values=[10, 1])

    @pytest.mark.parametrize("name", ["k_values", "zeta_values"])
    def test_empty_grid_rejected(self, name):
        # no flag gives an empty list (nargs="+"), so this is checked here
        with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
            ExperimentSpec(**{name: []})


class TestReplicates:
    def test_chunking_invariant(self):
        # the Philox key is (seed, block): splitting work into blocks must
        # not change the replicate stream
        a = log_mean_replicates(30, 1.0, 5000, 2, shift=DEFAULT_DELTA)
        b = log_mean_replicates(30, 1.0, 5000, 2, shift=DEFAULT_DELTA)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "k, zeta, reps, seed, chunk_samples",
        [
            # acceptance criterion 5
            (20, 1.0, 100_000, 3, 8_000_000),
            (50, 1.0, 100_000, 3, 8_000_000),
            (100, 1.0, 100_000, 3, 8_000_000),
            # several chunks with a shorter last one, n*k % 4 != 0
            (7, 1.3, 2001, 9, 5000),
        ],
    )
    def test_matches_whole_chunk_draw(self, monkeypatch, k, zeta, reps, seed, chunk_samples):
        monkeypatch.setattr(paper, "_CHUNK_SAMPLES", chunk_samples)
        new = log_mean_replicates(k, zeta, reps, seed, shift=DEFAULT_DELTA)
        old = _whole_chunk_replicates(k, zeta, reps, seed, DEFAULT_DELTA, chunk_samples)
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 2**62 + 3, 2**63 - 1])
    def test_uint64_key_keeps_the_list_key_streams(self, seed):
        # below 2^63 the uint64 key words equal numpy's int64 reading of [seed, i]
        new = log_mean_replicates(3, 1.0, 50, seed, shift=DEFAULT_DELTA)
        assert new.tobytes() == _whole_chunk_replicates(3, 1.0, 50, seed, DEFAULT_DELTA).tobytes()

    def test_seeds_from_2_63_on_are_distinct(self):
        draws = {log_mean_replicates(3, 1.0, 50, seed, shift=DEFAULT_DELTA).tobytes()
                 for seed in (2**63, 2**63 + 1, 2**64 - 1)}
        assert len(draws) == 3

    def test_endpoint_words_match_whole_chunk_draw(self, monkeypatch, coarse_open_unit):
        # clamped words, shift included, as in the whole-chunk draw
        monkeypatch.setattr(paper, "_CHUNK_SAMPLES", 400)
        new = log_mean_replicates(10, 1.0, 2000, 3, shift=DEFAULT_DELTA)
        assert sum(coarse_open_unit) > 0
        old = _whole_chunk_replicates(10, 1.0, 2000, 3, DEFAULT_DELTA, chunk_samples=400)
        assert new.tobytes() == old.tobytes()

    def test_centering(self):
        raw = log_mean_replicates(50, 1.0, 20_000, 0, shift=DEFAULT_DELTA)
        se = math.sqrt(3.0 / 50 / 20_000)
        # raw estimates sit at delta + BC(k); BC(50) is about -0.031
        assert abs(float(raw.mean()) - DEFAULT_DELTA - (-0.031)) < 0.01


def _whole_chunk_replicates(k, zeta, reps, seed, delta, chunk_samples=8_000_000):
    """Reference replicates: each chunk's n*k samples from one ``sample_g0``
    draw, shifted by delta, log-means row by row over the whole chunk."""
    out = np.empty(reps, dtype=np.float64)
    chunk = max(1, min(reps, chunk_samples // k))
    done = 0
    block = 0
    while done < reps:
        n = min(chunk, reps - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        y = delta + sample_g0(rng, n * k).reshape(n, k)
        v = zeta * y
        m = v.max(axis=1)
        out[done : done + n] = (
            m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))
        ) / zeta - math.log(zeta)
        done += n
        block += 1
    return out


class TestRunners:
    def test_bias_table_rows(self, shipped_bias_rows):
        spec = ExperimentSpec(kind="bias_table", k_values=[10])
        header, rows = run_bias_table(spec)
        assert header == ["k", "zeta", "bc"]
        (k, zeta, bc), = rows
        assert (k, zeta) == (10, 1.0)
        assert bc.hex() == resolve_bias(10, 1.0).hex()
        ref, se = shipped_bias_rows[(10, 1.0)]
        assert (ref, se) == (-0.1617, 8.8584e-4)
        assert abs(bc - ref) <= 5 * se

    def test_mse_curve_near_cr_floor(self):
        spec = ExperimentSpec(kind="mse_curve", k_values=[50])
        header, rows = run_mse_curve(spec)
        row = dict(zip(header, rows[0]))
        assert row["mse_abs"] == row["var"]
        # efficiency ~0.97: MSE within ~15% of the Cramer-Rao floor (1.0729 at k=50)
        assert 1.0 <= row["mse_abs"] / row["cr_bound"] < 1.2

    def test_mse_curve_is_the_quadrature_variance(self):
        spec = ExperimentSpec(kind="mse_curve", k_values=[2, 5], zeta_values=[0.9, 1.0])
        header, rows = run_mse_curve(spec)
        for row in map(dict, (zip(header, r) for r in rows)):
            k, zeta = row["k"], row["zeta"]
            assert row["mse_abs"] == quadrature.log_mean_variance(k, zeta) / zeta**2
            assert row["mse_rel"] == row["mse_abs"] / DEFAULT_DELTA**2
            assert row["cr_bound"] == 1.0 / (FISHER_INFO * k)
        # the corrected estimator's variance is infinite at k=2
        assert [math.isinf(r[2]) for r in rows] == [True, True, False, False]
        assert rows[3][2] == pytest.approx(0.950490, abs=1e-6)

    def test_tail_curve_rows(self):
        spec = ExperimentSpec(kind="tail_curve", epsilons=[0.1, 0.2])
        header, rows = run_tail_curve(spec)
        assert len(rows) == 2
        assert rows[0][1] == 0.1

    def test_tail_curve_shape(self):
        spec = ExperimentSpec(kind="tail_curve", epsilons=[0.05, 0.1, 0.2])
        header, rows = run_tail_curve(spec)
        curve = [dict(zip(header, row)) for row in rows]
        assert [r["epsilon"] for r in curve] == [0.05, 0.1, 0.2]
        # constants drift away from the limit as epsilon grows
        assert curve[0]["g_left"] < curve[1]["g_left"] < curve[2]["g_left"]

    def test_end_to_end_uniform(self):
        spec = ExperimentSpec(
            kind="end_to_end", k_values=[100], reps=3, seed=0,
            distribution="uniform", n_items=4, n_updates=2000,
        )
        header, rows = run_end_to_end(spec)
        assert len(rows) == 3
        for row in rows:
            d = dict(zip(header, row))
            assert d["entropy_oracle"] == pytest.approx(math.log(4), abs=0.05)
            assert abs(d["error"]) < 1.0

    def test_end_to_end_zipf(self):
        spec = ExperimentSpec(
            kind="end_to_end", k_values=[100], reps=2, seed=0,
            distribution="zipf", n_items=200, n_updates=5000, zipf_s=1.2,
        )
        _, rows = run_end_to_end(spec)
        assert all(abs(r[5]) < 1.0 for r in rows)

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        spec = ExperimentSpec(kind="tail_curve", epsilons=[0.1])
        header, rows = run(spec, out_path=out)
        with open(out, newline="") as fp:
            parsed = list(csv.reader(fp))
        assert parsed[0] == header
        # floats are written with repr: they round-trip exactly
        assert [float(x) for x in parsed[1][2:]] == list(rows[0][2:])
