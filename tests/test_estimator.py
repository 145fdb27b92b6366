"""Log-mean entropy estimator and its small-sample bias correction."""

import logging
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from entrosketch import montecarlo, quadrature
from entrosketch.estimator import (
    FISHER_INFO,
    _bias_terms,
    are,
    asymptotic_std_error,
    estimate,
    log_mean,
    resolve_bias,
)
from entrosketch.montecarlo import bias_correction
from entrosketch.sketch import new_sketch, sketch_stream
from entrosketch.stable import sample_g0


class TestLogMean:
    def test_constant_vector(self):
        # y_j = c for all j: log-mean reduces to c - log(zeta)/zeta... check
        # directly against the definition
        for zeta in (0.6, 1.0, 1.15):
            y = np.full(50, -1.3)
            expected = (
                math.log(zeta**-zeta * np.mean(np.exp(zeta * y))) / zeta
            )
            assert log_mean(y, zeta) == pytest.approx(expected, rel=1e-12)

    def test_location_equivariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        shift = 0.7
        assert log_mean(y + shift, 1.0) == pytest.approx(log_mean(y, 1.0) + shift, rel=1e-9)

    def test_overflow_safe(self):
        # max-shifted log-sum-exp must survive values that overflow exp()
        y = np.array([800.0, 801.0, 799.0])
        assert math.isfinite(log_mean(y, 1.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            log_mean(np.array([]), 1.0)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [1, 20, 200, 2217])
    def test_within_two_ulp_of_the_monte_carlo_rows(self, k, zeta):
        # numpy's SIMD exp and pairwise sum against libm exp and fsum: the
        # mean's relative error moves log(mean) by a few ulp of 1, and
        # m + log(mean) rounds at the size of its terms, so the bound is on
        # that scale, not on the result's, which can be near zero
        for seed in range(200 if k < 2217 else 40):
            y = sample_g0(np.random.default_rng(seed), k)
            v = (zeta * y).tolist()
            m = max(v)
            log_mean_exp = math.log(math.fsum(math.exp(x - m) for x in v) / k)
            scale = max(1.0, abs(m) + abs(log_mean_exp)) / zeta
            expected = float(montecarlo._log_means(y[None], zeta)[0])
            assert abs(log_mean(y, zeta) - expected) <= 2 * math.ulp(scale), seed


class TestBiasTable:
    def test_shipped_reference_rows(self, shipped_bias_rows):
        bc10, se10 = shipped_bias_rows[(10, 1.0)]
        assert bc10 == pytest.approx(-0.1617, abs=1e-12)
        assert se10 > 0
        bc100, _ = shipped_bias_rows[(100, 1.15)]
        assert bc100 == pytest.approx(-0.01719, abs=1e-12)

    def test_closed_form_matches_every_shipped_row(self, shipped_bias_rows):
        # the shipped rows are Monte Carlo values (5e5 replicates) at
        # k=10..150, zeta in {1, 1.15}, all inside the closed form's region
        assert len(shipped_bias_rows) == 30
        for (k, zeta), (bc, se) in shipped_bias_rows.items():
            closed_form = sum(_bias_terms(k, zeta))
            assert resolve_bias(k, zeta) == closed_form
            assert abs(closed_form - bc) <= 3 * se, (k, zeta)


class TestBiasCorrection:
    def test_reproduces_shipped_value_smoke(self):
        # 10^4-replicate smoke check against the shipped k=10 constant
        est = bias_correction(10, 1.0, reps=10_000, seed=0)
        assert abs(est.value - (-0.1617)) <= 0.01

    # (k, zeta, reps, seed, chunk samples): several chunks with a shorter
    # last one, k above one block (of both sizes below), one replicate per
    # chunk, n*k % 4 != 0, one replicate, a last block shorter than the others
    GRID = [
        pytest.param(7, 1.3, 2000, 9, 5000, id="several-chunks"),
        pytest.param(20_001, 1.0, 3, 2, 8_000_000, id="k-above-block"),
        pytest.param(20_000, 0.9, 3, 5, 5000, id="k-above-chunk"),
        pytest.param(7, 1.3, 12_345, 9, 8_000_000, id="nk-mod-4"),
        pytest.param(5, 1.0, 1, 0, 8_000_000, id="one-rep"),
        pytest.param(20, 0.9, 2000, 0, 8_000_000, id="short-last-block"),
        pytest.param(3, 0.5, 77, 5, 8_000_000, id="tiny"),
    ]

    def test_worker_independent_chunking(self, monkeypatch):
        # counter-based streams: the bits depend only on (k, zeta, reps, seed),
        # also with more workers than cores switching threads often
        reference = _whole_chunks(25, 1.0, 30_000, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
                _assert_same_bits(bias_correction(25, 1.0, reps=30_000, seed=4), reference)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [64, None])
    @pytest.mark.parametrize("k, zeta, reps, seed, chunk_samples", GRID)
    def test_matches_whole_chunk_draw(
        self, monkeypatch, k, zeta, reps, seed, chunk_samples, block, workers
    ):
        # the chunk partition defines the stream; block size and worker
        # count must not change a single bit
        monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk_samples)
        if block is not None:
            monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", block)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        _assert_same_bits(
            bias_correction(k, zeta, reps=reps, seed=seed), _whole_chunks(k, zeta, reps, seed, chunk_samples)
        )

    def test_endpoint_words_redraw_the_whole_chunk(self, monkeypatch, coarse_open_unit):
        # words that would map to 1.0 are clamped, in blocks as in the
        # whole-chunk sample_g0 draw, so the two still agree bit for bit
        monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", 400)
        monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 64)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
        est = bias_correction(10, 1.0, reps=2000, seed=3)
        assert sum(coarse_open_unit) > 0
        _assert_same_bits(est, _whole_chunks(10, 1.0, 2000, 3, chunk_samples=400))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_blocks_run_on_pinned_threads(self, monkeypatch):
        pins = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 6})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))
        monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 64)
        est = bias_correction(10, 1.0, reps=2000, seed=3)
        assert sorted(pins, key=min) == [{4}, {6}]  # one chunk, in two parts
        _assert_same_bits(est, _whole_chunks(10, 1.0, 2000, 3))

    def test_memory_is_bounded_by_blocks(self):
        # drawing each chunk whole peaked at about 155 MiB here
        tracemalloc.start()
        try:
            bias_correction(20, 0.9, reps=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_single_rep_has_nan_se(self):
        est = bias_correction(10, 1.0, reps=1, seed=0)
        assert math.isnan(est.std_error)


def _whole_chunks(k, zeta, reps, seed, chunk_samples=8_000_000):
    """Reference Monte Carlo BC: each chunk's n*k samples from one
    ``sample_g0`` draw, log-means row by row over the whole chunk."""
    chunk = max(1, min(reps, chunk_samples // k))
    parts = []
    for chunk_idx, start in enumerate(range(0, reps, chunk)):
        n = min(chunk, reps - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_idx]))
        v = zeta * sample_g0(rng, n * k).reshape(n, k)
        m = v.max(axis=1)
        parts.append((m + np.log(np.mean(np.exp(v - m[:, None]), axis=1))) / zeta - math.log(zeta))
    values = np.concatenate(parts)
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else float("nan")
    return float(values.mean()), se


def _assert_same_bits(est, reference):
    value, se = reference
    assert est.value.hex() == value.hex()
    assert est.std_error.hex() == se.hex()


class TestResolveBias:
    def test_modes(self):
        assert resolve_bias(10, 1.0, mode="none") == 0.0
        assert resolve_bias(10, 1.0, mode="auto") == sum(_bias_terms(10, 1.0))
        # outside the closed form's region, auto takes the quadrature
        assert resolve_bias(5, 1.0, mode="auto") == quadrature.bias_correction(5, 1.0)

    def test_unknown_mode_raises(self):
        # "table" and "mc" (Monte Carlo) were modes once; neither may fall through
        for mode in ("table", "mc"):
            with pytest.raises(ValueError, match="unknown bias mode"):
                resolve_bias(10, 0.77, mode=mode)

    def test_k1_has_no_bias_correction(self):
        # E exp(sX) = s^s, so E X = -inf: BC(1, zeta) = -inf at every zeta
        for zeta in (0.5, 1.0, 2.0):
            with pytest.raises(ValueError, match="^k=1 has no finite bias correction"):
                resolve_bias(1, zeta)
            assert resolve_bias(1, zeta, mode="none") == 0.0

    def test_quadrature_cached(self):
        quadrature.bias_correction.cache_clear()
        a = resolve_bias(12, 1.6)
        b = resolve_bias(12, 1.6)
        assert a == b
        assert quadrature.bias_correction.cache_info().hits == 1

    @pytest.mark.parametrize("k, zeta", [(10, 1.0), (20, 0.9), (15, 1.3), (28, 1.5), (100, 1.15)])
    def test_closed_form_matches_monte_carlo(self, k, zeta):
        # inside the region, near its edge (k=15 at 1.3, k=28 at 1.5) and
        # at the benchmark's Monte Carlo class (20, 0.9)
        calls = quadrature.bias_correction.cache_info()
        closed_form = resolve_bias(k, zeta)
        assert quadrature.bias_correction.cache_info() == calls  # no quadrature ran
        est = bias_correction(k, zeta, seed=0)
        assert abs(closed_form - est.value) <= 3 * est.std_error

    def test_quadrature_fallback_is_logged(self, caplog):
        # outside the closed form's region: (20, 1.5) and (5, 1) have a
        # 1/k^3 term above 2e-3; (100, 2) has a small one, but zeta > 1.5
        quadrature.bias_correction.cache_clear()
        for k, zeta in ((20, 1.5), (5, 1.0), (100, 2.0)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="entrosketch.quadrature"):
                bc = resolve_bias(k, zeta)
                assert resolve_bias(k, zeta) == bc  # cached: logged once
            (record,) = caplog.records
            assert record.levelno == logging.INFO
            assert record.getMessage() == f"bias correction by quadrature: k={k}, zeta={zeta!r}"

    def test_no_cutoff_at_large_k(self):
        # the closed form replaces the old table's "BC = 0 above k=1000"
        bc = resolve_bias(5000, 1.0)
        assert bc == sum(_bias_terms(5000, 1.0))
        assert bc == pytest.approx(-3.0 / 10_000, rel=1e-3)


class TestQuadrature:
    """``quadrature.bias_correction`` against the package's two other rules."""

    @pytest.mark.parametrize("zeta", [0.5, 0.8, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 64])
    def test_matches_monte_carlo(self, k, zeta):
        # 10^5 replicates: a standard error of about 1e-3 at k=64
        est = bias_correction(k, zeta, reps=100_000, seed=7)
        assert abs(quadrature.bias_correction(k, zeta) - est.value) <= 3 * est.std_error

    def test_matches_every_shipped_row(self, shipped_bias_rows):
        for (k, zeta), (bc, se) in shipped_bias_rows.items():
            assert abs(quadrature.bias_correction(k, zeta) - bc) <= 3 * se, (k, zeta)

    @pytest.mark.parametrize("k, zeta", [(8, 1.0), (10, 1.0), (20, 1.0), (100, 1.0), (2217, 1.0),
                                         (10, 1.15), (20, 1.15), (100, 1.15), (2217, 1.15)])
    def test_matches_closed_form_inside_its_region(self, k, zeta):
        # the expansion drops terms of order 1/k^4: they are below its last term
        terms = _bias_terms(k, zeta)
        assert abs(terms[2]) <= 2e-3  # inside the region
        tolerance = max(abs(terms[2]), 1e-8)
        assert abs(quadrature.bias_correction(k, zeta) - sum(terms)) <= tolerance

    @pytest.mark.parametrize("zeta", [0.05, 1.0, 4.0, 50.0])
    def test_finite_and_rising_to_zero_in_k(self, zeta):
        # E log(mean of k W's) rises with k towards log E W = 0
        values = [quadrature.bias_correction(k, zeta) for k in (2, 3, 7, 1000, 10**6)]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values) and values[-1] < 0.0

    def test_k_below_two_or_a_bad_zeta_raises(self):
        for k, zeta in ((1, 1.0), (0, 1.0), (2, 0.0), (2, -1.0), (2, math.nan), (2, math.inf)):
            with pytest.raises(ValueError, match="needs k >= 2 and a finite zeta > 0"):
                quadrature.bias_correction(k, zeta)


class TestEstimate:
    def test_single_item_entropy_near_zero(self):
        # one distinct item: p = (1,), H = 0; residual is estimator noise
        s = new_sketch(k=100, master_seed=2)
        s.update("only", 50.0)
        result = estimate(s)
        assert result.entropy_hat == -result.delta_hat
        assert abs(result.entropy_hat) <= 4 * result.asymptotic_se

    def test_uniform_four(self):
        elements = [(str(i % 4), 1.0) for i in range(20_000)]
        s = sketch_stream(elements, k=200, master_seed=9)
        result = estimate(s)
        assert abs(result.entropy_hat - math.log(4)) <= 4 * result.asymptotic_se

    def test_requires_positive_total(self):
        with pytest.raises(ValueError):
            estimate(new_sketch(k=10))

    def test_bc_mode_none_differs(self):
        s = sketch_stream([("a", 1.0), ("b", 1.0)], k=10, master_seed=0)
        raw = estimate(s, bc_mode="none")
        corrected = estimate(s, bc_mode="auto")
        assert raw.bias_correction == 0.0
        assert corrected.bias_correction == sum(_bias_terms(10, 1.0))
        assert corrected.delta_hat == pytest.approx(raw.delta_hat - corrected.bias_correction)

    def test_recommended_width_is_corrected_without_warning(self):
        # k=2217 is what `entrosketch size --epsilon 0.1 --gamma 0.05` gives;
        # BC there is t1 + t2 + t3 from the moments of W, about -6.77e-4
        c2, c3, c4 = 3.0, 27.0 - 12.0 + 2.0, 256.0 - 108.0 + 24.0 - 3.0
        k = 2217
        t1 = -c2 / (2 * k)
        t2 = (c3 / 3 - 3 * c2**2 / 4) / k**2
        t3 = (2 * c2 * c3 - (c4 - 3 * c2**2) / 4 - 5 * c2**3 / 2) / k**3
        s = sketch_stream([("a", 1.0), ("b", 1.0)], k=k, master_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(s)
        assert result.bias_correction == pytest.approx(t1 + t2 + t3, rel=1e-12)
        assert result.bias_correction == pytest.approx(-6.77e-4, abs=5e-7)


class TestEfficiency:
    def test_closed_form_values(self):
        assert are(1.0) == pytest.approx(0.968, abs=1e-3)
        assert are(1.15) == pytest.approx(0.978, abs=1e-3)

    def test_argmax_near_one_point_one_five(self):
        grid = np.arange(0.5, 2.0, 0.001)
        best = grid[int(np.argmax([are(z) for z in grid]))]
        assert best == pytest.approx(1.15, abs=0.01)

    def test_asymptotic_std_error(self):
        for k, zeta in ((20, 1.0), (100, 1.15)):
            expected = math.sqrt((4.0**zeta - 1.0) / (zeta**2 * k))
            assert asymptotic_std_error(k, zeta) == pytest.approx(expected, rel=1e-12)

    def test_fisher_info_constant(self):
        assert FISHER_INFO == 0.3445
