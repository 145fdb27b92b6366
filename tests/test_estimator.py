"""Log-mean entropy estimator and its small-sample bias correction."""

import logging
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import paper
from entrosketch import quadrature
from entrosketch.estimator import (
    FISHER_INFO,
    are,
    asymptotic_std_error,
    estimate,
    log_mean,
    resolve_bias,
)
from entrosketch.sketch import new_sketch, sketch_stream
from entrosketch.stable import sample_g0
from paper import _bias_terms, bias_correction, bias_correction_digamma


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
            expected = float(paper._log_means(y[None], zeta)[0])
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
        # k=10..150, zeta in {1, 1.15}, where the 1/k^3 expansion holds
        assert len(shipped_bias_rows) == 30
        for (k, zeta), (bc, se) in shipped_bias_rows.items():
            closed_form = sum(_bias_terms(k, zeta))
            assert resolve_bias(k, zeta) == quadrature.bias_correction(k, zeta)
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
                monkeypatch.setattr(paper, "_worker_count", lambda: workers)
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
        monkeypatch.setattr(paper, "_CHUNK_SAMPLES", chunk_samples)
        if block is not None:
            monkeypatch.setattr(paper, "_BLOCK_SAMPLES", block)
        monkeypatch.setattr(paper, "_worker_count", lambda: workers)
        _assert_same_bits(
            bias_correction(k, zeta, reps=reps, seed=seed), _whole_chunks(k, zeta, reps, seed, chunk_samples)
        )

    def test_endpoint_words_redraw_the_whole_chunk(self, monkeypatch, coarse_open_unit):
        # words that would map to 1.0 are clamped, in blocks as in the
        # whole-chunk sample_g0 draw, so the two still agree bit for bit
        monkeypatch.setattr(paper, "_CHUNK_SAMPLES", 400)
        monkeypatch.setattr(paper, "_BLOCK_SAMPLES", 64)
        monkeypatch.setattr(paper, "_worker_count", lambda: 2)
        est = bias_correction(10, 1.0, reps=2000, seed=3)
        assert sum(coarse_open_unit) > 0
        _assert_same_bits(est, _whole_chunks(10, 1.0, 2000, 3, chunk_samples=400))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_blocks_run_on_pinned_threads(self, monkeypatch):
        pins = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 6})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))
        monkeypatch.setattr(paper, "_BLOCK_SAMPLES", 64)
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
        # auto is the quadrature at every k >= 2
        assert resolve_bias(10, 1.0, mode="auto") == quadrature.bias_correction(10, 1.0)
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
        # where the 1/k^3 expansion holds, near the smallest such k (k=15 at
        # 1.3, k=28 at 1.5) and at the benchmark's class (20, 0.9)
        assert resolve_bias(k, zeta) == quadrature.bias_correction(k, zeta)
        closed_form = sum(_bias_terms(k, zeta))
        est = bias_correction(k, zeta, seed=0)
        assert abs(closed_form - est.value) <= 3 * est.std_error

    @pytest.mark.parametrize("zeta", [0.5, 0.9, 1.0, 1.15, 1.5, 2.5])
    @pytest.mark.parametrize("k", [2, 8, 20, 100, 2217])
    def test_auto_is_the_quadrature(self, k, zeta):
        # one bias rule: no (k, zeta) takes another formula
        assert resolve_bias(k, zeta).hex() == quadrature.bias_correction(k, zeta).hex()

    def test_quadrature_fallback_is_logged(self, caplog):
        # every bias correction is a quadrature, at small k and large
        quadrature.bias_correction.cache_clear()
        for k, zeta in ((20, 1.5), (5, 1.0), (100, 2.0), (2217, 1.0)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="entrosketch.quadrature"):
                bc = resolve_bias(k, zeta)
                assert resolve_bias(k, zeta) == bc  # cached: logged once
            (record,) = caplog.records
            assert record.levelno == logging.INFO
            assert record.getMessage() == f"bias correction by quadrature: k={k}, zeta={zeta!r}"

    def test_no_cutoff_at_large_k(self):
        # the quadrature replaces the old table's "BC = 0 above k=1000"
        bc = resolve_bias(5000, 1.0)
        assert bc == quadrature.bias_correction(5000, 1.0)
        assert bc == pytest.approx(-3.0 / 10_000, rel=1e-3)


class TestQuadrature:
    """``quadrature.bias_correction`` against the references in ``tests/paper.py``: Monte
    Carlo, the 1/k^3 expansion and the digamma identity."""

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
                                         (5000, 1.0), (10, 1.15), (20, 1.15), (100, 1.15),
                                         (2217, 1.15)])
    def test_matches_closed_form_inside_its_region(self, k, zeta):
        # the 1/k^3 expansion of the moments, an independent large-k check: it
        # drops terms of order 1/k^4, which are below its last term
        terms = _bias_terms(k, zeta)
        assert abs(terms[2]) <= 2e-3  # the expansion's last term is small
        tolerance = max(abs(terms[2]), 1e-8)
        assert abs(quadrature.bias_correction(k, zeta) - sum(terms)) <= tolerance

    @pytest.mark.parametrize("zeta", [0.05, 1.0, 4.0, 50.0, 200.0])
    def test_finite_and_rising_to_zero_in_k(self, zeta):
        # E log(mean of k W's) rises with k towards log E W = 0
        values = [quadrature.bias_correction(k, zeta) for k in (2, 3, 7, 1000, 10**6)]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values) and values[-1] < 0.0

    def test_tiny_zeta(self):
        # BC/zeta scales rounding by 1/zeta: L - e^-t is summed as such, and BC(k, zeta)
        # tends to -log(4)/(2k) with k zeta, Var W = 4^zeta - 1 = zeta log 4 + ...
        values = [quadrature.bias_correction(2, zeta) for zeta in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert max(values) < 0.0  # E log(mean) < log E = 0 by Jensen
        assert max(values) - min(values) <= 5e-4
        assert quadrature.bias_correction(10**6, 1e-8) == pytest.approx(-6.9314718e-7, rel=0.01)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 10, 20, 100, 2217])
    def test_matches_the_digamma_identity_at_zeta_one(self, k):
        assert abs(quadrature.bias_correction(k, 1.0) - bias_correction_digamma(k)) <= 2e-10

    def test_k_below_two_or_a_bad_zeta_raises(self):
        for k, zeta in ((1, 1.0), (0, 1.0), (2, 0.0), (2, -1.0), (2, math.nan), (2, math.inf)):
            with pytest.raises(ValueError, match="needs k >= 2 and a finite zeta > 0"):
                quadrature.bias_correction(k, zeta)

    @pytest.mark.parametrize("zeta", [1e-300, 1e-320])
    def test_zeta_without_an_asymptotic_se_raises(self, zeta):
        # the rule and message ingest and estimate apply: a subnormal zeta once gave
        # BC(2, 1e-320) = -0.45257, its line's O(zeta) nodes rounded away
        message = f"zeta={zeta!r} has no finite positive asymptotic standard error at k=2"
        with pytest.raises(ValueError, match=message):
            quadrature.bias_correction(2, zeta)
        for mode in ("auto", "none"):
            with pytest.raises(ValueError, match=message):
                resolve_bias(2, zeta, mode=mode)


class TestLogMeanVariance:
    """``quadrature.log_mean_variance``, Var(log Ybar) of the mean of k W's."""

    @pytest.mark.parametrize("zeta", [0.9, 1.0, 1.15])
    @pytest.mark.parametrize("k", [5, 20, 200])
    def test_matches_monte_carlo(self, k, zeta):
        # the sample variance's SE needs E log^4 Ybar, finite only from k = 5
        x = paper.log_mean_replicates(k, zeta, 100_000, 15) * zeta
        dev = x - x.mean()
        var = float(np.var(x, ddof=1))
        se = math.sqrt((float(np.mean(dev**4)) - var**2) / x.size)
        assert abs(quadrature.log_mean_variance(k, zeta) - var) <= 5 * se

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_infinite_below_three(self, zeta):
        # D falls as (zeta/v)^k, so int v D dv diverges at k <= 2
        assert quadrature.log_mean_variance(2, zeta) == math.inf
        assert quadrature.log_mean_variance(1, zeta) == math.inf
        for k, z in ((0, zeta), (3, 0.0), (3, math.nan), (3, math.inf)):
            with pytest.raises(ValueError, match="needs k >= 1 and a finite zeta > 0"):
                quadrature.log_mean_variance(k, z)

    @pytest.mark.parametrize("zeta", [0.9, 1.0, 1.15])
    def test_falls_to_the_asymptote_like_one_over_k(self, zeta):
        # k Var(delta_hat) -> (4^zeta - 1)/zeta^2 from above, the gap shrinking like 1/k
        limit = (4.0**zeta - 1.0) / zeta**2
        gaps = [k * quadrature.log_mean_variance(k, zeta) / zeta**2 - limit
                for k in (20, 200, 2000)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert 200 * gaps[1] == pytest.approx(2000 * gaps[2], rel=0.1)

    @pytest.mark.parametrize("k, ref", [(3, 2.644934066848226436), (20, 0.1651520171488073057)])
    def test_matches_mpmath_at_zeta_one(self, k, ref):
        # 30-digit mpmath of 2 int v D dv + 2 gamma int D dv - (int D dv)^2 at
        # zeta = 1, where L(t) = 1/(1 + W0(t)): in v with mp.lambertw, and in
        # w = W0(e^v/k), which agree to 25 digits; at k = 3 both are 1 + pi^2/6
        # to all 25
        assert quadrature.log_mean_variance(k, 1.0) == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k, zeta, bits", [
        (2, 0.5, "-0x1.e0a4ba0a2f1a8p-1"), (3, 0.9, "-0x1.459448d52c832p-1"),
        (5, 1.0, "-0x1.69ccc83296dc1p-2"), (20, 1.15, "-0x1.679ae23fda3eap-4"),
        (100, 1.5, "-0x1.7be51469dec58p-6"), (2217, 0.9, "-0x1.463a536b145e1p-11"),
        (2, 1.0, "-0x1.45367fdab78bfp+0"), (2217, 1.0, "-0x1.62d7f7b123a46p-11"),
    ])
    def test_bias_correction_keeps_its_bits(self, k, zeta, bits):
        # BC shares the variance's integrand but keeps its own panels and stopping rule
        assert quadrature.bias_correction.__wrapped__(k, zeta).hex() == bits


class TestLaplace:
    """``quadrature.log_laplace``, the one L(t) = E exp(-t W)."""

    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_matches_monte_carlo(self, zeta):
        # at zeta = 1, L(t) = 1/(1 + W(t)) with W Lambert's function
        w = np.exp(zeta * sample_g0(np.random.default_rng(11), 1_000_000)) / zeta**zeta
        for t in (0.1, 1.0, 100.0):
            v = np.exp(-t * w)
            se = float(v.std(ddof=1)) / math.sqrt(v.size)
            assert abs(math.exp(quadrature.log_laplace(zeta, math.log(t))) - v.mean()) <= 5 * se, t

    @pytest.mark.parametrize("zeta", [1.15, 2.5, 50.0])
    def test_never_above_one(self, zeta):
        # at zeta = 50 and small t, 1 - L is near the line's rounding and L once came out
        # above 1, log L up to +1.5e-17
        for log_t in range(-60, -3):
            assert quadrature.log_laplace(zeta, float(log_t)) <= 0.0, log_t

    def test_closed_form_at_zeta_one(self, monkeypatch):
        # no Mellin-Barnes nodes and no Hankel contour, and log t beyond exp's range is fine
        def refuse(*args):
            raise AssertionError("a contour integral ran at zeta = 1")

        monkeypatch.setattr(quadrature, "_line", refuse)
        monkeypatch.setattr(quadrature, "_hankel", refuse)
        for log_t in (-30.0, -1.0, 0.0, 1.0, 5.0, 1e4):
            w = math.expm1(-quadrature.log_laplace(1.0, log_t))  # W(t) = 1/L(t) - 1
            assert math.log(w) + w == pytest.approx(log_t, rel=1e-14, abs=1e-14)  # w e^w = t
        assert quadrature.log_laplace(1.0, -800.0) == 0.0  # t = e^-800 is 0 in doubles
        bc = quadrature.bias_correction.__wrapped__(3, 1.0)  # uncached
        assert abs(bc - bias_correction_digamma(3)) <= 2e-10

    @pytest.mark.parametrize("zeta, log_t, ref", [
        (0.01, 1.5, 0.018019247366328748), (0.05, 1.0, 0.1002904690824943),
        (0.3, 0.0, 0.4625858894432916), (0.9, -3.0, 0.9541636605762496),
        (0.9, 0.0, 0.6175971029102074), (1.15, 2.0, 0.433191639674069037),
        (1.5, 0.0, 0.722733465778322035), (2.5, 5.0, 0.5106369601171053),
        (0.9, 60.0, 0.01570050791485373), (1.15, 300.0, 0.003904505979146607),
        (0.3, 5000.0, 6.002222355546404e-5),
    ])
    def test_matches_mpmath(self, zeta, log_t, ref):
        # 30-digit mpmath values of 1 + pi^-1 Re int_0^inf Gamma(z) t^-z (-z)^(-zeta z) dy,
        # z = -1/2 + iy: the Mellin-Barnes line at log t <= 8 max(1, zeta), the Hankel contour above
        value = math.exp(quadrature.log_laplace(zeta, log_t))
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        if ref > 0.5:
            assert 1.0 - value == pytest.approx(1.0 - ref, rel=1e-12, abs=0.0)


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
        assert corrected.bias_correction == quadrature.bias_correction(10, 1.0)
        assert corrected.delta_hat == pytest.approx(raw.delta_hat - corrected.bias_correction)

    def test_recommended_width_is_corrected_without_warning(self):
        # k=2217 is what `entrosketch size --epsilon 0.1 --gamma 0.05` gives;
        # BC there is the quadrature's, about -6.77e-4, and the hand-written
        # t1 + t2 + t3 from the moments of W agrees within its last term
        c2, c3, c4 = 3.0, 27.0 - 12.0 + 2.0, 256.0 - 108.0 + 24.0 - 3.0
        k = 2217
        t1 = -c2 / (2 * k)
        t2 = (c3 / 3 - 3 * c2**2 / 4) / k**2
        t3 = (2 * c2 * c3 - (c4 - 3 * c2**2) / 4 - 5 * c2**3 / 2) / k**3
        s = sketch_stream([("a", 1.0), ("b", 1.0)], k=k, master_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(s)
        assert result.bias_correction.hex() == quadrature.bias_correction(k, 1.0).hex()
        assert abs(result.bias_correction - bias_correction_digamma(k)) <= 2e-10
        assert abs(result.bias_correction - (t1 + t2 + t3)) <= max(abs(t3), 1e-8)
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
