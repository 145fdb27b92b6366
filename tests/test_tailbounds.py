"""Chernoff tail constants and the sketch-size calculator.

Frozen decimals below were cross-checked against high-precision partial
sums and an independent golden-section implementation before being pinned.
"""

import math

import numpy as np
import pytest

from entrosketch.quadrature import log_laplace
from entrosketch.tailbounds import (
    SeriesDomain,
    exceedance_bound,
    golden_section_max,
    m_series,
    required_sketch_size,
    series_domain,
    tail_constants,
    tail_curve,
)
from paper import laplace_series, small_eps_limit


class TestSeries:
    def test_domain(self):
        assert series_domain(1.0).t_max == pytest.approx(math.exp(-1.0))
        assert series_domain(0.5).t_max == math.inf
        for zeta in (0.0, -1.0, 1.01):
            with pytest.raises(ValueError):
                series_domain(zeta)

    def test_at_zero(self):
        assert m_series(1.0, 0.0) == 1.0
        assert m_series(0.5, 0.0) == 1.0

    def test_reference_value(self):
        # independent partial-sum computation
        assert m_series(1.0, 0.1) == pytest.approx(1.1259138, abs=5e-7)

    def test_first_terms_dominate_small_t(self):
        # M(t) = 1 + t + 4 t^2/2 + 27 t^3/6 + ...
        t = 1e-4
        partial = 1.0 + t + 2.0 * t**2 + 4.5 * t**3
        assert m_series(1.0, t) == pytest.approx(partial, abs=1e-12)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            m_series(1.0, 0.4)  # beyond 1/e
        for zeta in (0.5, 1.0):  # M(-t) is L(t), which log_laplace computes
            with pytest.raises(ValueError):
                m_series(zeta, -0.1)

    def test_converges_for_small_zeta_large_t(self):
        assert math.isfinite(m_series(0.5, 5.0))

    @pytest.mark.parametrize("zeta", [0.3, 0.5, 0.9, 1.0])
    def test_laplace_matches_alternating_series(self, zeta):
        # L(t) = M(-t): the alternating series is exact enough for small t
        for t in (1e-4, 0.01, 0.1, 0.3):
            ref = math.log(laplace_series(zeta, t))
            assert abs(log_laplace(zeta, math.log(t)) - ref) <= 1e-9, t


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_maximum(self):
        x, _ = golden_section_max(lambda t: t, 0.0, 2.0)
        assert x == pytest.approx(2.0, abs=1e-6)


class TestTailConstants:
    def test_near_limit_at_small_epsilon(self):
        r = tail_constants(1.0, 0.01)
        assert abs(r.g_right - 6.0) / 6.0 < 0.02
        assert abs(r.g_left - 6.0) / 6.0 < 0.02
        # frozen decimals from the first implementation pass
        assert r.g_right == pytest.approx(5.9778045, abs=1e-4)
        assert r.g_left == pytest.approx(6.0222490, abs=1e-4)

    def test_small_eps_limit(self):
        # 2 (4^zeta - 1) / zeta^2
        assert small_eps_limit(1.0) == pytest.approx(6.0, rel=1e-12)
        assert small_eps_limit(0.5) == pytest.approx(8.0, rel=1e-12)

    def test_limit_reached_for_zeta_half(self):
        r = tail_constants(0.5, 0.005)
        assert r.g_right == pytest.approx(8.0, rel=0.02)
        assert r.g_left == pytest.approx(8.0, rel=0.02)

    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_residuals_decay_monotonically(self, zeta):
        limit = small_eps_limit(zeta)
        residuals = [
            max(abs(tail_constants(zeta, e).g_right - limit),
                abs(tail_constants(zeta, e).g_left - limit))
            for e in (0.5, 0.1, 0.02)
        ]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_left_tail_sup_runs_over_every_t(self):
        # at zeta = 1 the left tail's sup lies beyond 1/e from eps = 1 on;
        # 40-digit mpmath gives G_L(1, 1) = 8.4924395620336...
        r = tail_constants(1.0, 1.0)
        assert r.t_star_left > math.exp(-1.0)
        assert r.g_left == pytest.approx(8.4924395620336, rel=1e-12)

    @pytest.mark.parametrize("zeta", [0.05, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0])
    def test_constants_or_a_value_error_on_the_grid(self, zeta):
        for eps in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0):
            try:
                r = tail_constants(zeta, eps)
            except ValueError as exc:
                # the right tail's series overflows near its optimum
                assert f"no tail constants at zeta={zeta!r}, epsilon={eps!r}" in str(exc)
                assert zeta < 1.0 and eps >= 0.5
                continue
            for value in (r.g_right, r.g_left, r.t_star_right, r.t_star_left):
                assert 0.0 < value < math.inf, (eps, r)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tail_constants(1.15, 0.1)  # no exponential bound above zeta=1
        with pytest.raises(ValueError):
            tail_constants(1.0, 0.0)

    def test_optimizer_interior(self):
        r = tail_constants(1.0, 0.1)
        assert 0.0 < r.t_star_right < math.exp(-1.0)
        assert 0.0 < r.t_star_left < math.exp(-1.0)


class TestSketchSize:
    def test_reference_sizes(self):
        assert required_sketch_size(0.1, 0.05) == 2217
        assert required_sketch_size(0.3, 0.1) == 202

    def test_bound_satisfied_and_tight(self):
        eps, gamma = 0.1, 0.05
        k = required_sketch_size(eps, gamma)
        bounds = tail_constants(1.0, eps)
        assert exceedance_bound(k, eps, bounds) <= gamma
        assert exceedance_bound(k - 1, eps, bounds) > gamma

    def test_inverse_square_law(self):
        k1 = required_sketch_size(0.1, 0.05)
        k2 = required_sketch_size(0.05, 0.05)
        assert k2 / k1 == pytest.approx(4.0, rel=0.01)

    def test_monotone_in_gamma(self):
        assert required_sketch_size(0.2, 0.01) > required_sketch_size(0.2, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_sketch_size(0.0, 0.1)
        with pytest.raises(ValueError):
            required_sketch_size(0.1, 0.0)
        with pytest.raises(ValueError):
            required_sketch_size(0.1, 1.0)
        with pytest.raises(ValueError):
            required_sketch_size(0.1, 0.05, zeta=1.15)

    def test_exceedance_bound_formula(self):
        bounds = tail_constants(1.0, 0.1)
        k = 100
        expected = math.exp(-k * 0.01 / bounds.g_right) + math.exp(
            -k * 0.01 / bounds.g_left
        )
        assert exceedance_bound(k, 0.1, bounds) == pytest.approx(expected, rel=1e-12)

    def test_tail_curve_shape(self):
        curve = tail_curve(1.0, [0.05, 0.1, 0.2])
        assert [r.epsilon for r in curve] == [0.05, 0.1, 0.2]
        # constants drift away from the limit as epsilon grows
        assert curve[0].g_left < curve[1].g_left < curve[2].g_left
