"""Chernoff tail constants and the sketch-size calculator.

Frozen decimals below were cross-checked against high-precision partial
sums and an independent golden-section implementation before being pinned.
"""

import math

import numpy as np
import pytest

from entrosketch import quadrature, tailbounds
from entrosketch.quadrature import log_laplace, moment_top
from entrosketch.stable import sample_g0
from entrosketch.tailbounds import (
    exceedance_bound,
    golden_section_max,
    required_sketch_size,
    tail_constants,
)
from paper import laplace_series, m_series, small_eps_limit


class TestSeries:
    def test_domain(self):
        # t < 1/e at zeta = 1, any t >= 0 at zeta < 1
        assert math.isfinite(m_series(1.0, 0.366))
        with pytest.raises(ValueError):
            m_series(1.0, math.exp(-1.0))
        for zeta in (0.0, -1.0, 1.01):
            with pytest.raises(ValueError):
                m_series(zeta, 0.1)

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


class TestMoment:
    """``log_laplace(zeta, log t, -1.0)``: log M(t), M(t) = L(-t) = E exp(t W)."""

    def test_closed_form_at_zeta_one(self):
        # M(t) = 1/(1 + W0(-t)) up to the edge of the series' domain
        for t in (0.01, 0.1, 0.2, 0.3, 0.35, 0.36, 0.366):
            ref = math.log(m_series(1.0, t))
            assert log_laplace(1.0, math.log(t), -1.0) == pytest.approx(ref, rel=1e-14), t
        assert log_laplace(1.0, -1.0, -1.0) == math.inf  # M diverges from t = 1/e on

    @pytest.mark.parametrize("zeta, t, ref", [
        (0.9, 0.1, 0.11458136995), (0.5, 5.0, 34.3263610897),
        (0.99, 0.2245, 0.357144861723), (0.9, 0.4874, 1.74588793936),
    ])
    def test_matches_the_series_below_one(self, zeta, t, ref):
        # the Abel-Plana integrals, where the series sums in doubles
        value = log_laplace(zeta, math.log(t), -1.0)
        assert value == pytest.approx(math.log(m_series(zeta, t)), rel=1e-10)
        assert value == pytest.approx(ref, rel=1e-10)

    def test_matches_monte_carlo(self):
        zeta = 0.5
        w = np.exp(zeta * sample_g0(np.random.default_rng(12), 1_000_000)) / zeta**zeta
        for t in (0.1, 1.0):
            v = np.exp(t * w)
            se = float(v.std(ddof=1)) / math.sqrt(v.size)
            assert abs(math.exp(log_laplace(zeta, math.log(t), -1.0)) - v.mean()) <= 5 * se, t

    def test_no_exponential_moment_above_one(self):
        assert log_laplace(1.5, math.log(0.01), -1.0) == math.inf

    @pytest.mark.parametrize("zeta, t, ref", [
        (0.9, 1.0, 811.459777975898005), (0.5, 20.0, 544.003016065125183),
        (0.3, 50.0, 287.470901115772521),
    ])
    def test_matches_mpmath(self, zeta, t, ref):
        # the series summed in 30-digit mpmath, past where doubles sum it
        assert log_laplace(zeta, math.log(t), -1.0) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("zeta, refs", [
        (0.05, (0.0500889679371788, 0.1003529137312333, 0.3030730767694621, 1.0305785840793866,
                3.2106659707337328, 11.329551887157896, 61.539250873223570)),
        (0.3, (0.0506475308337209, 0.1026012820157862, 0.3237768031112033, 1.2727693357956044,
               5.3470751483979259, 29.005986631477636, 287.47090111577252)),
        (0.5, (0.0512752359636410, 0.1052044061351685, 0.3507841149535812, 1.7380850555477561,
               12.582588810268430, 136.26097386831660, 3398.1988714303455)),
        (0.7, (0.0521383092871150, 0.1089418750507636, 0.3979238232528039, 3.7242324434892431,
               121.07256288236186, 6665.7282295052185, 1424651.2947741733)),
        (0.9, (0.0533508217070720, 0.1145813699509220, 0.5062188347018142, 811.45977797589800,
               47847901.435232645, 8103083927576.5929, None)),
        (0.99, (0.0540591560886815, 0.1181432503446878, 0.6431447210044474, None, None, None,
                None)),
    ])
    def test_matches_mpmath_on_the_grid(self, zeta, refs):
        # 30-digit mpmath: the series where it is short, else the two Abel-Plana integrals
        # by mp.quad (they agree to 40 digits where both run); None where f's peak x* =
        # (e^zeta t)^(1/(1 - zeta)) is past e^33, and M is taken as inf
        for t, ref in zip((0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 50.0), refs):
            value = log_laplace(zeta, math.log(t), -1.0)
            if ref is None:
                assert value == math.inf and math.log(t) >= moment_top(zeta), t
            else:
                assert value == pytest.approx(ref, rel=1e-12, abs=0.0), t

    def test_inf_past_what_doubles_resolve(self):
        # at zeta = 0.99 f's peak is near x* = e^99 at t = 1, e^29.7 at t = 0.5
        assert log_laplace(0.99, 0.0, -1.0) == math.inf
        assert 1e10 < log_laplace(0.99, math.log(0.5), -1.0) < math.inf

    @pytest.mark.parametrize("zeta", [0.05, 0.5, 0.9, 0.99])
    def test_inf_from_moment_top_on(self, zeta):
        # log f's terms at its peak are near x* log x*: from x* = e^33 on, their rounding
        # is about 1, and M is taken as inf
        top = moment_top(zeta)
        assert (top + zeta) / (1.0 - zeta) == pytest.approx(33.0, rel=1e-12)
        assert log_laplace(zeta, top, -1.0) == math.inf
        assert 0.0 < log_laplace(zeta, top - 1e-6, -1.0) < math.inf
        assert moment_top(1.0) == -1.0 and moment_top(1.5) == -math.inf


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
        # 40-digit mpmath: the sup over log t of -log1p(W0(-t)) has no series to cut
        assert r.g_right == pytest.approx(5.97780452314256418, rel=1e-13)

    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_limit_at_tiny_epsilon(self, zeta, eps):
        # t* is near eps/3: the search runs over log t, and log M is the
        # log1p form at zeta = 1 and the moment series near t = 0 below it
        limit = small_eps_limit(zeta)
        r = tail_constants(zeta, eps)
        assert abs(r.g_right / limit - 1.0) <= eps + 1e-6
        assert abs(r.g_left / limit - 1.0) <= eps + 1e-6

    @pytest.mark.parametrize("zeta, eps", [(1.0, 1e-9), (1.0, 1e-200), (0.5, 1e-9), (1e-10, 0.1)])
    def test_refused_below_the_rounding_floor(self, zeta, eps):
        with pytest.raises(ValueError, match=f"no tail constants at zeta={zeta!r}, epsilon={eps!r}: "):
            tail_constants(zeta, eps)

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
        # M(t) = L(-t) is finite for every t at zeta < 1, so every point has constants
        for eps in (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0):
            r = tail_constants(zeta, eps)
            for value in (r.g_right, r.g_left, r.t_star_right, r.t_star_left):
                assert 0.0 < value < math.inf, (eps, r)

    @pytest.mark.parametrize("zeta, eps, g_right, rel", [
        (0.9, 1.0, 4.151197943, 1e-9),  # as the moment series gave it
        # where the series overflows doubles: 40-digit mpmath, the sup of -log M(t) + t e^(zeta
        # eps) at M'/M = e^(zeta eps), with M the series in mpmath
        (0.99, 1.0, 4.0479719774700447, 1e-9),
        (0.9, 3.0, 1.6344339763638726, 1e-9),
    ])
    def test_right_tail_below_zeta_one(self, zeta, eps, g_right, rel):
        assert tail_constants(zeta, eps).g_right == pytest.approx(g_right, rel=rel)

    @pytest.mark.parametrize("zeta, eps", [(0.99, 30.0), (0.5, 700.0), (1.0, 50.0)])
    def test_large_epsilon(self, zeta, eps):
        # the right tail's sup over the t whose log M doubles resolve: a valid, larger G_R
        r = tail_constants(zeta, eps)
        assert 0.0 < r.g_right < math.inf and 0.0 < r.g_left < math.inf

    @pytest.mark.parametrize("zeta", [0.99, 1.0])
    @pytest.mark.parametrize("eps", [30.0, 50.0])
    def test_left_tail_sup_has_no_cap(self, zeta, eps):
        # the search once stopped at t = 2^60, below the sup from about eps = 50; the
        # bound was valid but loose: G_L 682.66459935371381 at zeta = 1 and 680.67875031406640 at 0.99
        r = tail_constants(zeta, eps)
        el = math.exp(-zeta * eps)

        def objective(t):
            return -log_laplace(zeta, math.log(t)) - t * el

        t = r.t_star_left
        assert objective(t) >= max(objective(2.0 * t), objective(t / 2.0))
        if eps == 50.0:
            assert t > 2.0**60
            assert r.g_left < {0.99: 680.6787503140664, 1.0: 682.6645993537138}[zeta]

    def test_bracket_grows_geometrically(self, monkeypatch):
        # at (0.5, 700) the left sup is near t = e^345: steps of log 2 took 501 evaluations
        counts, expand = [], tailbounds._expand_bracket

        def counted(f, v):
            calls = []
            hi = expand(lambda x: calls.append(x) or f(x), v)
            counts.append(len(calls))
            return hi

        monkeypatch.setattr(tailbounds, "_expand_bracket", counted)
        r = tail_constants(0.5, 700.0)
        assert len(counts) == 2 and max(counts) < 30
        assert r.g_left == pytest.approx(75094.26776399191, rel=1e-12)

    def test_no_table_at_zeta_one(self, monkeypatch):
        # both tails read W0's closed form: no rho table, no contour integral, no panels
        def refuse(*args):
            raise AssertionError("a table or an integral ran at zeta = 1")

        for name in ("_line", "_hankel", "_abel_plana", "_panels"):
            monkeypatch.setattr(quadrature, name, refuse)
        for eps in (0.001, 0.1, 1.0, 3.0):
            tail_constants(1.0, eps)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tail_constants(1.15, 0.1)  # no exponential bound above zeta=1
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                tail_constants(1.0, eps)
        for zeta in (1e-50, 1e-300):  # the rule ingest applies
            with pytest.raises(ValueError, match="has no finite positive asymptotic standard error"):
                tail_constants(zeta, 0.1)

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
