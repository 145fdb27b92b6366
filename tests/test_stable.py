"""Sampler checks for the maximally skewed alpha=1 projection law.

The law is pinned down by its exponential moments: E[exp(k X)] = k^k.
All Monte Carlo tolerances are 5 sigma using the exact variances
(2k)^(2k) - k^(2k), so failures indicate a wrong sampler, not bad luck.
"""

import cmath
import math

import numpy as np
import pytest

from entrosketch import stable
from entrosketch.stable import (
    G0_PARAMS,
    HALF_PI,
    StableParams,
    UniformExpPair,
    char_fn,
    cms_transform,
    g0_from_uniform_exp,
    sample_g0,
    sample_positive_stable,
    y_alpha_mgf,
    y_alpha_transform,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


class TestParams:
    def test_projection_law_constants(self):
        assert G0_PARAMS.alpha == 1.0
        assert G0_PARAMS.beta == -1.0
        assert G0_PARAMS.gamma == HALF_PI
        assert G0_PARAMS.delta == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            StableParams(alpha=alpha, beta=0.0, gamma=1.0, delta=0.0)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            StableParams(alpha=1.0, beta=-1.5, gamma=1.0, delta=0.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            StableParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)

    @pytest.mark.parametrize("u", [-HALF_PI, HALF_PI])
    def test_uniform_endpoint_rejected(self, u):
        with pytest.raises(ValueError):
            UniformExpPair(u=u, w=1.0)

    def test_exponential_must_be_positive(self):
        with pytest.raises(ValueError):
            UniformExpPair(u=0.0, w=0.0)


class TestTransform:
    def test_matches_specialised_formula(self):
        # the general transform at the projection-law parameters must agree
        # with the hand-reduced hot-path formula
        rng = _rng(1)
        for _ in range(200):
            pair = UniformExpPair(
                u=float(rng.uniform(-HALF_PI, HALF_PI)),
                w=float(rng.exponential()),
            )
            full = cms_transform(pair, G0_PARAMS)
            fast = g0_from_uniform_exp(pair.u, pair.w)
            assert full == pytest.approx(fast, rel=1e-12, abs=1e-12)

    def test_deterministic(self):
        pair = UniformExpPair(u=0.3, w=1.7)
        assert g0_from_uniform_exp(0.3, 1.7) == g0_from_uniform_exp(0.3, 1.7)
        assert cms_transform(pair, G0_PARAMS) == cms_transform(pair, G0_PARAMS)

    def test_finite_on_grid(self):
        us = np.linspace(-HALF_PI + 1e-9, HALF_PI - 1e-9, 101)
        for u in us:
            assert math.isfinite(g0_from_uniform_exp(float(u), 1.0))


class TestMoments:
    # E[exp(kX)] = k^k with Var(exp(kX)) = (2k)^(2k) - k^(2k)
    N = 200_000

    @pytest.mark.parametrize(
        "order,target",
        [(1, 1.0), (2, 4.0), (3, 27.0)],
    )
    def test_exponential_moments(self, order, target):
        x = sample_g0(_rng(7), self.N)
        est = float(np.mean(np.exp(order * x)))
        var = (2 * order) ** (2 * order) - order ** (2 * order)
        tol = 5.0 * math.sqrt(var / self.N)
        assert abs(est - target) <= tol

    def test_scalar_draw(self):
        x = sample_g0(_rng(2))
        assert isinstance(x, float)
        assert math.isfinite(x)


class TestCharFn:
    def test_at_zero(self):
        assert char_fn(0.0) == 1.0 + 0.0j

    def test_modulus(self):
        # |(i theta)^(i theta)| = exp(-pi |theta| / 2)
        for theta in (0.25, 0.5, 1.0, 2.0, -1.0):
            assert abs(char_fn(theta)) == pytest.approx(
                math.exp(-HALF_PI * abs(theta)), rel=1e-12
            )

    def test_conjugate_symmetry(self):
        for theta in (0.3, 1.2):
            assert char_fn(-theta) == pytest.approx(char_fn(theta).conjugate())

    def test_empirical_cf(self):
        x = sample_g0(_rng(11), 200_000)
        for theta in (0.5, 1.0):
            ecf = complex(np.mean(np.exp(1j * theta * x)))
            assert abs(ecf - char_fn(theta)) < 0.01


class TestPositiveStable:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_laplace_transform(self, alpha):
        # E[exp(-lam Z)] = exp(-lam^alpha)
        z = sample_positive_stable(alpha, _rng(5), 200_000)
        assert np.all(z > 0)
        for lam in (0.5, 1.0, 2.0):
            est = float(np.mean(np.exp(-lam * z)))
            target = math.exp(-(lam**alpha))
            se = float(np.std(np.exp(-lam * z))) / math.sqrt(z.size)
            assert abs(est - target) <= 5.0 * se

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            sample_positive_stable(alpha, _rng(0))


class _FixedWords:
    """A stand-in generator whose successive ``integers`` draws return the given words."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def integers(self, low, high, size, dtype):
        return np.array(next(self._draws), dtype=dtype)


BELOW_ONE = 1.0 - 2.0**-53
TOP_WORDS = [2**64 - 2**11, 2**64 - 2**10, 2**64 - 1]  # all map to 1 - 2^-53


class TestOpenUnitClamp:
    def test_top_words_map_below_one(self):
        assert stable._BELOW_ONE == BELOW_ONE
        assert stable._open_unit(np.array(TOP_WORDS, dtype=np.uint64)).tolist() == [BELOW_ONE] * 3

    @pytest.mark.parametrize("top", ["u", "w", "both"])
    def test_samplers_finite_at_the_clamp(self, top):
        # u01 or w01 (or both) at 1 - 2^-53 next to ordinary words
        ordinary = [2**63, 12345, 2**64 // 3]
        u = TOP_WORDS if top in ("u", "both") else ordinary
        w = TOP_WORDS if top in ("w", "both") else ordinary
        x = sample_g0(_FixedWords(u, w), 3)
        assert np.all(np.isfinite(x))
        for alpha in (0.3, 0.5, 0.8, 0.99):
            z = sample_positive_stable(alpha, _FixedWords(u, w), 3)
            assert np.all(np.isfinite(z)) and np.all(z > 0)


class TestPositiveStableBottomWords:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.99])
    def test_u_words_below_512_take_the_smallest_positive_u(self, alpha):
        # words 0-511 give U = u + pi/2 = 0 exactly, where log sin U is -inf;
        # they are clamped to 2^-52, the U of words 512 to 1023
        w = [2**63, 12345]
        z = sample_positive_stable(alpha, _FixedWords([0, 0], w), 2)
        assert np.all(np.isfinite(z)) and np.all(z > 0)
        assert z.tolist() == sample_positive_stable(alpha, _FixedWords([1023, 1023], w), 2).tolist()


class TestYAlpha:
    def test_mgf_matches_monte_carlo(self):
        alpha = 0.5
        z = sample_positive_stable(alpha, _rng(9), 400_000)
        y = y_alpha_transform(alpha, z)
        for theta in (0.5, 1.0):
            v = np.exp(theta * y)
            est = float(np.mean(v))
            se = float(np.std(v)) / math.sqrt(v.size)
            assert abs(est - y_alpha_mgf(alpha, theta)) <= 5.0 * se

    def test_mgf_limit_is_theta_power_theta(self):
        # as alpha -> 1 the transformed law approaches the projection law,
        # whose mgf at theta is theta^theta
        for theta in (1.0, 2.0, 3.0):
            vals = [y_alpha_mgf(a, theta) for a in (0.9, 0.99, 0.999)]
            target = theta**theta
            errs = [abs(v - target) for v in vals]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 0.1 * target
