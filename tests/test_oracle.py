"""Exact (non-streaming) entropy oracle used as ground truth in tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosketch.oracle import AccumulationVector, exact_entropies, shannon_entropy
from paper import from_probabilities, limit_check


def uniform4():
    return AccumulationVector.from_stream([(str(i), 1.0) for i in range(4)])


class TestAccumulation:
    def test_counts_and_total(self):
        acc = AccumulationVector()
        acc.add("a", 2.0).add("b").add("a", -1.0)
        assert acc.total == pytest.approx(2.0)  # signed sum of deltas
        assert sorted(acc.probabilities()) == pytest.approx([0.5, 0.5])

    def test_from_probabilities(self):
        acc = from_probabilities([0.25, 0.75])
        assert sorted(acc.probabilities()) == pytest.approx([0.25, 0.75])

    def test_negative_final_count_rejected(self):
        acc = AccumulationVector()
        acc.add("a", 1.0).add("a", -2.0)
        with pytest.raises(ValueError):
            acc.probabilities()

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            AccumulationVector().probabilities()

    def test_zero_count_items_dropped(self):
        acc = AccumulationVector()
        acc.add("a", 1.0).add("b", 1.0).add("b", -1.0)
        assert shannon_entropy(acc) == pytest.approx(0.0, abs=1e-12)


class TestShannon:
    def test_uniform(self):
        assert shannon_entropy(uniform4()) == pytest.approx(math.log(4), rel=1e-12)

    def test_point_mass(self):
        acc = AccumulationVector.from_stream([("a", 5.0)])
        assert shannon_entropy(acc) == pytest.approx(0.0, abs=1e-12)

    def test_known_biased_coin(self):
        acc = from_probabilities([0.25, 0.75])
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert shannon_entropy(acc) == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_bounds(self, weights):
        acc = from_probabilities(weights)
        h = shannon_entropy(acc)
        assert -1e-12 <= h <= math.log(len(weights)) + 1e-12


class TestAlphaEntropies:
    def test_uniform_all_alphas_equal(self):
        # for the uniform law every Renyi entropy equals log n
        for alpha in (0.5, 0.9, 2.0):
            _, h_alpha, _ = exact_entropies(uniform4(), alpha)
            assert h_alpha == pytest.approx(math.log(4), rel=1e-12)

    def test_tsallis_closed_form(self):
        # fair coin: S_alpha = (1 - 2^(1-alpha)) / (alpha - 1)
        acc = from_probabilities([0.5, 0.5])
        for alpha in (0.5, 2.0):
            _, _, s_alpha = exact_entropies(acc, alpha)
            expected = (1.0 - 2.0 ** (1.0 - alpha)) / (alpha - 1.0)
            assert s_alpha == pytest.approx(expected, rel=1e-12)

    def test_alpha_validation(self):
        for alpha in (0.0, -1.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                exact_entropies(uniform4(), alpha)

    @pytest.mark.parametrize("weights, alpha, h_ref, s_ref", [
        ([1, 2], 1 - 1e-12, 0.63651416829486620094, 0.6365141682950687716),
        ([1, 2], 2000.0, 0.40566794207920398397, 0.00050025012506253126563),
        ([1 / j for j in range(1, 30)], 1 - 1e-12, 2.8039309108178665773, 2.8039309108217975046),
        ([1 / j for j in range(1, 30)], 2000.0, 1.3773502388577942537, 0.00050025012506253126563),
        ([1e-320, 1], 0.01, 0.00063712960038933233814, 0.00063733058003684600783),
    ], ids=["third-near-1", "third-2000", "zipf-near-1", "zipf-2000", "subnormal-0.01"])
    def test_matches_mpmath(self, weights, alpha, h_ref, s_ref):
        # 50-digit mpmath on the exact distribution weights/sum(weights): near
        # alpha = 1, sum p^alpha - 1 once cancelled to 1.9e-4 relative, and at
        # alpha = 2000, sum p^alpha underflowed to 0 and its log failed; a
        # subnormal p has (alpha - 1) log p past expm1's range
        _, h_alpha, s_alpha = exact_entropies(from_probabilities(weights), alpha)
        assert h_alpha == pytest.approx(h_ref, rel=1e-15, abs=0.0)
        assert s_alpha == pytest.approx(s_ref, rel=1e-15, abs=0.0)

    def test_returns_shannon_too(self):
        h, _, _ = exact_entropies(uniform4(), 0.9)
        assert h == pytest.approx(math.log(4), rel=1e-12)


class TestLimit:
    def test_residuals_decrease_toward_zero(self):
        # both alpha-entropies converge to Shannon entropy as alpha -> 1
        rows = limit_check(uniform4(), [0.9, 0.99, 0.999])
        r1 = [abs(row[1]) for row in rows]
        r2 = [abs(row[2]) for row in rows]
        assert r1[0] > r1[1] > r1[2]
        assert r2[0] > r2[1] > r2[2]
        assert r1[2] < 1e-2 and r2[2] < 1e-2

    def test_nonuniform_distribution(self):
        acc = from_probabilities([0.7, 0.2, 0.1])
        rows = limit_check(acc, [0.99, 0.999])
        assert abs(rows[1][1]) < abs(rows[0][1])
