"""Closed-form analytics against independent oracles and pinned values."""

import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineswarm import rw_analytics
from lineswarm.errors import DegenerateConfigurationError, ValidationError
from lineswarm.rw_analytics import (
    CATALAN_MAX_K,
    WalkParams,
    _ratio_power,
    catalan,
    expected_steps_to_minus_one,
    farthest_excursion_bound,
    finite_chain_oracle,
    first_passage_moments,
    first_passage_pmf,
    gathering_bound_from_terms,
    gathering_bound_unilateral,
    gathering_time_bound,
    markov_span_bound,
    min_fractional_distance,
    prob_hit_minus_one,
    prob_hit_plus_one,
    reflected_chain_mean,
    stationary_pi,
    tail_prob_single,
    tail_prob_sum,
)

from oracles import (
    absorbing_chain_exact,
    circular_fraction,
    half_shrink_bound,
    hit_prob_series_partial_sums,
    min_fractional_distance_sorted,
    ratio_power_loop,
    reflected_chain_mean_series,
)

EPSILONS = [0.0, 0.02, 0.1, 0.25, 0.3, 0.45, 0.49]

epsilons_st = st.floats(min_value=0.0, max_value=0.499, allow_nan=False)


class TestWalkParams:
    def test_alpha_complements_epsilon_exactly(self):
        for eps in [0.0, 0.1, 0.25, 0.3, 0.499, 1e-9, 0.4999999]:
            p = WalkParams(eps)
            assert p.epsilon + p.alpha == 0.5

    @given(epsilons_st)
    def test_alpha_complement_property(self, eps):
        p = WalkParams(eps)
        assert p.epsilon + p.alpha == 0.5
        assert 0.0 < p.alpha <= 0.5

    @pytest.mark.parametrize("bad", [-0.01, 0.5, 0.7, 1.0, float("nan"), float("inf")])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValidationError):
            WalkParams(bad)


class TestCatalan:
    def test_trivial_and_pinned(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        # independent oracle: direct binomial evaluation
        assert catalan(10) == math.comb(20, 10) // 11 == 16796

    @given(st.integers(min_value=0, max_value=CATALAN_MAX_K))
    def test_matches_binomial_oracle(self, k):
        assert catalan(k) == math.comb(2 * k, k) // (k + 1)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            catalan(CATALAN_MAX_K + 1)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3"])
    def test_bad_inputs(self, bad):
        with pytest.raises(ValidationError):
            catalan(bad)


class TestHitProbabilities:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.49])
    def test_minus_one_certain(self, eps):
        assert prob_hit_minus_one(WalkParams(eps)) == 1.0

    def test_plus_one_values(self):
        assert prob_hit_plus_one(WalkParams(0.0)) == 0.0
        assert prob_hit_plus_one(WalkParams(0.1)) == pytest.approx(1 / 9, rel=1e-14)
        assert prob_hit_plus_one(WalkParams(0.25)) == pytest.approx(1 / 3, rel=1e-14)

    @given(epsilons_st)
    def test_never_reach_complement(self, eps):
        # the complement of reaching +1 is (1-2eps)/(1-eps)
        p = WalkParams(eps)
        assert 1.0 - prob_hit_plus_one(p) == pytest.approx(
            (1 - 2 * eps) / (1 - eps), rel=1e-12
        )

    def test_series_partial_sums_increase_toward_one(self):
        for eps in [0.02, 0.1, 0.2, 0.25, 0.3, 0.45]:
            sums = hit_prob_series_partial_sums(WalkParams(eps))
            # strictly increasing until terms drop below float visibility
            assert all(b >= a for a, b in zip(sums, sums[1:]))
            assert sums[0] < sums[-1] <= 1.0 + 1e-12

    def test_series_tail_magnitude(self):
        # Exact tail of the truncated series, by rational arithmetic:
        # 2.2e-7 at eps=0.25 but 1.75e-5 at eps=0.3, so the 1e-6 closeness
        # claim holds on [0, 0.25] and demonstrably not at 0.3.
        for eps, tol in [(0.02, 1e-6), (0.1, 1e-6), (0.2, 1e-6), (0.25, 1e-6), (0.3, 1e-4)]:
            gap = 1.0 - hit_prob_series_partial_sums(WalkParams(eps))[-1]
            assert abs(gap) < tol
        exact_gap_03 = 1 - sum(
            (1 - Fraction("0.3"))
            * Fraction(math.comb(2 * k, k), k + 1)
            * (Fraction("0.3") * (1 - Fraction("0.3"))) ** k
            for k in range(36)
        )
        assert float(exact_gap_03) > 1e-6  # the tighter claim is unattainable there


class TestFirstPassageMoments:
    def test_expected_steps_values(self):
        assert expected_steps_to_minus_one(WalkParams(0.0)) == 1.0
        assert expected_steps_to_minus_one(WalkParams(0.1)) == pytest.approx(1.25)
        assert expected_steps_to_minus_one(WalkParams(0.25)) == pytest.approx(2.0)

    def test_excursion_bound_values(self):
        assert farthest_excursion_bound(WalkParams(0.0)) == 0.0
        assert farthest_excursion_bound(WalkParams(0.1)) == pytest.approx(0.125)
        assert farthest_excursion_bound(WalkParams(0.25)) == pytest.approx(0.5)


class TestStationaryDistribution:
    def test_pinned_values(self):
        p = WalkParams(0.1)
        assert stationary_pi(p, 1) == pytest.approx(8 / 9, rel=1e-14)
        assert stationary_pi(p, 2) == pytest.approx(8 / 81, rel=1e-14)
        assert stationary_pi(WalkParams(0.0), 1) == 1.0
        assert stationary_pi(WalkParams(0.0), 5) == 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            stationary_pi(WalkParams(0.1), 0)
        with pytest.raises(ValidationError):
            tail_prob_single(WalkParams(0.1), 0)
        with pytest.raises(ValidationError):
            tail_prob_sum(WalkParams(0.1), 1)

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.3, 0.45])
    def test_partial_sum_error_equals_tail(self, eps):
        p = WalkParams(eps)
        for K in [1, 2, 5, 10, 30]:
            partial = math.fsum(stationary_pi(p, k) for k in range(1, K + 1))
            assert 1.0 - partial == pytest.approx(tail_prob_single(p, K + 1), abs=1e-13)

    def test_tail_single_pinned(self):
        assert tail_prob_single(WalkParams(0.37), 1) == 1.0
        assert tail_prob_single(WalkParams(0.1), 3) == pytest.approx(1 / 81, rel=1e-14)
        assert tail_prob_single(WalkParams(0.25), 2) == pytest.approx(1 / 3, rel=1e-14)

    def test_tail_sum_pinned(self):
        assert tail_prob_sum(WalkParams(0.0), 2) == 1.0
        assert tail_prob_sum(WalkParams(0.31), 2) == 1.0
        p = WalkParams(0.1)
        assert tail_prob_sum(p, 4) == pytest.approx(25 / 729, rel=1e-13)
        assert tail_prob_sum(p, 3) == pytest.approx(17 / 81, rel=1e-13)

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.3, 0.45])
    def test_tail_sum_strictly_decreasing(self, eps):
        p = WalkParams(eps)
        vals = [tail_prob_sum(p, k) for k in range(2, 60)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [0.34, 0.4, 0.45])
    def test_tails_never_rise_in_k(self, eps):
        # above eps = 1/3 the power of the ratio reaches subnormals that one more
        # factor rounds back to themselves; the power must end at 0.0 there, or
        # tail_prob_sum's growing linear factor makes the tail rise again
        p = WalkParams(eps)
        for tail, k0 in [(stationary_pi, 1), (tail_prob_single, 1), (tail_prob_sum, 2)]:
            vals = [tail(p, k) for k in range(k0, 8001)]
            assert all(b <= a for a, b in zip(vals, vals[1:])), tail.__name__
            assert vals[-1] == 0.0

    def test_ratio_power_equals_the_scalar_loop(self):
        # chunks of 2**16 products: k runs across chunk ends; the power stalls
        # at a subnormal from k = 65,537 at the first of these two epsilons,
        # the first product of the second chunk, and from k = 68,564 at 0.4973
        eps_grid = [0.0, 1e-12, 1e-6, 0.05, 0.1, 0.25, 1 / 3, 0.4, 0.45, 0.4971751098632813,
                    0.4973, 0.499, 0.4999999]
        ks = [0, 1, 2, 3, 64, 1_000, 65_536, 65_537, 68_563, 68_564, 131_073, 140_001]
        for eps in eps_grid:
            p = WalkParams(eps)
            for k in ks:
                assert _ratio_power(p, k).hex() == ratio_power_loop(p, k).hex(), (eps, k)

    def test_ratio_power_factor_budget(self, monkeypatch):
        # below the underflow cut the power runs one factor at a time, so a
        # power past the budget is refused instead of run; past the cut, and
        # at epsilon = 0, it is 0.0 with no factor run, whatever the budget
        monkeypatch.setattr(rw_analytics, "_POWER_BUDGET", 1_000)
        p = WalkParams(0.45)  # cut near 3,700 factors
        assert _ratio_power(p, 1_000).hex() == ratio_power_loop(p, 1_000).hex()
        with pytest.raises(ValidationError, match=r"needs 1001 factors, past the limit of 1000"):
            _ratio_power(p, 1_001)
        assert _ratio_power(p, 10**6) == 0.0
        assert _ratio_power(WalkParams(0.0), 10**18) == 0.0
        assert _ratio_power(WalkParams(0.0), 0) == 1.0

    def test_tail_sum_is_two_fold_convolution_tail(self):
        # independent oracle: P(X+Y >= k) by direct convolution of pi
        p = WalkParams(0.22)
        kmax = 200
        pi = [stationary_pi(p, k) for k in range(1, kmax + 1)]
        for k in range(2, 15):
            s = sum(
                pi[i - 1] * pi[j - 1]
                for i in range(1, kmax + 1)
                for j in range(1, kmax + 1)
                if i + j >= k
            )
            assert tail_prob_sum(p, k) == pytest.approx(s, rel=1e-9)


class TestMarkovSpanBound:
    def test_pinned_values(self):
        assert markov_span_bound(WalkParams(0.1), 10) == pytest.approx(0.125)
        assert markov_span_bound(WalkParams(0.0), 1) == 1.0
        assert markov_span_bound(WalkParams(0.25), 20) == pytest.approx(0.1)

    def test_domain(self):
        with pytest.raises(ValidationError):
            markov_span_bound(WalkParams(0.1), 0.0)

    def test_dominates_tail_sum_on_grid(self):
        for eps in np.arange(0.01, 0.451, 0.02):
            p = WalkParams(float(eps))
            for k in range(3, 40):
                assert markov_span_bound(p, k) >= tail_prob_sum(p, k)


class TestSweepBound:
    def test_pinned_values(self):
        assert gathering_bound_unilateral((0.0, 0.5, 1.7), WalkParams(0.1)) == pytest.approx(3.75)
        assert gathering_bound_unilateral((0.0, 0.5), WalkParams(0.0)) == pytest.approx(1.0)
        # agents a whole number of units above the beacon need no extra move
        assert gathering_bound_unilateral((0.0, 1.0, 2.0), WalkParams(0.1)) == pytest.approx(3.75)
        assert gathering_bound_unilateral(
            np.array([0.0, 2.3, 2.4, 2.5]), WalkParams(0.25)
        ) == pytest.approx(18.0)

    def test_rejects_duplicates_and_disorder(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, 0.0), np.array([0.0, 2.0, 1.5])]:
            with pytest.raises(ValidationError, match="strictly increasing"):
                gathering_bound_unilateral(bad, WalkParams(0.1))

    @pytest.mark.parametrize("bad", [(0.0,), (0.0, math.inf), (0.0, math.nan),
                                     ((0.0, 1.0), (2.0, 3.0))])
    def test_rejects_short_and_non_finite(self, bad):
        with pytest.raises(ValidationError):
            gathering_bound_unilateral(bad, WalkParams(0.1))


class TestFirstPassageLaw:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.45])
    @pytest.mark.parametrize("levels", [1, 2, 3, 7])
    def test_matches_the_absorbed_walk(self, eps, levels):
        # the walk stepped tick by tick in exact rationals: the mass that
        # first reaches `levels` net inward moves at tick t is P(T = t)
        keep, back = 1 - Fraction(eps), Fraction(eps)
        live = {0: Fraction(1)}
        for t in range(1, 80):
            nxt = {}
            for x, mass in live.items():
                nxt[x + 1] = nxt.get(x + 1, 0) + mass * keep
                nxt[x - 1] = nxt.get(x - 1, 0) + mass * back
            exact = nxt.pop(levels, 0)
            live = {x: mass for x, mass in nxt.items() if mass}
            assert first_passage_pmf(WalkParams(eps), levels, t) == pytest.approx(
                float(exact), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.45])
    @pytest.mark.parametrize("levels", [1, 3, 20])
    def test_moments_are_the_law_s(self, eps, levels):
        p = WalkParams(eps)
        law = np.array([first_passage_pmf(p, levels, t) for t in range(10_000)])
        t = np.arange(law.size)
        mean, var = first_passage_moments(p, levels)
        assert math.fsum(law) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(t * law) == pytest.approx(mean, rel=1e-10)
        assert math.fsum((t - mean) ** 2 * law) == pytest.approx(var, rel=1e-9, abs=1e-12)

    def test_pinned_values_and_domain(self):
        # criterion 5's sweep: three levels at eps = 0.1
        assert first_passage_moments(WalkParams(0.1), 3) == (3.75, 2.109375)
        assert first_passage_pmf(WalkParams(0.1), 3, 3) == pytest.approx(0.729)
        assert first_passage_pmf(WalkParams(0.1), 3, 2) == 0.0  # too soon
        assert first_passage_pmf(WalkParams(0.1), 3, 4) == 0.0  # odd parity
        with pytest.raises(ValidationError):
            first_passage_pmf(WalkParams(0.1), 0, 5)
        with pytest.raises(ValidationError):
            first_passage_moments(WalkParams(0.1), 0)


class TestHalfShrinkBound:
    def test_pinned_values(self):
        assert half_shrink_bound(4, 2, 5, WalkParams(0.1)) == pytest.approx(7.5)
        assert half_shrink_bound(3, 0.5, 1.5, WalkParams(0.0)) == pytest.approx(1.5)
        assert half_shrink_bound(3, 2, 3, WalkParams(0.25)) == pytest.approx(6.0)

    def test_preconditions(self):
        p = WalkParams(0.1)
        with pytest.raises(ValidationError):
            half_shrink_bound(2, 1, 3, p)
        with pytest.raises(ValidationError):
            half_shrink_bound(4, 0, 3, p)
        with pytest.raises(ValidationError):
            half_shrink_bound(4, 2, 2.5, p)


def _brute_force_fracdist(values):
    fracs = [circular_fraction(v) for v in values]
    best = 1.0
    for i in range(len(fracs)):
        for j in range(i + 1, len(fracs)):
            gap = abs(fracs[i] - fracs[j])
            best = min(best, gap, 1.0 - gap)
    return best


class TestMinFractionalDistance:
    def test_pinned_values(self):
        assert min_fractional_distance([0.0, 0.5]) == pytest.approx(0.5)
        assert min_fractional_distance([0.1, 0.4, 2.45]) == pytest.approx(
            _brute_force_fracdist([0.1, 0.4, 2.45])
        )
        assert min_fractional_distance([0.2, 1.9]) == pytest.approx(0.3)

    def test_duplicates_degenerate(self):
        with pytest.raises(DegenerateConfigurationError):
            min_fractional_distance([0.25, 3.25])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_matches_brute_force(self, values):
        brute = _brute_force_fracdist(values)
        if brute == 0.0:
            with pytest.raises(DegenerateConfigurationError):
                min_fractional_distance(values)
        else:
            d = min_fractional_distance(values)
            assert d == pytest.approx(brute, abs=1e-15)
            assert 0.0 < d <= 0.5

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e15, max_value=1e15),
                st.floats(min_value=-1e-15, max_value=1e-15),
                st.sampled_from([-0.0, 0.0, -1e-20, -1e-300, -5e-324, 0.5, -0.5, 1e15 + 0.5]),
            ),
            min_size=2,
            max_size=10,
        ),
        st.integers(-3, 3),
    )
    @example([-1e-20, 1e-300], 0)  # 1e-300 apart on the circle, once 1.0 folds to 0.0
    @example([-1e-20, 0.0], 0)
    def test_bit_equal_to_the_sorted_scalar_reference(self, values, shift):
        # one more copy of the first value moved by whole units repeats a
        # fractional part (exactly, below 2**52), which must raise on both
        if shift:
            values = values + [values[0] + shift]
        try:
            expect = min_fractional_distance_sorted(values)
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError):
                min_fractional_distance(values)
            with pytest.raises(DegenerateConfigurationError):
                min_fractional_distance(np.array(values))
        else:
            assert min_fractional_distance(values).hex() == expect.hex()
            assert min_fractional_distance(np.array(values)).hex() == expect.hex()

    @pytest.mark.parametrize("bad", [(0.5,), (), (0.5, math.inf), (math.nan, 0.25),
                                     ((0.1, 0.2), (0.3, 0.4))])
    def test_rejects_short_and_non_finite(self, bad):
        with pytest.raises(ValidationError):
            min_fractional_distance(bad)


class TestGatheringTimeBound:
    def test_pinned_values(self):
        assert gathering_time_bound((0.1, 0.35, 1.6, 2.85), WalkParams(0.1)) == pytest.approx(3.125)
        assert gathering_time_bound(
            np.array([0.1, 0.3, 4.4, 8.7]), WalkParams(0.0)
        ) == pytest.approx(36.9)

    def test_subnormal_gap_gives_a_finite_bound(self):
        # s0 = 0.5 and s0 / d overflows; log2(s0) - log2(d) is 1024.3, so 1025
        # halvings and (4 (0.5 + 1025) + (2.25 - 0.5 - 1)) / (1 - 0) ticks
        d = 2.225073858507203e-309
        assert gathering_time_bound([0.0, d, 1.5, 2.25], WalkParams(0.0)) == 4102.75

    def test_already_gathered_is_zero(self):
        assert gathering_time_bound((0.1, 0.2, 0.9, 5.3), WalkParams(0.1)) == 0.0

    def test_duplicate_fracs_degenerate(self):
        # 3.125 % 1 == 0.125 exactly (dyadic), a true duplicate in doubles
        with pytest.raises(DegenerateConfigurationError):
            gathering_time_bound((0.125, 0.6, 3.125, 7.9), WalkParams(0.1))

    @pytest.mark.parametrize("bad, message", [
        ((0.1, 0.35, 2.85, 1.6), "sorted non-decreasing"),
        ((0.1, 0.35, 1.6), "at least 4 agents"),
        ((0.1, 0.35, 1.6, math.inf), "finite"),
        ((math.nan, 0.1, 0.35, 1.6), "finite"),
    ])
    def test_rejects_disorder_short_and_non_finite(self, bad, message):
        with pytest.raises(ValidationError, match=message):
            gathering_time_bound(bad, WalkParams(0.1))

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=12),
        epsilons_st,
    )
    def test_equals_the_bound_from_sorted_scalar_terms(self, values, eps):
        # reference: the four order statistics as Python floats, d by the scalar sort
        pos = sorted(values)
        p = WalkParams(eps)
        s0 = pos[-2] - pos[1] - 1.0
        try:
            expect = 0.0 if s0 <= 0 else gathering_bound_from_terms(
                len(pos), s0, pos[-1] - pos[0], min_fractional_distance_sorted(pos), p)
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError):
                gathering_time_bound(pos, p)
        else:
            assert gathering_time_bound(pos, p).hex() == expect.hex()
            assert gathering_time_bound(np.array(pos), p).hex() == expect.hex()

    @given(
        st.integers(min_value=4, max_value=400),
        st.floats(min_value=0.01, max_value=500.0),
        st.floats(min_value=0.001, max_value=0.5),
        epsilons_st,
    )
    def test_monotone_in_n_and_s0(self, n, s0, d, eps):
        p = WalkParams(eps)
        span = s0 + 10.0
        base = gathering_bound_from_terms(n, s0, span, d, p)
        assert gathering_bound_from_terms(n + 1, s0, span, d, p) >= base
        assert gathering_bound_from_terms(n, s0 * 1.5, span, d, p) >= base


class TestFiniteChainOracle:
    def test_single_step_barrier(self):
        sol = finite_chain_oracle(WalkParams(0.1), 1, -1)
        p_left, p_right, steps = sol.at(0)
        assert p_right == pytest.approx(0.1, abs=1e-14)
        assert p_left == pytest.approx(0.9, abs=1e-14)
        assert steps == pytest.approx(1.0, abs=1e-12)

    def test_far_barrier_reproduces_first_passage(self):
        sol = finite_chain_oracle(WalkParams(0.1), 50, -1)
        p_left, p_right, steps = sol.at(0)
        assert 1.2499 <= steps <= 1.25
        assert p_left == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.25, 0.4])
    def test_matches_expected_steps_formula(self, eps):
        p = WalkParams(eps)
        barrier = max(2, math.ceil(50 / (1 - 2 * eps)))
        steps = finite_chain_oracle(p, barrier, -1).at(0)[2]
        assert steps == pytest.approx(expected_steps_to_minus_one(p), rel=1e-4)

    def test_absorption_certain(self):
        sol = finite_chain_oracle(WalkParams(0.3), 12, -7)
        np.testing.assert_allclose(sol.p_left + sol.p_right, 1.0, atol=1e-12)

    def test_matches_gamblers_ruin_closed_form(self):
        # independent route: lambda-form of the classical ruin probability
        p = WalkParams(0.2)
        lam = p.ratio
        for barrier, floor in [(3, -4), (10, -2), (6, -6)]:
            sol = finite_chain_oracle(p, barrier, floor)
            expect = (lam ** (barrier) - lam ** (barrier - floor)) / (
                1 - lam ** (barrier - floor)
            )
            assert sol.at(0)[1] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4])
    def test_matches_exact_rational_elimination(self, eps):
        # the elimination is backward stable, so its error is a few ulps of
        # the largest entry; near eps = 1/2 the chain grows ill-conditioned,
        # and the bitwise LAPACK comparison below covers that range instead
        p = WalkParams(eps)
        for span in range(2, 40):  # 3 to 40 states
            for left in sorted({-1, -(span // 2)}):
                sol = finite_chain_oracle(p, span + left, left)
                got = (sol.p_left, sol.p_right, sol.expected_steps)
                for values, exact in zip(got, absorbing_chain_exact(eps, span + left, left)):
                    ulp = Fraction(math.ulp(float(max(exact))))
                    worst = max(abs(Fraction(float(v)) - x) for v, x in zip(values, exact))
                    assert worst <= 8 * ulp, (span, left)

    def test_bitwise_equal_to_lapack_banded_solve(self):
        # the elimination follows LAPACK's ?gtsv operation for operation, so it
        # reproduces scipy's tridiagonal solve to the last bit
        linalg = pytest.importorskip("scipy.linalg")
        eps_grid = [0.0, 1e-12, 1e-6, 0.05, 0.1, 0.25, 1 / 3, 0.4, 0.45, 0.499, 0.4999999]
        for eps in eps_grid:
            for right, left in [(1, -1), (1, -10), (10, -1), (1, -50), (50, -1),
                                (13, -29), (500, -500), (1, -9_999)]:
                m = right - left - 1
                band = np.zeros((3, m))
                band[0, 1:] = -eps
                band[1, :] = 1.0
                band[2, :-1] = -(1.0 - eps)
                rhs = np.zeros((3, m))
                rhs[0, 0] = 1.0 - eps
                rhs[1, -1] = eps
                rhs[2, :] = 1.0
                sol = finite_chain_oracle(WalkParams(eps), right, left)
                for values, b in zip((sol.p_left, sol.p_right, sol.expected_steps), rhs):
                    expect = linalg.solve_banded((1, 1), band, b)
                    assert values[1:-1].tobytes() == expect.tobytes(), (eps, right, left)

    def test_domain_errors(self):
        p = WalkParams(0.1)
        with pytest.raises(ValidationError):
            finite_chain_oracle(p, 0, -5)
        with pytest.raises(ValidationError):
            finite_chain_oracle(p, 5, 0)
        with pytest.raises(ValidationError):
            finite_chain_oracle(p, 9_000, -2_000)
        with pytest.raises(ValidationError):
            WalkParams(0.5)  # eps = 1/2 excluded at the type level


class TestReflectedChainMean:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.45])
    def test_series_sum_matches_closed_form(self, eps):
        # the closed form against the independent series oracle, which the
        # simulation tests also use as their reference value
        p = WalkParams(eps)
        assert reflected_chain_mean(p) == pytest.approx(
            reflected_chain_mean_series(p), rel=1e-10)

    def test_near_half_ends(self):
        # 12,372 terms; the alarm turns a per-term rerun of the power into a
        # failure instead of a long wait
        assert mean_within(reflected_chain_mean_series, WalkParams(0.499), 2.0) == (
            250.49999999999673)

    def test_past_old_term_cap(self):
        # more than 100,000 terms: this once raised "series failed to converge"
        eps = 0.4999
        mean = mean_within(reflected_chain_mean_series, WalkParams(eps), 2.0)
        assert mean == pytest.approx((1 - eps) / (1 - 2 * eps), rel=1e-9)

    def test_closed_form_near_half_ends(self):
        # the series would sum about 10^10 terms here; 1 - eps is the one
        # rounded step of the closed form
        eps = 0.5 - 1e-9
        exact = (1 - Fraction(eps)) / (1 - 2 * Fraction(eps))
        mean = mean_within(reflected_chain_mean, WalkParams(eps), 1.0)
        assert mean == pytest.approx(float(exact), rel=1e-15)


def mean_within(mean, p, seconds):
    """``mean(p)``, or a TimeoutError after ``seconds``."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{mean.__name__}({p.epsilon}) did not end")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return mean(p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
