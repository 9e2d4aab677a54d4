from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge.recurrences import (
    SequenceWindow,
    even_gap_counts,
    fibonacci,
    fibonacci_seq,
    gap_parity_count,
    gen_fib_seq,
    gen_h_seq,
    h_seq,
    k_seq,
    min_size_odd_gap_count,
    min_size_odd_gap_seq,
    odd_gap_counts,
    partial_sum,
    schreier_zeckendorf_seq,
)
from seqforge.subsets import GAP_ALL_EVEN, GAP_ALL_ODD, Condition, count_subsets

from helpers import brute_count, fib_list, gaps_of, h_definitional

# Row values of the published order-3 table, indices 0..12.
TABLE_GENFIB_3 = (0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41)
TABLE_GENK_3 = (0, 1, 2, 3, 5, 8, 12, 18, 27, 40, 59, 87, 128)
TABLE_GENH_3 = (0, 1, 3, 6, 11, 19, 31, 49, 76, 116, 175, 262, 390)


class TestSequenceWindow:
    def test_term_indexing(self):
        w = SequenceWindow("w", 3, (10, 20, 30))
        assert w.term(3) == 10 and w.term(5) == 30
        assert w.last_index == 5
        assert list(w.items()) == [(3, 10), (4, 20), (5, 30)]
        with pytest.raises(IndexError):
            w.term(2)
        with pytest.raises(IndexError):
            w.term(6)

    def test_clip(self):
        w = SequenceWindow("w", 0, (1, 2, 3, 4))
        assert w.clip(2).terms == (3, 4) and w.clip(2).offset == 2
        assert w.clip(0) is w
        with pytest.raises(IndexError):
            w.clip(9)


class TestFibonacci:
    def test_base_terms(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1

    def test_golden(self):
        assert fibonacci(30) == 832040

    def test_doubling_agrees_with_recurrence(self):
        expected = fib_list(400)
        assert [fibonacci(n) for n in range(401)] == expected
        assert fibonacci_seq(400).terms == tuple(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci(-1)


class TestPartialSum:
    def test_cumulative(self):
        w = SequenceWindow("w", 0, (0, 1, 1, 2, 3, 5))
        assert partial_sum(w).terms == (0, 1, 2, 4, 7, 12)

    def test_twice_on_fibonacci_gives_published_prefix(self):
        doubled = partial_sum(partial_sum(fibonacci_seq(6)))
        assert doubled.terms == (0, 1, 3, 7, 14, 26, 46)

    def test_empty(self):
        w = SequenceWindow("w", 5, ())
        assert partial_sum(w).terms == () and partial_sum(w).offset == 5

    @settings(max_examples=100)
    @given(
        st.integers(min_value=-10, max_value=10),
        st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=30),
    )
    def test_differences_invert_partial_sum(self, offset, terms):
        w = SequenceWindow("w", offset, tuple(terms))
        acc = partial_sum(w)
        assert acc.offset == w.offset and len(acc) == len(w)
        restored = [acc.terms[0]] if acc.terms else []
        restored += [b - a for a, b in zip(acc.terms, acc.terms[1:])]
        assert tuple(restored) == w.terms


class TestHSeq:
    def test_published_prefix(self):
        w = h_seq(6)
        assert w.term(0) == 0 and w.term(2) == 3 and w.term(6) == 46
        assert w.terms == (0, 1, 3, 7, 14, 26, 46)

    def test_equals_double_partial_sum(self):
        assert h_seq(500).terms == partial_sum(partial_sum(fibonacci_seq(500))).terms

    def test_equals_weighted_sum_definition(self):
        w = h_seq(300)
        for n in (0, 1, 2, 7, 50, 151, 300):
            assert w.term(n) == h_definitional(n)


class TestSchreierZeckendorfSeq:
    def test_spec_goldens(self):
        assert schreier_zeckendorf_seq(1, 1, 5).terms == (2, 3, 5, 8, 13)
        assert schreier_zeckendorf_seq(2, 1, 5).terms == (1, 2, 3, 4, 6)
        assert schreier_zeckendorf_seq(1, 2, 4).terms == (2, 3, 4, 6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            schreier_zeckendorf_seq(0, 1, 5)
        with pytest.raises(ValueError):
            schreier_zeckendorf_seq(1, 0, 5)
        with pytest.raises(ValueError):
            schreier_zeckendorf_seq(1, 1, 0)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_matches_oracle(self, alpha, beta):
        n_max = 12
        w = schreier_zeckendorf_seq(alpha, beta, n_max)
        for n in range(1, n_max + 1):
            assert w.term(n) == count_subsets(n, Condition(alpha=alpha, beta=beta))

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4)])
    def test_branch_boundaries_match_oracle(self, alpha, beta):
        # The rule changes at alpha - 1, alpha, 2a+b-1, and 2a+b; hit each.
        w = schreier_zeckendorf_seq(alpha, beta, 2 * alpha + beta + 1)
        boundaries = {alpha - 1, alpha, 2 * alpha + beta - 1, 2 * alpha + beta}
        cond = Condition(alpha=alpha, beta=beta)
        for n in sorted(b for b in boundaries if b >= 1):
            assert w.term(n) == count_subsets(n, cond)


class TestGenFib:
    def test_published_table(self):
        assert gen_fib_seq(3, 12).terms == TABLE_GENFIB_3
        assert k_seq(3, 12).terms == TABLE_GENK_3
        assert gen_h_seq(3, 12).terms == TABLE_GENH_3

    def test_order_two_is_fibonacci(self):
        assert gen_fib_seq(2, 300).terms == fibonacci_seq(300).terms

    def test_leading_shape(self):
        w = gen_fib_seq(5, 5)
        assert w.terms == (0, 1, 1, 1, 1, 1)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            gen_fib_seq(1, 10)


class TestOddGapCounts:
    def test_goldens(self):
        # The n=3 totals were re-derived from the oracle before freezing:
        # the 7 qualifying subsets are {}, {1}, {2}, {3}, {1,2}, {2,3}, {1,2,3}.
        assert odd_gap_counts(3) == (3, 7)
        assert odd_gap_counts(1) == (1, 2)
        assert odd_gap_counts(10) == (89, 232)

    def test_matches_oracle(self):
        for n in range(1, 13):
            contain, total = odd_gap_counts(n)
            assert contain == brute_count(
                n, lambda t: t and t[-1] == n and all(g % 2 == 1 for g in gaps_of(t))
            )
            assert total == brute_count(n, lambda t: all(g % 2 == 1 for g in gaps_of(t)))


def test_parity_counts_match_condition_oracle():
    for n in range(1, 15):
        odd_contain, odd_total = odd_gap_counts(n)
        even_contain, even_total = even_gap_counts(n)
        assert odd_total == count_subsets(n, Condition(gap_parity=GAP_ALL_ODD))
        assert even_total == count_subsets(n, Condition(gap_parity=GAP_ALL_EVEN))
        assert odd_contain == count_subsets(
            n, Condition(gap_parity=GAP_ALL_ODD, forced_max=n)
        )
        assert even_contain == count_subsets(
            n, Condition(gap_parity=GAP_ALL_EVEN, forced_max=n)
        )


class TestEvenGapCounts:
    def test_goldens(self):
        assert even_gap_counts(1) == (1, 2)
        assert even_gap_counts(3) == (2, 5)
        assert even_gap_counts(4) == (2, 7)

    def test_matches_oracle(self):
        for n in range(1, 13):
            contain, total = even_gap_counts(n)
            assert contain == brute_count(
                n, lambda t: t and t[-1] == n and all(g % 2 == 0 for g in gaps_of(t))
            )
            assert total == brute_count(n, lambda t: all(g % 2 == 0 for g in gaps_of(t)))


class TestMinSizeOddGap:
    def test_goldens(self):
        assert min_size_odd_gap_count(4, 2) == 7
        assert min_size_odd_gap_count(5, 3) == 8
        assert min_size_odd_gap_count(1, 0) == 2

    def test_published_prefix_for_min_three(self):
        assert min_size_odd_gap_seq(12, 3).terms == (
            0, 0, 1, 3, 8, 17, 34, 63, 113, 196, 334, 560,
        )

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_dp_matches_oracle(self, k):
        for n in range(1, 13):
            expected = brute_count(
                n, lambda t: len(t) >= k and all(g % 2 == 1 for g in gaps_of(t))
            )
            assert min_size_odd_gap_count(n, k) == expected

    def test_min_two_equals_h_shifted(self):
        acc = h_seq(499)
        dp = min_size_odd_gap_seq(500, 2)
        for n in range(1, 501):
            assert dp.term(n) == acc.term(n - 1)

    def test_min_two_equals_h_shifted_at_scale(self):
        # Both sides run incrementally, so 1e5 terms stay around a second.
        n = 100_000
        assert min_size_odd_gap_seq(n, 2).term(n) == h_seq(n - 1).term(n - 1)

    def test_min_zero_equals_odd_gap_total(self):
        dp = min_size_odd_gap_seq(300, 0)
        fib = fibonacci_seq(303)
        for n in range(1, 301):
            assert dp.term(n) == fib.term(n + 3) - 1

    def test_condition_equivalence_via_matches(self):
        # Same family expressed through the generic Condition machinery.
        for n in range(1, 11):
            cond = Condition(gap_parity=GAP_ALL_ODD, min_size=2)
            assert min_size_odd_gap_count(n, 2) == count_subsets(n, cond)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            min_size_odd_gap_seq(0, 2)
        with pytest.raises(ValueError):
            min_size_odd_gap_seq(5, -1)


def test_even_family_is_not_odd_family():
    # Parity conditions pick disjoint families apart from gap-free subsets.
    for n in range(1, 11):
        odd_only = count_subsets(n, Condition(gap_parity=GAP_ALL_ODD, min_size=2))
        even_only = count_subsets(n, Condition(gap_parity=GAP_ALL_EVEN, min_size=2))
        both = brute_count(
            n,
            lambda t: len(t) >= 2
            and all(g % 2 == 1 for g in gaps_of(t))
            and all(g % 2 == 0 for g in gaps_of(t)),
        )
        assert both == 0
        assert odd_only + even_only <= count_subsets(n, Condition(min_size=2))


class TestGapParityClosedForm:
    def test_matches_dp(self):
        for k in range(9):
            dp = min_size_odd_gap_seq(300, k)
            for n in range(1, 301):
                assert gap_parity_count(n, GAP_ALL_ODD, k) == dp.term(n), (n, k)

    @pytest.mark.parametrize("parity", [GAP_ALL_ODD, GAP_ALL_EVEN])
    def test_matches_oracle(self, parity):
        for n in range(17):
            for min_size in range(7):
                free = gap_parity_count(n, parity, min_size)
                assert free == count_subsets(n, Condition(gap_parity=parity, min_size=min_size))
                if n:
                    forced = count_subsets(
                        n, Condition(gap_parity=parity, min_size=min_size, forced_max=n)
                    )
                    assert free - gap_parity_count(n - 1, parity, min_size) == forced

    @pytest.mark.parametrize("parity, step", [(GAP_ALL_ODD, 1), (GAP_ALL_EVEN, 2)])
    def test_branches_meet_at_half_the_largest_size(self, parity, step):
        # Up to half the largest size the count subtracts small classes from
        # the total; past it, it adds the large classes. Their difference at
        # the seam is one class, checked against its binomial form directly.
        n = 3001
        m = (n if step == 1 else (n + 1) // 2) // 2
        room = n - step * (m - 1)
        t = (room - 1) // 2
        size_class = room * comb(t + m - 1, m - 1) - 2 * (m - 1) * comb(t + m - 1, m)
        assert gap_parity_count(n, parity, m) - gap_parity_count(n, parity, m + 1) == size_class

    def test_size_bound_past_the_largest_size(self):
        assert gap_parity_count(5, GAP_ALL_ODD, 6) == 0
        assert gap_parity_count(5, GAP_ALL_EVEN, 4) == 0
        assert gap_parity_count(5, GAP_ALL_EVEN, 3) == 1  # {1, 3, 5}
        assert gap_parity_count(0, GAP_ALL_ODD) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gap_parity_count(-1, GAP_ALL_ODD)
        with pytest.raises(ValueError):
            gap_parity_count(5, GAP_ALL_EVEN, -1)
        with pytest.raises(ValueError):
            gap_parity_count(5, "any")
