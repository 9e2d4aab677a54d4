from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge.subsets import (
    GAP_ALL_EVEN,
    GAP_ALL_ODD,
    GAP_ANY,
    Condition,
    EnumerationLimitError,
    Subset,
    count_subsets,
    difference_set,
    enumerate_subsets,
    is_alpha_schreier,
    is_beta_zeckendorf,
)

from helpers import brute_count, gaps_of, iter_subsets_raw, matches

subset_elems = st.lists(st.integers(min_value=1, max_value=40), unique=True, max_size=8)


class TestSubset:
    def test_sorts_input(self):
        assert Subset([3, 1, 2]).elements == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Subset([1, 1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Subset([0, 2])

    def test_accessors(self):
        s = Subset([2, 5, 9])
        assert len(s) == 3
        assert list(s) == [2, 5, 9]
        assert 5 in s and 4 not in s
        assert s.minimum == 2 and s.maximum == 9
        empty = Subset()
        assert empty.minimum is None and empty.maximum is None


class TestCondition:
    def test_defaults_impose_nothing(self):
        c = Condition()
        assert c.alpha is None and c.beta is None
        assert c.gap_parity == GAP_ANY and c.min_size == 0 and c.forced_max is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0},
            {"beta": 0},
            {"gap_parity": "odd-ish"},
            {"min_size": -1},
            {"forced_max": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            Condition(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 2.0),
            ("beta", True),
            ("min_size", 1.5),
            ("min_size", None),
            ("min_size", False),
            ("forced_max", Fraction(3)),
            ("forced_max", "3"),
        ],
    )
    def test_int_fields_take_ints_only(self, field, value):
        # Past the constructor, a float min_size would make the oracle count
        # 1013 subsets of {1..10} for 1.5 and the engine fail inside islice.
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {type(value).__name__}$"):
            Condition(**{field: value})


class TestDifferenceSet:
    def test_empty(self):
        assert difference_set(Subset()) == ()

    def test_singleton(self):
        assert difference_set(Subset([5])) == ()

    def test_gaps(self):
        assert difference_set(Subset([1, 3, 6])) == (2, 3)


class TestPredicates:
    def test_alpha_schreier_examples(self):
        assert is_alpha_schreier(Subset(), 3) is True
        assert is_alpha_schreier(Subset([4, 5]), 2) is True
        assert is_alpha_schreier(Subset([1, 2]), 1) is False

    def test_beta_zeckendorf_examples(self):
        assert is_beta_zeckendorf(Subset([7]), 5) is True
        assert is_beta_zeckendorf(Subset([2, 4]), 2) is True
        assert is_beta_zeckendorf(Subset([2, 4]), 3) is False

    def test_predicate_parameter_validation(self):
        with pytest.raises(ValueError):
            is_alpha_schreier(Subset([1]), 0)
        with pytest.raises(ValueError):
            is_beta_zeckendorf(Subset([1]), 0)

    @settings(max_examples=200)
    @given(subset_elems, st.integers(min_value=1, max_value=5))
    def test_alpha_schreier_matches_rational_test(self, elems, alpha):
        s = Subset(elems)
        rational = True if not elems else Fraction(min(elems), alpha) >= len(elems)
        assert is_alpha_schreier(s, alpha) == rational


class TestMatches:
    def test_spec_examples(self):
        assert matches(
            Subset([1, 2, 3]), Condition(gap_parity=GAP_ALL_ODD, min_size=2), 3
        )
        assert not matches(Subset([1, 3]), Condition(gap_parity=GAP_ALL_ODD), 3)
        assert matches(Subset(), Condition(alpha=1, beta=1), 5)

    def test_element_above_n_is_an_error(self):
        with pytest.raises(ValueError):
            matches(Subset([6]), Condition(), 5)

    def test_forced_max_above_n_is_an_error(self):
        with pytest.raises(ValueError):
            matches(Subset([1]), Condition(forced_max=9), 5)

    @settings(max_examples=150)
    @given(subset_elems)
    def test_empty_condition_accepts_everything(self, elems):
        s = Subset(elems)
        n = max(elems, default=0)
        assert matches(s, Condition(), n) is True


CONDITION_GRID = [
    Condition(),
    Condition(alpha=1, beta=1),
    Condition(alpha=2, beta=1),
    Condition(alpha=1, beta=2),
    Condition(alpha=3, beta=2),
    Condition(gap_parity=GAP_ALL_ODD),
    Condition(gap_parity=GAP_ALL_ODD, min_size=2),
    Condition(gap_parity=GAP_ALL_EVEN),
    Condition(min_size=3),
    Condition(beta=3),
]


class TestCountSubsets:
    def test_empty_ambient(self):
        assert count_subsets(0, Condition()) == 1
        assert count_subsets(0, Condition(min_size=1)) == 0

    def test_spec_goldens(self):
        assert count_subsets(5, Condition(alpha=2, beta=1)) == 6
        assert count_subsets(4, Condition(gap_parity=GAP_ALL_ODD, min_size=2)) == 7

    def test_agrees_with_raw_mask_oracle(self):
        for n in range(0, 11):
            assert count_subsets(n, Condition(alpha=2, beta=1)) == brute_count(
                n, lambda t: (not t or t[0] >= 2 * len(t)) and all(g >= 1 for g in gaps_of(t))
            )
            assert count_subsets(n, Condition(gap_parity=GAP_ALL_EVEN)) == brute_count(
                n, lambda t: all(g % 2 == 0 for g in gaps_of(t))
            )

    def test_matches_enumeration_length_on_grid(self):
        for n in range(0, 14):
            for cond in CONDITION_GRID:
                if cond.forced_max is not None and cond.forced_max > n:
                    continue
                assert count_subsets(n, cond) == sum(1 for _ in enumerate_subsets(n, cond))

    def test_refuses_beyond_limit(self):
        with pytest.raises(EnumerationLimitError):
            count_subsets(31, Condition())
        with pytest.raises(EnumerationLimitError):
            count_subsets(8, Condition(), limit=7)
        assert count_subsets(8, Condition(), limit=8) == 256

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            count_subsets(-1, Condition())

    def test_rejects_forced_max_beyond_ambient(self):
        with pytest.raises(ValueError):
            count_subsets(5, Condition(forced_max=6))
        with pytest.raises(ValueError):
            enumerate_subsets(5, Condition(forced_max=6))

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN]),
        st.integers(min_value=0, max_value=3),
    )
    def test_monotone_in_n_without_forced_max(self, n, alpha, beta, parity, min_size):
        cond = Condition(alpha=alpha, beta=beta, gap_parity=parity, min_size=min_size)
        assert count_subsets(n, cond) <= count_subsets(n + 1, cond)


class TestEnumerateSubsets:
    def test_spec_goldens(self):
        got = list(enumerate_subsets(2, Condition(gap_parity=GAP_ALL_EVEN, forced_max=2)))
        assert [s.elements for s in got] == [(2,)]
        got = list(enumerate_subsets(3, Condition(gap_parity=GAP_ALL_EVEN, forced_max=3)))
        assert [s.elements for s in got] == [(3,), (1, 3)]
        assert list(enumerate_subsets(1, Condition(min_size=2))) == []

    def test_characteristic_vector_order(self):
        got = [s.elements for s in enumerate_subsets(4, Condition())]
        assert got == list(iter_subsets_raw(4))

    def test_limit_raises_eagerly(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_subsets(31, Condition())
        with pytest.raises(EnumerationLimitError):
            enumerate_subsets(8, Condition(alpha=2), limit=7)
        subsets = enumerate_subsets(30, Condition())
        assert iter(subsets) is subsets
        assert next(subsets) == Subset()  # the first of 2**30, without the rest

    def test_yields_unique_matching_subsets(self):
        cond = Condition(alpha=1, beta=2)
        seen = set(enumerate_subsets(9, cond))
        assert len(seen) == count_subsets(9, cond)
        assert all(matches(s, cond, 9) for s in seen)


PARITIES = (GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN)


def satisfies(elems, alpha, beta, parity, min_size):
    """Every clause but forced_max from its definition, without the library."""
    gaps = gaps_of(elems)
    return (
        len(elems) >= min_size
        and (alpha is None or not elems or min(elems) >= alpha * len(elems))
        and (beta is None or all(g >= beta for g in gaps))
        and (parity == GAP_ANY or all(g % 2 == (parity == GAP_ALL_ODD) for g in gaps))
    )


class TestSearch:
    """The pruned search against the raw bitmask scan, filtered by definition."""

    @staticmethod
    def check(n, raw, alpha, beta, parity, min_size, forced_maxes):
        free = [t for t in raw if satisfies(t, alpha, beta, parity, min_size)]
        for forced_max in forced_maxes:
            cond = Condition(alpha, beta, parity, min_size, forced_max)
            expected = [t for t in free if forced_max is None or (t and t[-1] == forced_max)]
            assert [s.elements for s in enumerate_subsets(n, cond)] == expected, cond
            assert count_subsets(n, cond) == len(expected), cond

    def test_every_shape_up_to_ten(self):
        for n in range(11):
            raw = list(iter_subsets_raw(n))
            for alpha in (None, 1, 2, 3):
                for beta in (None, 1, 2, 3):
                    for parity in PARITIES:
                        for min_size in range(4):
                            self.check(n, raw, alpha, beta, parity, min_size, (None, *range(1, n + 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_conditions_up_to_fourteen(self, data):
        n = data.draw(st.integers(0, 14))
        self.check(
            n,
            iter_subsets_raw(n),
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.sampled_from(PARITIES)),
            data.draw(st.integers(0, 6)),
            [data.draw(st.none() if n == 0 else st.none() | st.integers(1, n))],
        )
