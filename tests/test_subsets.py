from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import subsets
from seqforge.identities import drop_max_shift_down, shift_up_adjoin_max
from seqforge.recurrences import condition_count
from seqforge.subsets import (
    GAP_ALL_EVEN,
    GAP_ALL_ODD,
    GAP_ANY,
    Condition,
    EnumerationLimitError,
    _counts_upto,
    _passes,
    count_subsets,
    enumerate_subsets,
)

from helpers import brute_count, gaps_of, iter_subsets_raw, matches

subset_elems = st.lists(st.integers(min_value=1, max_value=40), unique=True, max_size=8)

# Values that an index refuses: a bool passed the range checks and counted
# as 0 or 1, and the others failed deep inside with a TypeError or an
# AttributeError.
NOT_INTS = [5.0, True, False, Fraction(5), "5", None]


# Each bijection half with an (n, alpha, beta) under which it would take a
# subset of {1..4}, were the subset well formed.
HALVES = [(drop_max_shift_down, (4, 1, 1)), (shift_up_adjoin_max, (6, 1, 1))]


class TestSubset:
    """A subset as the bijection halves take it: the sorted tuple of its
    elements, ints >= 1 and strictly increasing. Each half refuses any
    other tuple before reading it."""

    @staticmethod
    def refused(elems, message):
        for half, args in HALVES:
            with pytest.raises(ValueError, match=message):
                half(elems, *args)

    def test_rejects_unsorted_input(self):
        self.refused((3, 1, 2), r"^subset elements must be >= 1 and strictly increasing: \(3, 1, 2\)$")

    def test_rejects_duplicates(self):
        self.refused((1, 1, 2), r"^subset elements must be >= 1 and strictly increasing: \(1, 1, 2\)$")

    def test_rejects_nonpositive(self):
        self.refused((0, 2), r"^subset elements must be >= 1 and strictly increasing: \(0, 2\)$")
        self.refused((-1,), r"^subset elements must be >= 1 and strictly increasing: \(-1,\)$")

    @pytest.mark.parametrize("value", [1.5, True, Fraction(3), "3"])
    def test_elements_are_ints_only(self, value):
        self.refused((value, 4), f"^subset element must be an int, got {type(value).__name__}$")


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

    @pytest.mark.parametrize("parity", [GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN])
    @pytest.mark.parametrize("beta", [None, *range(1, 7)])
    def test_gaps_are_a_least_gap_plus_a_stride(self, beta, parity):
        # The gaps that matches, read from the clauses' definitions, accepts
        # for {1, 1 + g}: the least is least_gap, and up to 20 they are
        # exactly least_gap + gap_step * t, which _passes accepts too.
        cond = Condition(beta=beta, gap_parity=parity)
        accepted = [g for g in range(1, 21) if matches((1, 1 + g), cond, 1 + g)]
        assert accepted[0] == cond.least_gap
        assert accepted == list(range(cond.least_gap, 21, cond.gap_step))
        assert accepted == [g for g in range(1, 21) if _passes((1, 1 + g), cond)]


class TestPredicates:
    @settings(max_examples=200)
    @given(subset_elems, st.integers(min_value=1, max_value=5))
    def test_alpha_schreier_matches_rational_test(self, elems, alpha):
        rational = True if not elems else Fraction(min(elems), alpha) >= len(elems)
        assert _passes(tuple(sorted(elems)), Condition(alpha=alpha)) == rational


class TestMatches:
    def test_spec_examples(self):
        assert matches((1, 2, 3), Condition(gap_parity=GAP_ALL_ODD, min_size=2), 3)
        assert not matches((1, 3), Condition(gap_parity=GAP_ALL_ODD), 3)
        assert matches((), Condition(alpha=1, beta=1), 5)

    def test_element_above_n_is_an_error(self):
        with pytest.raises(ValueError):
            matches((6,), Condition(), 5)

    def test_forced_max_above_n_is_an_error(self):
        with pytest.raises(ValueError):
            matches((1,), Condition(forced_max=9), 5)

    @settings(max_examples=150)
    @given(subset_elems)
    def test_empty_condition_accepts_everything(self, elems):
        n = max(elems, default=0)
        assert matches(tuple(sorted(elems)), Condition(), n) is True


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

    @pytest.mark.parametrize("n", NOT_INTS)
    def test_n_takes_ints_only(self, n):
        with pytest.raises(ValueError, match=f"^n must be an int, got {type(n).__name__}$"):
            count_subsets(n, Condition())

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


class TestCountsUpto:
    """One search of {1..n_max} counts every {1..n} with n <= n_max."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_entries_are_the_counts_of_each_n(self, data):
        n_max = data.draw(st.integers(0, 14))
        cond = Condition(
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.sampled_from([GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN])),
            data.draw(st.integers(0, 6)),
            data.draw(st.none() if n_max == 0 else st.none() | st.integers(1, n_max)),
        )
        counts = _counts_upto(n_max, cond)
        assert len(counts) == n_max + 1
        for n, got in enumerate(counts):
            if cond.forced_max is not None and cond.forced_max > n:
                # count_subsets refuses such an n; no subset of {1..n} has that maximum.
                assert got == 0
            else:
                assert got == count_subsets(n, cond), (n, cond)

    def test_refuses_past_the_limit_before_searching(self, monkeypatch):
        def no_search(n, cond):
            raise AssertionError("searched")

        monkeypatch.setattr(subsets, "_search", no_search)
        with pytest.raises(EnumerationLimitError):
            _counts_upto(31, Condition())
        with pytest.raises(EnumerationLimitError):
            _counts_upto(9, Condition(alpha=2), limit=8)
        with pytest.raises(ValueError, match="forced_max 6 exceeds n=5"):
            _counts_upto(5, Condition(forced_max=6))


class TestEnumerateSubsets:
    @pytest.mark.parametrize("n", NOT_INTS)
    def test_n_takes_ints_only(self, n):
        # Refused when called, before the first subset is asked for.
        with pytest.raises(ValueError, match=f"^n must be an int, got {type(n).__name__}$"):
            enumerate_subsets(n, Condition())

    def test_spec_goldens(self):
        assert list(enumerate_subsets(2, Condition(gap_parity=GAP_ALL_EVEN, forced_max=2))) == [(2,)]
        assert list(enumerate_subsets(3, Condition(gap_parity=GAP_ALL_EVEN, forced_max=3))) == [(3,), (1, 3)]
        assert list(enumerate_subsets(1, Condition(min_size=2))) == []

    def test_characteristic_vector_order(self):
        got = list(enumerate_subsets(4, Condition()))
        assert got == list(iter_subsets_raw(4))

    def test_limit_raises_eagerly(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_subsets(31, Condition())
        with pytest.raises(EnumerationLimitError):
            enumerate_subsets(8, Condition(alpha=2), limit=7)
        subsets = enumerate_subsets(30, Condition())
        assert iter(subsets) is subsets
        assert next(subsets) == ()  # the first of 2**30, without the rest

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
            assert list(enumerate_subsets(n, cond)) == expected, cond
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
    def test_walk_yields_what_passes_accepts(self, data):
        # The walk judges by its extension rule; _passes judges a whole
        # tuple. Both must take the same subsets, in the same order.
        n = data.draw(st.integers(0, 12))
        cond = Condition(
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.sampled_from(PARITIES)),
            data.draw(st.integers(0, 6)),
            data.draw(st.none() if n == 0 else st.none() | st.integers(1, n)),
        )
        assert list(subsets._search(n, cond)) == [t for t in iter_subsets_raw(n) if _passes(t, cond)]

    def test_walk_never_calls_passes(self, monkeypatch):
        # The walk's extension rule is its only verdict, not a whole-tuple test.
        conds = [Condition(), Condition(2, 2, GAP_ALL_ODD, 2), Condition(None, 3, GAP_ALL_EVEN, 0, 9)]
        expected = [list(subsets._search(10, cond)) for cond in conds]

        def refuse(elems, cond):
            raise AssertionError(f"_passes{elems!r} called")

        monkeypatch.setattr(subsets, "_passes", refuse)
        for cond, found in zip(conds, expected):
            assert list(subsets._search(10, cond)) == found

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_visits_exactly_the_min_size_free_family(self, data):
        # Every node the walk reaches is an item of one of its extension
        # iterators, which it makes with the module-level names iter and
        # reversed; counting their items counts its nodes. They are the
        # nonempty subsets that meet every clause but min_size, so a pruning
        # fault that only costs time still fails here.
        n = data.draw(st.integers(0, 16))
        alpha = data.draw(st.none() | st.integers(1, 3))
        beta = data.draw(st.none() | st.integers(1, 4))
        parity = data.draw(st.sampled_from(PARITIES))
        forced_max = data.draw(st.none() if n == 0 else st.none() | st.integers(1, n))
        cond = Condition(alpha, beta, parity, data.draw(st.integers(0, 3)), forced_max)
        visited = 0

        def counted(make):
            def items(iterable):
                nonlocal visited
                for item in make(iterable):
                    visited += 1
                    yield item

            return items

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subsets, "iter", counted(iter), raising=False)
            patch.setattr(subsets, "reversed", counted(reversed), raising=False)
            list(subsets._search(n, cond))
        free = condition_count(n, Condition(alpha, beta, parity, 0, forced_max))
        assert visited == free - (forced_max is None), cond

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
