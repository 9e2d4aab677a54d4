import time
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import fasteval, recurrences
from seqforge.formats import render_int
from seqforge.recurrences import (
    _NESTED_SUMS,
    FAMILIES,
    SequenceWindow,
    _condition_parts,
    _series,
    _size_classes,
    condition_count,
    condition_gf,
    even_gap_family_size,
    family_spec,
    fibonacci,
    min_size_odd_gap_count,
    min_size_odd_gap_seq,
    tail_recurrence_of,
    window,
)
from seqforge.subsets import GAP_ALL_EVEN, GAP_ALL_ODD, GAP_ANY, Condition, count_subsets

from helpers import (
    brute_count,
    family_oracle,
    fib_list,
    gaps_of,
    h_definitional,
    min_size_odd_gap_list,
    partial_sum,
    poly_gcd_degree,
    schreier_zeckendorf_seq,
    sign_trick_series,
    sz_branch_count,
    term,
    truncated_product,
)

PARITIES = (GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN)


def series_head(cond, count):
    return list(islice(_series(*_condition_parts(cond)), count))


def power_spy(monkeypatch):
    # The n of each eval_fast call the engine makes from now on. The engine
    # reads fasteval.eval_fast where a power runs, so the spy goes there.
    calls = []
    real = fasteval.eval_fast

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(fasteval, "eval_fast", spy)
    return calls


def parity_count(n, parity, min_size=0, **kwargs):
    return condition_count(n, Condition(gap_parity=parity, min_size=min_size), **kwargs)


def parity_counts(n, parity, **kwargs):
    # (count containing n, total count) of subsets of {1..n} whose gaps all
    # have the parity.
    forced = condition_count(n, Condition(gap_parity=parity, forced_max=n), **kwargs)
    return forced, parity_count(n, parity, **kwargs)


# Wide n for the gap-parity counts, whose independent references are the
# Fibonacci doubling and a shift.
WIDE_PARITY_N = (10**5, 10**5 + 1, 10**6)


def printed(value):
    # The decimal text of an int or of a carried integral Decimal; comparing
    # texts spares converting a wide int to a Decimal, which is quadratic.
    return render_int(value) if type(value) is int else str(value)


def assert_wide_parity_counts(parity, want):
    # Both the library's ints and the CLI's carried counts against want(n),
    # (count containing n, total count), at each wide n.
    for n in WIDE_PARITY_N:
        expected = want(n)
        assert parity_counts(n, parity) == expected, n
        carried = parity_counts(n, parity, _decimal=True)
        assert tuple(map(printed, carried)) == tuple(map(render_int, expected)), n


# Row values of the published order-3 table, indices 0..12.
TABLE_GENFIB_3 = (0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41)
TABLE_GENK_3 = (0, 1, 2, 3, 5, 8, 12, 18, 27, 40, 59, 87, 128)
TABLE_GENH_3 = (0, 1, 3, 6, 11, 19, 31, 49, 76, 116, 175, 262, 390)


# The generating functions in factors that _series reads: taps not empty
# (SERIES_TAPS) and pluses <= ones (ones_and_pluses, drawn as (ones, pluses)),
# with a stride q of 1 to 4 (STRIDES).
SERIES_TAPS = st.dictionaries(st.integers(1, 6), st.integers(-5, 5), min_size=1, max_size=3)
STRIDES = st.integers(1, 4)


def ones_and_pluses(most):
    return st.integers(0, most).flatmap(lambda ones: st.tuples(st.just(ones), st.integers(0, ones)))


class TestSeries:
    @staticmethod
    def denominator(taps, ones, pluses, q):
        # (1 - sum of c x^j over taps) (1-x)^ones (1 + x + ... + x^(q-1))^pluses,
        # expanded.
        den = [1] + [0] * max(taps)
        for j, c in taps.items():
            den[j] -= c
        for _ in range(ones):
            den = [a - b for a, b in zip(den + [0], [0] + den)]
        for _ in range(pluses):
            den = [sum(den[max(0, i - q + 1):i + 1]) for i in range(len(den) + q - 1)]
        return den

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(-5, 5), max_size=6), SERIES_TAPS, ones_and_pluses(3), STRIDES)
    def test_times_q_gives_p(self, lead, p, taps, counts, q):
        # Any x^lead P over any Q in factors: the series times the expanded
        # Q agrees with x^lead P term by term.
        ones, pluses = counts
        den = self.denominator(taps, ones, pluses, q)
        count = 40
        terms = list(islice(_series(lead, p, taps, ones, pluses, q), count))
        assert truncated_product(terms, den, count) == ([0] * lead + p + [0] * count)[:count]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(-5, 5), max_size=6), SERIES_TAPS, ones_and_pluses(6), STRIDES)
    def test_matches_the_sign_trick(self, lead, p, taps, counts, q):
        # Pairs of 1 - x and 1 + x + ... + x^(q-1) read as 1 - x^q give the
        # terms that dividing by each factor in turn gives.
        ones, pluses = counts
        count = 40
        terms = list(islice(_series(lead, p, taps, ones, pluses, q), count))
        assert terms == list(islice(sign_trick_series(lead, p, taps, ones, pluses, q), count))

    def test_past_the_nested_sums(self):
        # More running sums than are nested take the flat list of sums.
        ones, pluses = _NESTED_SUMS + 8, _NESTED_SUMS + 3
        taps = {1: 1, 3: -2}
        for q in (1, 2, 3):
            den = self.denominator(taps, ones, pluses, q)
            terms = list(islice(_series(2, (1, -1, 3), taps, ones, pluses, q), 60))
            assert truncated_product(terms, den, 60) == [0, 0, 1, -1, 3] + [0] * 55, q

    def test_depth_beyond_the_c_stack(self):
        # 1/(1-x^2)^(b+1) = 1/((1-x^2) (1-x)^b (1+x)^b): 1, 0, b+1, 0,
        # C(b+2, 2). Nested passes this deep would overflow the C stack.
        b = 10**5
        assert list(islice(_series(0, (1,), {2: 1}, b, b, 2), 5)) == [1, 0, b + 1, 0, comb(b + 2, 2)]

    def test_every_generating_function_has_a_read_shape(self):
        # Every family, at its least parameters and larger ones, and every
        # condition without forced_max, has taps and no more pluses than ones.
        for family, row in FAMILIES.items():
            for extra in (0, 1, 3, 10):
                _, _, taps, ones, pluses, _ = row.gf(*(least + extra for _, least in row.bounds))
                assert taps and pluses <= ones, (family, extra)
        for alpha in (None, 1, 2, 3):
            for beta in (None, 1, 2, 3):
                for parity in PARITIES:
                    for min_size in range(5):
                        cond = Condition(alpha, beta, parity, min_size)
                        _, _, taps, ones, pluses, _ = _condition_parts(cond)
                        assert taps and pluses <= ones, cond


class TestFamiliesAgainstHandLoops:
    # Every family over the benchmark's parameter grid, at the window ends
    # where the series changes regime: empty history, the order, past it.
    @staticmethod
    def check(window, family, params, to):
        offset, terms = family_oracle(family, params, to)
        assert (window.offset, window.terms) == (offset, tuple(terms[: to + 1 - offset]))

    @staticmethod
    def ends(order):
        return sorted({0, 1, 2, order, 3 * order, 5000})

    def test_fibonacci_and_h(self):
        for to in self.ends(2):
            self.check(window("fib", to), "fib", {}, to)
            self.check(window("H", to), "H", {}, to)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_order_n_families(self, n):
        for to in self.ends(n):
            self.check(window("genfib", to, n=n), "genfib", {"n": n}, to)
            self.check(window("genk", to, n=n), "genk", {"n": n}, to)
            self.check(window("genh", to, n=n), "genh", {"n": n}, to)

    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_schreier_zeckendorf(self, alpha):
        for beta in range(1, 7):
            for to in self.ends(alpha + beta)[1:]:
                params = {"alpha": alpha, "beta": beta}
                self.check(schreier_zeckendorf_seq(alpha, beta, to), "schreier-zeckendorf", params, to)

    @pytest.mark.parametrize("alpha, beta", [(10**9, 1), (1, 10**9), (10**9, 10**9)])
    def test_schreier_zeckendorf_huge_bounds(self, alpha, beta):
        # P (a run of beta ones from x^alpha) and the lag alpha + beta are
        # read lazily, so only the terms asked for are built.
        self.check(schreier_zeckendorf_seq(alpha, beta, 10), "schreier-zeckendorf", {"alpha": alpha, "beta": beta}, 10)

    @pytest.mark.parametrize("k", [*range(12), _NESTED_SUMS + 8])
    def test_min_size_odd_gap(self, k):
        order = len(condition_gf(Condition(gap_parity=GAP_ALL_ODD, min_size=k))[1]) - 1
        for to in self.ends(order)[1:]:
            self.check(min_size_odd_gap_seq(to, k), "minsize-oddgap", {"k": k}, to)

    @pytest.mark.parametrize("window, family, params", [
        (lambda to: window("genfib", to, n=10**20), "genfib", {}),
        (lambda to: window("genk", to, n=10**20), "genk", {}),
        (lambda to: window("genh", to, n=10**20), "genh", {}),
        (lambda to: schreier_zeckendorf_seq(10**20, 1, to), "schreier-zeckendorf", {"alpha": 10**20, "beta": 1}),
        (lambda to: schreier_zeckendorf_seq(1, 10**20, to), "schreier-zeckendorf", {"alpha": 1, "beta": 10**20}),
        (lambda to: min_size_odd_gap_seq(to, 10**20), "minsize-oddgap", {"k": 10**20}),
    ])
    def test_parameters_past_sys_maxsize(self, window, family, params):
        # repeat() takes at most sys.maxsize copies; a longer lead, lag or
        # run of P is cut to that, which no window reads past.
        to = 8
        if family == "schreier-zeckendorf":
            cond = Condition(**params)
        elif family == "minsize-oddgap":
            cond = Condition(gap_parity=GAP_ALL_ODD, min_size=params["k"])
        else:  # no window this short tells n from to + 1
            self.check(window(to), family, {"n": to + 1}, to)
            return
        assert window(to).terms == tuple(condition_count(i, cond) for i in range(1, to + 1))

    def test_min_size_odd_gap_large_k(self):
        # Below n = k every term is zero: x^k leads the numerator, so these
        # are read before any running sum. Expanding Q, of degree 2k, took
        # on the order of k^2 steps first.
        start = time.perf_counter()
        for k in (2000, 5000, 10**6):
            assert min_size_odd_gap_seq(10, k).terms == (0,) * 10
        assert time.perf_counter() - start < 1.0
        self.check(min_size_odd_gap_seq(2010, 2000), "minsize-oddgap", {"k": 2000}, 2010)


class TestWindow:
    @pytest.mark.parametrize("family, params, message", [
        ("nope", {}, "unknown family 'nope'; known: fib, H, schreier-zeckendorf, genfib, genk, genh, minsize-oddgap"),
        ("schreier-zeckendorf", {"beta": 1}, "family 'schreier-zeckendorf' needs parameter 'alpha'"),
        ("fib", {"n": 3}, "family 'fib' has no parameter 'n'"),
    ], ids=["unknown-family", "missing-parameter", "unexpected-parameter"])
    @pytest.mark.parametrize("read", [family_spec, window])
    def test_refuses_bad_input(self, read, family, params, message):
        last = () if read is family_spec else (5,)
        with pytest.raises(ValueError) as info:
            read(family, *last, **params)
        assert str(info.value) == message

    @pytest.mark.parametrize("last", [5.0, True, Fraction(5), "5"])
    def test_last_takes_ints_only(self, last):
        with pytest.raises(ValueError, match=f"^last must be an int, got {type(last).__name__}$"):
            window("fib", last)

    @pytest.mark.parametrize("family, name", [
        (family, name) for family, row in FAMILIES.items() for name, _ in row.bounds
    ])
    @pytest.mark.parametrize("bad", [3.0, 2.5, True, Fraction(3)])
    def test_parameters_take_ints_only(self, family, name, bad):
        params = {p: max(least, 2) for p, least in FAMILIES[family].bounds}
        params[name] = bad
        message = f"^{name} must be an int, got {type(bad).__name__}$"
        with pytest.raises(ValueError, match=message):
            window(family, 5, **params)
        if family in ("schreier-zeckendorf", "genfib"):
            with pytest.raises(ValueError, match=message):
                tail_recurrence_of(family, **params)


class TestFibonacci:
    def test_base_terms(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1

    def test_golden(self):
        assert fibonacci(30) == 832040

    def test_doubling_agrees_with_recurrence(self):
        expected = fib_list(400)
        assert [fibonacci(n) for n in range(401)] == expected
        assert window("fib", 400).terms == tuple(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    @pytest.mark.parametrize("n", [10.0, True, Fraction(10), "10"])
    def test_takes_ints_only(self, n):
        with pytest.raises(ValueError, match=f"^n must be an int, got {type(n).__name__}$"):
            fibonacci(n)


class TestPartialSum:
    def test_cumulative(self):
        w = SequenceWindow("w", 0, (0, 1, 1, 2, 3, 5))
        assert partial_sum(w).terms == (0, 1, 2, 4, 7, 12)

    def test_twice_on_fibonacci_gives_published_prefix(self):
        doubled = partial_sum(partial_sum(window("fib", 6)))
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
        assert acc.offset == w.offset and len(acc.terms) == len(w.terms)
        restored = [acc.terms[0]] if acc.terms else []
        restored += [b - a for a, b in zip(acc.terms, acc.terms[1:])]
        assert tuple(restored) == w.terms


class TestHSeq:
    def test_published_prefix(self):
        w = window("H", 6)
        assert term(w, 0) == 0 and term(w, 2) == 3 and term(w, 6) == 46
        assert w.terms == (0, 1, 3, 7, 14, 26, 46)

    def test_equals_double_partial_sum(self):
        assert window("H", 500).terms == partial_sum(partial_sum(window("fib", 500))).terms

    def test_equals_weighted_sum_definition(self):
        w = window("H", 300)
        for n in (0, 1, 2, 7, 50, 151, 300):
            assert term(w, n) == h_definitional(n)


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
            assert term(w, n) == count_subsets(n, Condition(alpha=alpha, beta=beta))

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4)])
    def test_branch_boundaries_match_oracle(self, alpha, beta):
        # The rule changes at alpha - 1, alpha, 2a+b-1, and 2a+b; hit each.
        w = schreier_zeckendorf_seq(alpha, beta, 2 * alpha + beta + 1)
        boundaries = {alpha - 1, alpha, 2 * alpha + beta - 1, 2 * alpha + beta}
        cond = Condition(alpha=alpha, beta=beta)
        for n in sorted(b for b in boundaries if b >= 1):
            assert term(w, n) == count_subsets(n, cond)


class TestGenFib:
    def test_published_table(self):
        assert window("genfib", 12, n=3).terms == TABLE_GENFIB_3
        assert window("genk", 12, n=3).terms == TABLE_GENK_3
        assert window("genh", 12, n=3).terms == TABLE_GENH_3

    def test_order_two_is_fibonacci(self):
        assert window("genfib", 300, n=2).terms == window("fib", 300).terms

    def test_leading_shape(self):
        w = window("genfib", 5, n=5)
        assert w.terms == (0, 1, 1, 1, 1, 1)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            window("genfib", 10, n=1)


class TestOddGapCounts:
    def test_goldens(self):
        # The n=3 totals were re-derived from the oracle before freezing:
        # the 7 qualifying subsets are {}, {1}, {2}, {3}, {1,2}, {2,3}, {1,2,3}.
        assert parity_counts(3, GAP_ALL_ODD) == (3, 7)
        assert parity_counts(1, GAP_ALL_ODD) == (1, 2)
        assert parity_counts(10, GAP_ALL_ODD) == (89, 232)
        # F_{n+1} of them contain n, and F_{n+3} - 1 is their total.
        for n in (*range(1, 200), 10**4):
            assert parity_counts(n, GAP_ALL_ODD) == (fibonacci(n + 1), fibonacci(n + 3) - 1), n
        assert_wide_parity_counts(GAP_ALL_ODD, lambda n: (fibonacci(n + 1), fibonacci(n + 3) - 1))

    def test_matches_oracle(self):
        for n in range(1, 13):
            contain, total = parity_counts(n, GAP_ALL_ODD)
            assert contain == brute_count(
                n, lambda t: t and t[-1] == n and all(g % 2 == 1 for g in gaps_of(t))
            )
            assert total == brute_count(n, lambda t: all(g % 2 == 1 for g in gaps_of(t)))


def test_parity_counts_match_condition_oracle():
    for n in range(1, 15):
        odd_contain, odd_total = parity_counts(n, GAP_ALL_ODD)
        even_contain, even_total = parity_counts(n, GAP_ALL_EVEN)
        assert odd_total == count_subsets(n, Condition(gap_parity=GAP_ALL_ODD))
        assert even_total == count_subsets(n, Condition(gap_parity=GAP_ALL_EVEN))
        assert odd_contain == count_subsets(
            n, Condition(gap_parity=GAP_ALL_ODD, forced_max=n)
        )
        assert even_contain == count_subsets(
            n, Condition(gap_parity=GAP_ALL_EVEN, forced_max=n)
        )


class TestEvenGapCounts:
    @pytest.mark.parametrize("n, message", [
        (10.0, "n must be an int, got float"),
        (True, "n must be an int, got bool"),
        (-3, "n must be >= 0"),
    ])
    def test_family_size_refuses_bad_n(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            even_gap_family_size(n)

    def test_goldens(self):
        assert parity_counts(1, GAP_ALL_EVEN) == (1, 2)
        assert parity_counts(3, GAP_ALL_EVEN) == (2, 5)
        assert parity_counts(4, GAP_ALL_EVEN) == (2, 7)
        # 2^floor((n-1)/2) of them contain n; even_gap_family_size is their total.
        for n in (*range(1, 200), 10**4, 10**4 + 1):
            want = (1 << (n - 1) // 2, even_gap_family_size(n))
            assert parity_counts(n, GAP_ALL_EVEN) == want, n
        assert_wide_parity_counts(GAP_ALL_EVEN, lambda n: (1 << (n - 1) // 2, even_gap_family_size(n)))

    def test_matches_oracle(self):
        for n in range(1, 13):
            contain, total = parity_counts(n, GAP_ALL_EVEN)
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
        acc = window("H", 499)
        dp = min_size_odd_gap_seq(500, 2)
        for n in range(1, 501):
            assert term(dp, n) == term(acc, n - 1)

    def test_min_two_equals_h_shifted_at_scale(self):
        # Both sides run incrementally, so 1e5 terms stay around a second.
        n = 100_000
        assert term(min_size_odd_gap_seq(n, 2), n) == term(window("H", n - 1), n - 1)

    def test_min_zero_equals_odd_gap_total(self):
        dp = min_size_odd_gap_seq(300, 0)
        fib = window("fib", 303)
        for n in range(1, 301):
            assert term(dp, n) == term(fib, n + 3) - 1

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
            dp = min_size_odd_gap_list(300, k)
            for n in range(1, 301):
                assert parity_count(n, GAP_ALL_ODD, k) == dp[n - 1], (n, k)

    @pytest.mark.parametrize("parity", [GAP_ALL_ODD, GAP_ALL_EVEN])
    def test_matches_oracle(self, parity):
        for n in range(17):
            for min_size in range(7):
                free = parity_count(n, parity, min_size)
                assert free == count_subsets(n, Condition(gap_parity=parity, min_size=min_size))
                if n:
                    forced = count_subsets(
                        n, Condition(gap_parity=parity, min_size=min_size, forced_max=n)
                    )
                    assert free - parity_count(n - 1, parity, min_size) == forced

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
        assert parity_count(n, parity, m) - parity_count(n, parity, m + 1) == size_class

    def test_size_bound_past_the_largest_size(self):
        assert parity_count(5, GAP_ALL_ODD, 6) == 0
        assert parity_count(5, GAP_ALL_EVEN, 4) == 0
        assert parity_count(5, GAP_ALL_EVEN, 3) == 1  # {1, 3, 5}
        assert parity_count(0, GAP_ALL_ODD) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            parity_count(-1, GAP_ALL_ODD)
        with pytest.raises(ValueError):
            parity_count(5, GAP_ALL_EVEN, -1)
        with pytest.raises(ValueError):
            parity_count(5, "odd")  # the CLI's flag text, not a parity


class TestConditionCount:
    """The generating-function engine against the exhaustive oracle, and
    against the closed forms at large n."""

    def test_every_shape_up_to_twelve(self):
        for n in range(13):
            for alpha in (None, 1, 2, 3):
                for beta in (None, 1, 2, 3):
                    for parity in PARITIES:
                        for min_size in range(5):
                            for forced_max in (None, *range(1, n + 1)):
                                cond = Condition(alpha, beta, parity, min_size, forced_max)
                                assert condition_count(n, cond) == count_subsets(n, cond), (n, cond)

    def test_every_shape_up_to_twelve_by_power(self, monkeypatch):
        # Up to _SUM_CLASSES classes a count is a sum; with no such floor
        # the counts of test_every_shape_up_to_twelve take the power where
        # they did before it, so the power meets the oracle too.
        monkeypatch.setattr(recurrences, "_SUM_CLASSES", 0)
        calls = power_spy(monkeypatch)
        self.test_every_shape_up_to_twelve()
        assert calls

    @pytest.mark.parametrize("cond, n", [
        (Condition(), 63),  # n + 1 classes
        (Condition(gap_parity=GAP_ALL_ODD, min_size=2), 65),  # n - 1 from 2 up
        (Condition(alpha=3, beta=3), 380),  # (n + 3) // 6 + 1 classes
    ])
    def test_few_size_classes_are_summed(self, monkeypatch, cond, n):
        # Up to _SUM_CLASSES = 64 classes from min_size up are summed, with
        # no power; one more takes one. Both sides agree with the power alone.
        calls = power_spy(monkeypatch)
        counts = [condition_count(m, cond) for m in (n, n + 1)]
        assert calls == [n + 1]
        monkeypatch.setattr(recurrences, "_SUM_CLASSES", 0)
        assert [condition_count(m, cond) for m in (n, n + 1)] == counts

    def test_generating_function_in_lowest_terms(self):
        for alpha in (None, 1, 2, 3):
            for beta in (None, 1, 2, 3):
                for parity in PARITIES:
                    for min_size in range(5):
                        cond = Condition(alpha, beta, parity, min_size)
                        p, q = condition_gf(cond)
                        assert q[0] == 1 and q[-1] != 0 and poly_gcd_degree(p, q) == 0, cond
                        assert min_size > 0 or len(p) < len(q), cond  # proper without a size bound
                        counts = [count_subsets(n, cond) for n in range(13)]
                        assert truncated_product(counts, q, 13) == (list(p) + [0] * 13)[:13], cond
                        assert series_head(cond, 13) == counts, cond

    def test_every_shape_at_five_hundred(self, monkeypatch):
        # At small n a shape has few enough size classes to be summed
        # directly; at n = 500 each has over _SUM_CLASSES from min_size up
        # (alpha = 3 with even gaps from 3 has the fewest, 69 from size 4)
        # and takes its total (one power of the generating function's
        # recurrence) less the classes, checked against the series of the
        # sized generating function, itself checked against the oracle above.
        n = 500
        calls = power_spy(monkeypatch)
        for alpha in (None, 1, 2, 3):
            for beta in (None, 1, 2, 3):
                for parity in PARITIES:
                    for min_size in range(5):
                        calls.clear()
                        cond = Condition(alpha, beta, parity, min_size)
                        assert condition_count(n, cond) == series_head(cond, n + 1)[n], cond
                        assert calls == [n], cond

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_conditions_up_to_fourteen(self, data):
        n = data.draw(st.integers(0, 14))
        cond = Condition(
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.none() | st.integers(1, 5)),
            data.draw(st.sampled_from(PARITIES)),
            data.draw(st.integers(0, 6)),
            data.draw(st.none() if n == 0 else st.none() | st.integers(1, n)),
        )
        assert condition_count(n, cond) == count_subsets(n, cond)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_forced_max_is_a_difference_of_two_counts(self, data):
        # The differenced recurrence, one power, against two powers.
        m = data.draw(st.integers(1, 3000))
        n = m + data.draw(st.integers(0, 5))
        free = Condition(
            data.draw(st.none() | st.integers(1, 6)),
            data.draw(st.none() | st.integers(1, 6)),
            data.draw(st.sampled_from(PARITIES)),
            data.draw(st.integers(0, 8)),
        )
        forced = condition_count(n, Condition(free.alpha, free.beta, free.gap_parity, free.min_size, m))
        assert forced == condition_count(m, free) - condition_count(m - 1, free)

    def test_at_most_one_power_per_count(self, monkeypatch):
        calls = power_spy(monkeypatch)
        n = 3000
        for alpha in (None, 1, 3):
            for beta in (None, 1, 2, 5):
                for parity in PARITIES:
                    for min_size in (0, 2, 40):
                        for forced_max in (None, n, n // 2):
                            for decimal in (False, True):
                                calls.clear()
                                cond = Condition(alpha, beta, parity, min_size, forced_max)
                                condition_count(n, cond, _decimal=decimal)
                                assert len(calls) <= 1, cond
        assert calls  # the spy sees the engine's calls

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (1, 3), (3, 4), (5, 2)])
    def test_schreier_zeckendorf_at_ten_thousand(self, alpha, beta):
        # The reduced denominator is the catalog recurrence's, order alpha + beta.
        p, q = condition_gf(Condition(alpha=alpha, beta=beta))
        assert q == (1, -1, *[0] * (alpha + beta - 2), -1)
        n = 10**4
        assert condition_count(n, Condition(alpha=alpha, beta=beta)) == sz_branch_count(alpha, beta, n)

    @pytest.mark.parametrize("parity", [GAP_ALL_ODD, GAP_ALL_EVEN])
    @pytest.mark.parametrize("min_size", [0, 1, 3])
    def test_gap_parity_at_ten_thousand(self, parity, min_size):
        # The counts at every n up to 10^4, times Q, give P.
        n = 10**4
        p, q = condition_gf(Condition(gap_parity=parity, min_size=min_size))
        counts = [parity_count(m, parity, min_size) for m in range(n + 1)]
        assert truncated_product(counts, q, n + 1) == list(p) + [0] * (n + 1 - len(p))

    def test_mixed_shapes_at_ten_thousand(self):
        # The engine (eval_fast on the size-free denominator, less the size
        # classes) against the series of the sized generating function.
        n = 10**4
        for cond in (
            Condition(beta=2),
            Condition(alpha=2, gap_parity=GAP_ALL_ODD),
            Condition(alpha=2, min_size=3),
            Condition(beta=3, gap_parity=GAP_ALL_EVEN, min_size=2),
            Condition(alpha=1, beta=2, gap_parity=GAP_ALL_ODD, forced_max=n),
        ):
            free = Condition(cond.alpha, cond.beta, cond.gap_parity, cond.min_size)
            want = series_head(free, n + 1)
            if cond.forced_max is not None:
                want[n] -= want[n - 1]
            assert condition_count(n, cond) == want[n], cond

    @pytest.mark.parametrize("parity", PARITIES)
    def test_branches_meet_at_half_the_largest_size(self, parity):
        # Below half the largest size the engine subtracts the small classes
        # from the total; past it, it adds the large ones. Their difference
        # at the seam is one class, summed here over the gap excess 2H.
        alpha, n = 2, 301
        gap = Condition(gap_parity=parity).least_gap
        largest = (n + gap) // (alpha + gap)
        k = largest // 2
        rest = n - alpha * k - gap * (k - 1)
        if parity == GAP_ANY:
            size_class = comb(rest + k, k)
        else:
            size_class = sum(comb(h + k - 2, k - 2) * (rest - 2 * h + 1) for h in range(rest // 2 + 1))
        counts = [condition_count(n, Condition(alpha=alpha, gap_parity=parity, min_size=m)) for m in (k, k + 1)]
        assert counts[0] - counts[1] == size_class

    @pytest.mark.parametrize(
        "cond, want",
        [
            (Condition(alpha=10**9), 1),
            (Condition(beta=10**9), 11),
            (Condition(beta=10**9, gap_parity=GAP_ALL_EVEN, min_size=1), 10),
            (Condition(alpha=10**9, beta=10**9, forced_max=10), 0),
        ],
    )
    def test_huge_bounds_at_small_n(self, cond, want):
        # Only the empty set and singletons fit: the size classes answer,
        # with no generating function of order about alpha + beta built.
        assert condition_count(10, cond) == count_subsets(10, cond) == want

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_size_classes_follow_their_closed_forms(self, q):
        # The incremental binomial updates against each class's closed form
        # computed afresh: the sum over the gap excess qH of the
        # C(H+k-2, k-2) gap lists times the rest - qH + 1 places left for
        # the minimum.
        def closed(n, k, alpha, gap):
            if k == 0:
                return 1
            rest = n - max(1, alpha * k) - gap * (k - 1)
            lists = (lambda h: comb(h + k - 2, k - 2)) if k > 1 else (lambda h: int(h == 0))
            return sum((rest - q * h + 1) * lists(h) for h in range(rest // q + 1))

        n = 150
        for alpha in (0, 1, 3, 40):
            for gap in (1, 2, 5, 30):
                largest = (n + gap) // (alpha + gap) if alpha else (n + gap - 1) // gap
                want = [closed(n, k, alpha, gap) for k in range(largest + 1)]
                for first in (0, 1, 2, largest // 2, largest, largest + 1):
                    got = list(_size_classes(n, first, alpha, gap, q))
                    assert got == want[first:], (alpha, gap, first)

    def test_rejects_bad_queries(self):
        with pytest.raises(ValueError):
            condition_count(-1, Condition())

    @pytest.mark.parametrize("n", [5.0, True, Fraction(5), "5"])
    @pytest.mark.parametrize("decimal", [False, True])
    def test_n_takes_ints_only(self, n, decimal):
        # True counted as n = 1 (2 subsets); 5.0 failed inside the engine.
        with pytest.raises(ValueError, match=f"^n must be an int, got {type(n).__name__}$"):
            condition_count(n, Condition(), _decimal=decimal)
        with pytest.raises(ValueError):
            condition_count(3, Condition(forced_max=4))
        with pytest.raises(ValueError):
            condition_gf(Condition(forced_max=4))


class TestDecimalCarrier:
    """condition_count(..., _decimal=True), the path the CLI prints: a count
    that will print wide comes back as an integral Decimal, computed in the
    exact context, and every other count as the same int as before."""

    WIDE = [
        (50_000, Condition(gap_parity=GAP_ALL_ODD)),  # F_{n+3} - 1, 34,700 bits
        (40_000, Condition(gap_parity=GAP_ALL_EVEN)),  # 20,000 bits
        (50_000, Condition(gap_parity=GAP_ALL_ODD, min_size=3)),
        (50_000, Condition(gap_parity=GAP_ALL_ODD, forced_max=49_000)),
        (250_000, Condition(beta=2)),  # order 2, 173,500 bits
        (300_000, Condition(alpha=1, beta=2)),  # Toom order 3, 165,500 bits
        # Orders 1 and 2 carry once they print past formats.STR_MAX_BITS.
        (28_000, Condition(gap_parity=GAP_ALL_EVEN)),  # 14,001 bits
        (100_000, Condition(alpha=1, beta=1)),  # 69,400 bits at order 2
        (10**6, Condition(gap_parity=GAP_ALL_EVEN, forced_max=10**6)),  # a power of two
    ]

    @pytest.mark.parametrize("n, cond", WIDE)
    def test_wide_counts_are_integral_decimals(self, n, cond):
        import decimal

        # The caller's context does not matter: the count is exact anyway.
        with decimal.localcontext(decimal.Context(prec=5, traps=[])):
            value = condition_count(n, cond, _decimal=True)
        assert isinstance(value, decimal.Decimal)
        sign, _, exponent = value.as_tuple()
        assert (sign, exponent) == (0, 0)
        assert str(value) == render_int(condition_count(n, cond))

    def test_the_exact_context_traps_rounding(self):
        import decimal

        from seqforge.fasteval import _exact_context

        ctx = _exact_context()
        assert ctx.prec == decimal.MAX_PREC
        assert ctx.traps[decimal.Inexact] and ctx.traps[decimal.Rounded]
        assert ctx.traps[decimal.InvalidOperation]

    def test_a_rounding_step_raises(self, monkeypatch):
        # The same traps with too little precision: the count raises rather
        # than print a wrong digit.
        import decimal

        short = decimal.Context(prec=1000, traps=[decimal.Inexact, decimal.Rounded])
        monkeypatch.setattr(fasteval, "_exact_context", lambda: short)
        for n, cond in self.WIDE[:2]:
            with pytest.raises((decimal.Inexact, decimal.Rounded)):
                condition_count(n, cond, _decimal=True)

    @pytest.mark.parametrize("n, cond", [
        (20_000, Condition(gap_parity=GAP_ALL_ODD)),  # 13,900 bits: str() prints it
        (20_000, Condition(alpha=1, beta=1)),  # 13,900 bits at order 2
        (150_000, Condition(alpha=2, beta=4)),  # 54,300 bits: a narrow power
        (20_000, Condition(gap_parity=GAP_ALL_EVEN, forced_max=20_000)),  # 10,000 bits
        (20_000, Condition(gap_parity=GAP_ALL_ODD, forced_max=20_000)),  # 13,900 bits
        (40, Condition(alpha=2, beta=1)),
        (0, Condition()),
    ])
    def test_narrow_counts_stay_ints(self, n, cond):
        value = condition_count(n, cond, _decimal=True)
        assert type(value) is int
        assert value == condition_count(n, cond)

    def test_library_callers_get_ints(self):
        for n, cond in self.WIDE[:3]:
            assert type(condition_count(n, cond)) is int
        assert type(fibonacci(50_000)) is int
