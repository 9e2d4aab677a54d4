import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import identities
from seqforge.identities import (
    IdentityReport,
    check_bijection_round_trip,
    check_fib_h,
    check_gen_shift,
    check_gen_sum,
    check_odd_gap_h,
    decimal_string,
    drop_max_shift_down,
    scan_identity,
    shift_up_adjoin_max,
)
from seqforge.recurrences import (
    _GF,
    FAMILIES,
    condition_count,
    even_gap_family_size,
    fibonacci,
    window,
)
from seqforge.subsets import (
    GAP_ALL_ODD,
    Condition,
    enumerate_subsets,
)

from helpers import brute_count, gaps_of, matches, ratio_report, term


def odd_gap_family_size(n):
    return condition_count(n, Condition(gap_parity=GAP_ALL_ODD))


def either_parity_family_size(n):
    # Inclusion-exclusion: the two families share exactly the n + 1 subsets
    # of size <= 1, whose gap list is empty.
    return odd_gap_family_size(n) + even_gap_family_size(n) - (n + 1)


class TestReportMachinery:
    def test_scan_records_first_counterexample(self):
        report = scan_identity("demo", (0, 3), [(0, 1, 1), (1, 2, 3), (2, 5, 6)])
        assert report.passed is False
        assert report.first_counterexample == (1, 2, 3)

    def test_scan_passes_clean_sweep(self):
        report = scan_identity("demo", (0, 2), [(i, i, i) for i in range(3)])
        assert report.passed is True and report.first_counterexample is None


class TestIntsOnly:
    @pytest.mark.parametrize("check, args, name", [
        (check_fib_h, (5.0,), "n_max"),
        (check_fib_h, (True,), "n_max"),
        (check_gen_sum, (3, 2.0), "k_max"),
        (check_gen_sum, (3.0, 2), "n"),
        (check_gen_shift, (3, 2.5), "m_max"),
        (check_odd_gap_h, (3.0, 5), "n_max_oracle"),
        (check_odd_gap_h, (3, 5.0), "n_max_gf"),
        (check_bijection_round_trip, (2, 3, 12.0), "n_max"),
        (check_bijection_round_trip, (2.0, 3, 12), "alpha"),
        (drop_max_shift_down, ((7,), 7.0, 2, 3), "n"),
        (shift_up_adjoin_max, ((2,), 7.5, 2, 3), "n"),
        (shift_up_adjoin_max, ((2,), 7, 2, True), "beta"),
        (decimal_string, (Fraction(2, 3), 2.5), "sig_digits"),
        (decimal_string, (Fraction(2, 3), True), "sig_digits"),
    ], ids=[
        "fib-h", "fib-h-bool", "gen-sum", "gen-sum-order", "gen-shift", "oddgap-h-oracle",
        "oddgap-h-gf", "bijection", "bijection-alpha", "drop-max", "shift-up", "shift-up-beta",
        "decimal-digits", "decimal-digits-bool",
    ])
    def test_refuses_non_ints(self, check, args, name):
        bad = next(a for a in args if type(a) not in (int, tuple, Fraction))
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
            check(*args)


class TestSeriesBounds:
    # Each range is checked once, under its own name; an order by the
    # FAMILIES bounds of the sides it reads.
    @pytest.mark.parametrize("check, args, message", [
        (check_fib_h, (-1,), "n_max must be >= 0"),
        (check_gen_sum, (3, -1), "k_max must be >= 0"),
        (check_gen_shift, (3, -1), "m_max must be >= 0"),
        (check_gen_sum, (1, 5), "n must be >= 2"),
        (check_gen_shift, (1, 5), "n must be >= 2"),
        (check_gen_sum, (1, -1), "n must be >= 2"),
        (check_odd_gap_h, (0, 5), "n_max_oracle must be >= 1"),
        (check_odd_gap_h, (3, 0), "n_max_gf must be >= 1"),
        (check_gen_sum, (sys.maxsize, 5),
         f"index {sys.maxsize + 1} of genfib[{sys.maxsize}] is past 2000000"),
        (check_gen_shift, (sys.maxsize // 2 + 1, 5),
         f"index {sys.maxsize + 1} of genfib[{sys.maxsize // 2 + 1}] is past 2000000"),
        # gen-sum reads genfib from n + 1, gen-shift from 2n: one past the bound.
        (check_gen_sum, (2 * 10**6, 5), "index 2000001 of genfib[2000000] is past 2000000"),
        (check_gen_shift, (10**6 + 1, 5), "index 2000002 of genfib[1000001] is past 2000000"),
    ])
    def test_refuses_out_of_range(self, check, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(*args)


class TestFibH:
    def test_base_case(self):
        assert fibonacci(4) == 3 == 0 + 0 + 3

    def test_small_value(self):
        # F_6 = 8 and the twice-accumulated value at 2 is 3, so 3 + 2 + 3.
        assert fibonacci(6) == 8 == term(window("H", 2), 2) + 2 + 3

    def test_sweep_to_200(self):
        report = check_fib_h(200)
        assert report.passed is True
        assert report.range_checked == (0, 200)


class TestGenSum:
    def test_table_values_order_three(self):
        report = check_gen_sum(3, 7)
        assert report.passed is True

    def test_fibonacci_case(self):
        assert check_gen_sum(2, 100).passed is True

    def test_sweep(self):
        for n in range(2, 9):
            assert check_gen_sum(n, 300).passed is True

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            check_gen_sum(1, 10)


class TestGenShift:
    def test_table_values_order_three(self):
        assert check_gen_shift(3, 6).passed is True

    def test_fibonacci_case_reduces_to_fib_h(self):
        assert check_gen_shift(2, 200).passed is True

    def test_sweep(self):
        for n in range(2, 9):
            assert check_gen_shift(n, 300).passed is True


class TestOddGapH:
    def test_oracle_and_dp_ranges(self):
        report = check_odd_gap_h(12, 500)
        assert report.passed is True
        assert report.range_checked == (1, 500)

    def test_tiny_ranges(self):
        assert check_odd_gap_h(1, 1).passed is True

    @pytest.mark.parametrize("oracle_to", [1, 2, 16])
    def test_stock_reports(self, oracle_to):
        assert check_odd_gap_h(oracle_to, 500) == IdentityReport("oddgap-h", (1, 500))
        assert check_odd_gap_h(oracle_to, 1) == IdentityReport("oddgap-h", (1, oracle_to))

    def test_oracle_column_is_read_by_n(self, monkeypatch):
        # One search counts every n; an entry off by one at n = 7 must be
        # reported at index 7, not at a neighbour.
        real = identities._counts_upto

        def off_at_seven(n_max, cond, limit):
            counts = real(n_max, cond, limit)
            counts[7] += 1
            return counts

        monkeypatch.setattr(identities, "_counts_upto", off_at_seven)
        report = check_odd_gap_h(12, 500)
        index, lhs, rhs = report.first_counterexample
        assert (index, lhs - rhs) == (7, 1)
        assert rhs == brute_count(7, lambda t: len(t) >= 2 and all(g % 2 for g in gaps_of(t)))


def one_term_off(monkeypatch, family, index, **params):
    # Every read of the series of the FAMILIES row family with params, by
    # the checks or the test, gains 1 at the given absolute index; the
    # others are as they were.
    real, gf = _GF.series, FAMILIES[family].gf(**params)

    def series(value, number=int):
        terms = real(value, number)
        return (t + (i == index) for i, t in enumerate(terms)) if value == gf else terms

    monkeypatch.setattr(_GF, "series", series)


class TestSeriesCounterexamples:
    # A wrong offset or a swapped side moves the reported (index, lhs, rhs).
    def test_fib_h(self, monkeypatch):
        one_term_off(monkeypatch, "H", 50)
        report = check_fib_h(200)
        assert report.first_counterexample == (50, fibonacci(54), fibonacci(54) + 1)

    def test_gen_sum(self, monkeypatch):
        # genfib[3] is read from index n + 1 = 4, so its term 20 is at k = 16.
        one_term_off(monkeypatch, "genfib", 20, n=3)
        total = term(window("genk", 17, n=3), 17)
        assert check_gen_sum(3, 300).first_counterexample == (16, total, total + 1)

    def test_gen_shift(self, monkeypatch):
        # The left side, genfib[3], is read from index 2n = 6. The window
        # is read first: the seam moves every read of genfib[3]'s series.
        value = term(window("genfib", 20, n=3), 20)
        one_term_off(monkeypatch, "genfib", 20, n=3)
        assert check_gen_shift(3, 300).first_counterexample == (14, value + 1, value)

    def test_odd_gap_h_generating_function_half(self, monkeypatch):
        # Past the oracle's range, only the series of the condition is read.
        one_term_off(monkeypatch, "minsize-oddgap", 100, k=2)
        h = term(window("H", 99), 99)
        assert check_odd_gap_h(12, 500).first_counterexample == (100, h + 1, h)

    @pytest.mark.parametrize("off", [None, 30])
    def test_fib_h_is_gen_shift_at_order_two(self, monkeypatch, off):
        if off is not None:
            one_term_off(monkeypatch, "genh", off, n=2)
        fib_h, gen_shift = check_fib_h(120), check_gen_shift(2, 120)
        assert (fib_h.identity_id, gen_shift.identity_id) == ("fib-h", "gen-shift[n=2]")
        assert fib_h._values()[1:] == gen_shift._values()[1:]
        assert fib_h.passed is (off is None)


class TestBijections:
    def test_forward_examples(self):
        assert drop_max_shift_down((7,), 7, 2, 3) == ()
        assert drop_max_shift_down((4, 7), 7, 2, 3) == (2,)
        assert drop_max_shift_down((2, 4), 4, 1, 2) == (1,)

    def test_inverse_examples(self):
        assert shift_up_adjoin_max((), 7, 2, 3) == (7,)
        assert shift_up_adjoin_max((2,), 7, 2, 3) == (4, 7)
        assert shift_up_adjoin_max((1,), 4, 1, 2) == (2, 4)

    def test_forward_requires_max_n(self):
        with pytest.raises(ValueError):
            drop_max_shift_down((4, 6), 7, 2, 3)

    def test_forward_requires_family_membership(self):
        # {1, 7} is not 2-Schreier (1 < 2 * 2).
        with pytest.raises(ValueError, match=r"^input must be 2-Schreier and 3-Zeckendorf: \(1, 7\)$"):
            drop_max_shift_down((1, 7), 7, 2, 3)
        # {4, 6, 7} has a gap of 1 < 3.
        with pytest.raises(ValueError, match="3-Zeckendorf"):
            drop_max_shift_down((4, 6, 7), 7, 2, 3)

    def test_a_bool_is_refused_after_an_int_call(self):
        # The halves cache each (alpha, beta) family; True must not be
        # served the entry of 1.
        identities._family.cache_clear()
        assert drop_max_shift_down((2, 4), 4, 1, 1) == (1,)
        assert shift_up_adjoin_max((1,), 4, 1, 1) == (2, 4)
        with pytest.raises(ValueError, match="^alpha must be an int, got bool$"):
            drop_max_shift_down((2, 4), 4, True, 1)
        with pytest.raises(ValueError, match="^beta must be an int, got bool$"):
            shift_up_adjoin_max((1,), 4, 1, True)

    def test_inverse_requires_shrunken_ambient(self):
        with pytest.raises(ValueError):
            shift_up_adjoin_max((3,), 7, 2, 3)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_round_trip_and_image_predicates(self, alpha, beta):
        lag = alpha + beta
        for n in range(lag, 11):
            family = Condition(alpha=alpha, beta=beta)
            with_max = list(
                enumerate_subsets(n, Condition(alpha=alpha, beta=beta, forced_max=n))
            )
            shrunken = list(enumerate_subsets(n - lag, family))
            assert len(with_max) == len(shrunken)
            for s in with_max:
                image = drop_max_shift_down(s, n, alpha, beta)
                assert max(image, default=0) <= n - lag
                assert matches(image, family, n - lag)
                assert shift_up_adjoin_max(image, n, alpha, beta) == s
            for s in shrunken:
                image = shift_up_adjoin_max(s, n, alpha, beta)
                assert matches(image, Condition(alpha=alpha, beta=beta, forced_max=n), n)
                assert drop_max_shift_down(image, n, alpha, beta) == s

    def test_round_trip_report(self):
        report = check_bijection_round_trip(2, 3, 12)
        assert report.passed is True
        assert report.range_checked == (5, 12)
        # The check compares image lists with the enumerated families in
        # order, so it leans on the halves keeping enumeration order.
        for alpha in range(1, 6):
            for beta in range(1, 6):
                assert check_bijection_round_trip(alpha, beta, 16).passed is True, (alpha, beta)

    @pytest.mark.parametrize("half, wrong, first_counterexample", [
        # Shifting by beta, not alpha, first differs at {4, 7} -> {1}, where
        # the shrunken family of n = 7 holds {2}.
        ("drop_max_shift_down", lambda s, n, a, b: tuple(e - b for e in s[:-1]), (7, 1, 0)),
        ("shift_up_adjoin_max", lambda s, n, a, b: tuple(e + b for e in s) + (n,), (7, 1, 0)),
        # Keeping the maximum maps {5} to {3}, not the empty set.
        ("drop_max_shift_down", lambda s, n, a, b: tuple(e - a for e in s), (5, 1, 0)),
    ], ids=["down-by-beta", "up-by-beta", "down-keeps-max"])
    def test_a_wrong_half_fails_at_the_first_bad_n(self, monkeypatch, half, wrong, first_counterexample):
        monkeypatch.setattr(identities, half, wrong)
        report = check_bijection_round_trip(2, 3, 12)
        assert report.passed is False
        assert report.first_counterexample == first_counterexample

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_one_search_hands_each_half_the_per_n_families(self, monkeypatch, alpha, beta):
        # The check slices one search of {1..n_max}. Each half must still be
        # handed, n by n and in order, the family that a search of that n
        # alone enumerates.
        lag = alpha + beta
        family = Condition(alpha=alpha, beta=beta)
        for n_max in range(lag, 15):
            handed = {"drop_max_shift_down": [], "shift_up_adjoin_max": []}
            with monkeypatch.context() as patch:
                for name, calls in handed.items():
                    half = getattr(identities, name)
                    spy = lambda s, n, a, b, half=half, calls=calls: calls.append((n, s)) or half(s, n, a, b)
                    patch.setattr(identities, name, spy)
                assert check_bijection_round_trip(alpha, beta, n_max).passed
            ns = range(lag, n_max + 1)
            assert handed == {
                "drop_max_shift_down": [
                    (n, s) for n in ns for s in enumerate_subsets(n, Condition(alpha=alpha, beta=beta, forced_max=n))
                ],
                "shift_up_adjoin_max": [(n, t) for n in ns for t in enumerate_subsets(n - lag, family)],
            }, n_max

    def test_range_below_the_lag_is_rejected(self):
        # No n in [alpha + beta, n_max] leaves nothing checked, not a pass.
        for n_max in (-5, 1, 4):
            with pytest.raises(ValueError, match=r"alpha \+ beta = 5"):
                check_bijection_round_trip(2, 3, n_max)
        assert check_bijection_round_trip(2, 3, 5).range_checked == (5, 5)


class TestFamilySizes:
    def test_closed_forms_match_oracle(self):
        for n in range(1, 13):
            odd = brute_count(n, lambda t: all(g % 2 == 1 for g in gaps_of(t)))
            even = brute_count(n, lambda t: all(g % 2 == 0 for g in gaps_of(t)))
            union = brute_count(
                n,
                lambda t: all(g % 2 == 1 for g in gaps_of(t))
                or all(g % 2 == 0 for g in gaps_of(t)),
            )
            overlap = brute_count(n, lambda t: len(t) <= 1)
            assert odd_gap_family_size(n) == odd == fibonacci(n + 3) - 1
            assert even_gap_family_size(n) == even
            assert either_parity_family_size(n) == union
            assert overlap == n + 1


class TestRatioReport:
    def test_first_sample_is_one(self):
        report = ratio_report(10)
        assert report.samples[0] == (1, Fraction(1), "1")

    def test_value_at_ten(self):
        report = ratio_report(10)
        assert report.samples[9].value == Fraction(232, 284)
        assert report.samples[9].decimal == "0.816901408451"

    def test_samples_lie_in_unit_interval(self):
        for sample in ratio_report(60).samples:
            assert 0 <= sample.value <= 1

    def test_monotone_behaviour(self):
        # Parity wobble makes the share oscillate through n = 9 (it drops at
        # n = 3, 4, 5, 7, 9); from there on it climbs strictly toward 1.
        samples = ratio_report(60).samples
        assert samples[2].value < samples[1].value
        assert samples[8].value < samples[7].value
        for a, b in zip(samples[8:], samples[9:]):
            assert b.value > a.value
            assert (1 - b.value) < (1 - a.value)

    def test_final_gap(self):
        report = ratio_report(60)
        assert report.final_gap_exact == 1 - report.samples[-1].value
        assert report.final_gap_exact < Fraction(1, 1000)
        assert report.final_gap == decimal_string(report.final_gap_exact)
        # `verify --id ratio` computes 1 - r_n from the family sizes alone:
        # the union less the odd-gap family is the even-gap family less the
        # n + 1 subsets of size <= 1.
        for sample in ratio_report(300).samples:
            n = sample.n
            gap = Fraction(even_gap_family_size(n) - (n + 1), either_parity_family_size(n))
            assert gap == 1 - sample.value, n
        for n in (1, 2, 3, 10, 60, 250, 2000):
            gap = Fraction(even_gap_family_size(n) - (n + 1), either_parity_family_size(n))
            assert gap == ratio_report(n).final_gap_exact, n

    def test_even_share_decays_to_zero(self):
        values = [Fraction(even_gap_family_size(n), odd_gap_family_size(n)) for n in range(5, 61)]
        for a, b in zip(values, values[1:]):
            assert b < a
        assert values[-1] < Fraction(1, 1000)
        assert all(v > 0 for v in values)


def half_away(value, sig):
    """value rounded half away from zero at sig significant digits, by
    exact comparisons and one floor in Fractions."""
    mag = abs(value)
    e = (mag.numerator.bit_length() - mag.denominator.bit_length()) * 3 // 10
    while Fraction(10) ** e > mag:
        e -= 1
    while Fraction(10) ** (e + 1) <= mag:
        e += 1
    unit = Fraction(10) ** (e - sig + 1)
    return (1 if value > 0 else -1) * math.floor(mag / unit + Fraction(1, 2)) * unit


class TestDecimalString:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(0), "0"),
            (Fraction(1), "1"),
            (Fraction(232, 284), "0.816901408451"),
            (Fraction(1, 3), "0.333333333333"),
            (Fraction(-5, 8), "-0.625"),
            (Fraction(1, 10**6), "0.000001"),
            (Fraction(2, 3), "0.666666666667"),
            (Fraction(1048576), "1048576"),
            (Fraction(19999999999999), "20000000000000"),
        ],
    )
    def test_renderings(self, value, expected):
        assert decimal_string(value) == expected

    def test_never_scientific(self):
        for value in (Fraction(1, 10**12), Fraction(10**14), Fraction(3, 7 * 10**9)):
            text = decimal_string(value)
            assert "e" not in text and "E" not in text

    def test_wide_rationals_under_the_default_digit_cap(self):
        # 10,000-digit numerators and denominators: the exponent comes from
        # bit lengths, so no str() of them meets the interpreter's cap
        # (cli.main lifts it for the whole process, hence the restore).
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit cap on this interpreter")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert decimal_string(Fraction("1e-0009999")) == "0." + "0" * 9998 + "1"
            assert decimal_string(Fraction("-7e9999")) == "-7" + "0" * 9999
            assert decimal_string(Fraction(10**9999 - 1, 3 * 10**9999)) == "0.333333333333"
        finally:
            sys.set_int_max_str_digits(saved)

    def test_precision_parameter(self):
        assert decimal_string(Fraction(2, 3), sig_digits=4) == "0.6667"
        assert decimal_string(Fraction(12345, 1), sig_digits=3) == "12300"
        assert decimal_string(Fraction(2, 3), sig_digits=1) == "0.7"

    @pytest.mark.parametrize("value", [Fraction(2, 3), Fraction(0), 7])
    @pytest.mark.parametrize("sig_digits", [0, -1])
    def test_no_significant_digits_is_refused(self, value, sig_digits):
        # No digits is no rendering: not "0", which would misstate 2/3.
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            decimal_string(value, sig_digits)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=-(10**18), max_value=10**18),
        st.integers(min_value=1, max_value=10**18),
        st.integers(min_value=1, max_value=15),
    )
    def test_rendering_is_correctly_rounded(self, num, den, sig):
        value = Fraction(num, den)
        text = decimal_string(value, sig_digits=sig)
        parsed = Fraction(text)
        if value == 0:
            assert parsed == 0
            return
        # Half-away rounding at sig significant digits: the rendered value
        # sits within half a unit in the last rendered place.
        exponent = 0
        scaled = abs(value)
        while scaled >= 10:
            scaled /= 10
            exponent += 1
        while scaled < 1:
            scaled *= 10
            exponent -= 1
        ulp = Fraction(10) ** (exponent - sig + 1)
        assert abs(parsed - value) <= ulp / 2

    @pytest.mark.parametrize("value, sig_digits, expected", [
        (Fraction(1, 8), 2, "0.13"),
        (Fraction(-5, 8), 2, "-0.63"),
        (Fraction(95, 100), 1, "1"),
    ])
    def test_ties_round_away_from_zero(self, value, sig_digits, expected):
        # Half-even would give 0.12 and -0.62; 0.95 ties up under either rule
        # and carries into a new leading digit.
        assert decimal_string(value, sig_digits) == expected
        assert Fraction(expected) == half_away(value, sig_digits)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10**40),
        st.integers(min_value=-60, max_value=60),
        st.sampled_from((1, -1)),
    )
    def test_exact_ties(self, sig, m, e, sign):
        # m 10^e + 5 10^(e-1) ties at the last digit of m, so at sig digits
        # whenever m has exactly sig of them.
        m = 10 ** (sig - 1) + m % (9 * 10 ** (sig - 1))
        value = sign * (m * Fraction(10) ** e + 5 * Fraction(10) ** (e - 1))
        assert Fraction(decimal_string(value, sig)) == half_away(value, sig) == sign * (m + 1) * Fraction(10) ** e

    def test_wide_operands_round_exactly(self):
        # 10^5-bit numerators and denominators, and a tie at 12 digits
        # 10^5 bits above the units and one 10^5 bits below them.
        num, den = 3**63093 + 1, 7**35620
        for value in (Fraction(num, den), Fraction(-den, num)):
            for sig in (1, 12, 40):
                assert Fraction(decimal_string(value, sig)) == half_away(value, sig)
        tie = Fraction(1234567890125)
        assert decimal_string(tie * 10**30100) == "123456789013" + "0" * 30101
        assert decimal_string(-tie / 10**30113) == "-0." + "0" * 30100 + "123456789013"
