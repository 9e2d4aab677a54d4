import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from seqforge.recurrences import condition_count, even_gap_family_size, fibonacci, window
from seqforge.subsets import (
    GAP_ALL_ODD,
    Condition,
    Subset,
    enumerate_subsets,
    is_alpha_schreier,
    is_beta_zeckendorf,
)

from helpers import brute_count, gaps_of, ratio_report


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

    def test_report_consistency_is_enforced(self):
        with pytest.raises(ValueError):
            IdentityReport("demo", (0, 1), True, (0, 1, 2))
        with pytest.raises(ValueError):
            IdentityReport("demo", (0, 1), False, None)


class TestFibH:
    def test_base_case(self):
        assert fibonacci(4) == 3 == 0 + 0 + 3

    def test_small_value(self):
        # F_6 = 8 and the twice-accumulated value at 2 is 3, so 3 + 2 + 3.
        assert fibonacci(6) == 8 == window("H", 2).term(2) + 2 + 3

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


class TestBijections:
    def test_forward_examples(self):
        assert drop_max_shift_down(Subset([7]), 7, 2, 3) == Subset()
        assert drop_max_shift_down(Subset([4, 7]), 7, 2, 3) == Subset([2])
        assert drop_max_shift_down(Subset([2, 4]), 4, 1, 2) == Subset([1])

    def test_inverse_examples(self):
        assert shift_up_adjoin_max(Subset(), 7, 2, 3) == Subset([7])
        assert shift_up_adjoin_max(Subset([2]), 7, 2, 3) == Subset([4, 7])
        assert shift_up_adjoin_max(Subset([1]), 4, 1, 2) == Subset([2, 4])

    def test_forward_requires_max_n(self):
        with pytest.raises(ValueError):
            drop_max_shift_down(Subset([4, 6]), 7, 2, 3)

    def test_forward_requires_family_membership(self):
        # {1, 7} is not 2-Schreier (1 < 2 * 2).
        with pytest.raises(ValueError):
            drop_max_shift_down(Subset([1, 7]), 7, 2, 3)
        # {4, 6, 7} has a gap of 1 < 3.
        with pytest.raises(ValueError):
            drop_max_shift_down(Subset([4, 6, 7]), 7, 2, 3)

    def test_inverse_requires_shrunken_ambient(self):
        with pytest.raises(ValueError):
            shift_up_adjoin_max(Subset([3]), 7, 2, 3)

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
                assert is_alpha_schreier(image, alpha)
                assert is_beta_zeckendorf(image, beta)
                assert (image.maximum or 0) <= n - lag
                assert shift_up_adjoin_max(image, n, alpha, beta) == s
            for s in shrunken:
                image = shift_up_adjoin_max(s, n, alpha, beta)
                assert image.maximum == n
                assert is_alpha_schreier(image, alpha)
                assert is_beta_zeckendorf(image, beta)
                assert drop_max_shift_down(image, n, alpha, beta) == s

    def test_round_trip_report(self):
        report = check_bijection_round_trip(2, 3, 12)
        assert report.passed is True
        assert report.range_checked == (5, 12)

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
