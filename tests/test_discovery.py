import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import tail_recurrence_of
from seqforge.discovery import (
    BM_SAFETY_MARGIN,
    _bm_connection,
    berlekamp_massey,
    discover_order,
    verify_recurrence,
)
from seqforge.fasteval import LinearRecurrence

from helpers import (
    bm_connection_fraction,
    eval_iterative,
    fits_linear_recurrence,
    last_index,
    schreier_zeckendorf_seq,
    term,
)

FIB = LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=0)


class TestBerlekampMassey:
    def test_fibonacci_prefix(self):
        report = berlekamp_massey([0, 1, 1, 2, 3, 5, 8, 13, 21, 34])
        assert report.found is not None
        assert report.found.order == 2
        assert report.found.coeffs == (1, 1)
        assert report.minimal is True
        assert report.verified_upto == 9

    def test_counting_sequence_prefix(self):
        report = berlekamp_massey([2, 3, 4, 6, 9, 13, 19, 28, 41], start_index=1)
        assert report.found is not None
        assert report.found.order == 3
        assert report.found.coeffs == (1, 0, 1)
        assert report.found.valid_from == 1

    def test_constant_sequence(self):
        report = berlekamp_massey([5, 5, 5, 5, 5, 5])
        assert report.found is not None
        assert report.found.order == 1
        assert report.found.coeffs == (1,)

    def test_all_zero_prefix_is_inconclusive(self):
        report = berlekamp_massey([0, 0, 0, 0])
        assert report.found is None and report.minimal is False

    def test_eventually_zero_prefix_is_inconclusive(self):
        report = berlekamp_massey([1, 0, 0, 0, 0])
        assert report.found is None
        assert "degenerate" in report.note

    def test_short_prefix_is_inconclusive(self):
        # Order L needs 2L + 2 terms: order 2 fits 5 terms but needs 6.
        report = berlekamp_massey([0, 1, 1, 2, 3])
        assert report.found is None
        assert "too short" in report.note and "(need 6)" in report.note
        assert berlekamp_massey([0, 1, 1, 2, 3, 5]).found.coeffs == (1, 1)

    def test_rejects_trivial_prefix(self):
        with pytest.raises(ValueError):
            berlekamp_massey([1])

    def test_rational_coefficients_come_out_exact(self):
        # x(n) = (1/2) x(n-1) scaled to integers at every term we feed.
        report = berlekamp_massey([64, 32, 16, 8, 4, 2, 1])
        assert report.found is not None
        assert report.found.order == 1
        assert report.found.coeffs == (Fraction(1, 2),)

    def test_rational_prefix_keeps_its_terms(self):
        prefix = [Fraction(v, 6) for v in (0, 1, 1, 2, 3, 5, 8, 13)]
        report = berlekamp_massey(prefix)
        assert report.found.coeffs == (1, 1)
        assert [type(c) for c in report.found.coeffs] == [int, int]
        assert report.found.initials == (0, Fraction(1, 6))

    @pytest.mark.parametrize(
        "prefix,index,kind",
        [
            ([1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0], 0, "float"),
            ([0, 1, 1, 2, 3, 5.0, 8, 13], 5, "float"),
            (["1", "1", "2", "3", "5", "8"], 0, "str"),
            ([1, 2, Decimal(3), 4, 5, 6], 2, "Decimal"),
            ([1, 2, 3, None], 3, "NoneType"),
            ([True, False, True, False, True, False], 0, "bool"),
            ([0, 1, 1, 2, True, 5, 8], 4, "bool"),
        ],
    )
    def test_inexact_terms_are_refused(self, prefix, index, kind):
        with pytest.raises(ValueError, match=rf"^prefix term {index} is a {kind}, not an exact rational$"):
            berlekamp_massey(prefix)


class TestVerifyRecurrence:
    def test_defining_property(self):
        assert verify_recurrence(FIB, [0, 1, 1, 2, 3, 5]) is True

    def test_detects_mismatch(self):
        assert verify_recurrence(FIB, [0, 1, 1, 2, 4]) is False

    def test_short_prefix_is_inconclusive_not_false(self):
        assert verify_recurrence(FIB, [0, 1]) is None
        assert verify_recurrence(FIB, [7, 8]) is None

    def test_oracle_prefix_with_piecewise_head(self):
        # Prefix starts at index 1, before valid_from + order = 7, and the
        # relation is only demanded from 7 on.
        window = schreier_zeckendorf_seq(2, 3, 20)
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=2, beta=3)
        assert verify_recurrence(rec, list(window.terms), start_index=1) is True

    def test_indices_before_valid_from_are_not_checked(self):
        # The relation is only claimed from valid_from + order on, so the
        # violations at indices 1..5 of this prefix must be ignored.
        rec = LinearRecurrence(coeffs=(1,), initials=(9,), valid_from=5)
        assert verify_recurrence(rec, [1, 2, 3, 4, 5, 9, 9], start_index=0) is True
        assert verify_recurrence(rec, [1, 2, 3, 4, 5, 9, 8], start_index=0) is False


class TestDiscoverOrder:
    @pytest.mark.parametrize(
        "alpha,beta", [(1, 1), (2, 2), (3, 1), (1, 3), (2, 3), (4, 4)]
    )
    def test_recovers_order_alpha_plus_beta(self, alpha, beta):
        order = alpha + beta
        report = discover_order(alpha, beta, 4 * order + 4)
        assert report.found is not None
        assert report.found.order == order
        expected = tuple(1 if i in (1, order) else 0 for i in range(1, order + 1))
        assert report.found.coeffs == expected
        assert report.minimal is True

    def test_probe_too_short_is_inconclusive(self):
        report = discover_order(1, 1, 3)
        assert report.found is None
        assert "too short" in report.note

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            discover_order(0, 1, 20)
        with pytest.raises(ValueError):
            discover_order(1, 1, 0)

    @pytest.mark.parametrize("args, name", [
        ((2.0, 3, 40), "alpha"),
        ((2, True, 40), "beta"),
        ((2, 3, 40.0), "probe_len"),
    ])
    def test_takes_ints_only(self, args, name):
        bad = next(a for a in args if type(a) is not int)
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
            discover_order(*args)

    def test_found_recurrence_extends_beyond_probe(self):
        report = discover_order(2, 3, 24)
        window = schreier_zeckendorf_seq(2, 3, 120)
        tail = [term(window, i) for i in range(7, 121)]
        assert verify_recurrence(report.found, tail, start_index=7) is True


class TestMinimality:
    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_no_shorter_recurrence_fits_the_tail(self, alpha, beta):
        order = alpha + beta
        start = 2 * alpha + beta
        window = schreier_zeckendorf_seq(alpha, beta, start + 4 * order - 1)
        tail = [term(window, i) for i in range(start, last_index(window) + 1)]
        for shorter in range(1, order):
            assert not fits_linear_recurrence(tail, shorter)
        assert fits_linear_recurrence(tail, order)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_recovery(data):
    order = data.draw(st.integers(min_value=1, max_value=6))
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-3, max_value=3), min_size=order, max_size=order
        ).filter(lambda c: c[-1] != 0)
    )
    initials = data.draw(
        st.lists(
            st.integers(min_value=-9, max_value=9), min_size=order, max_size=order
        ).filter(lambda v: any(v))
    )
    rec = LinearRecurrence(coeffs=tuple(coeffs), initials=tuple(initials))
    probe = [eval_iterative(rec, n) for n in range(4 * order)]
    report = berlekamp_massey(probe)
    assert report.found is not None
    assert report.found.order <= order
    longer = [eval_iterative(rec, n) for n in range(4 * order + 100)]
    assert verify_recurrence(report.found, longer, start_index=0) is True


SMALL = st.integers(min_value=-9, max_value=9)
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def perturbed_recurrent(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    terms = draw(st.lists(SMALL, min_size=order, max_size=order))
    length = draw(st.integers(min_value=order + 1, max_value=5 * order + 4))
    while len(terms) < length:
        terms.append(sum(c * terms[-1 - t] for t, c in enumerate(coeffs)))
    terms[draw(st.integers(0, length - 1))] += draw(st.integers(-2, 2))
    return terms


@st.composite
def eventually_zero(draw):
    head = draw(st.lists(SMALL | RATIONALS, max_size=6))
    return head + [0] * draw(st.integers(min_value=1, max_value=12))


def assert_matches_the_fraction_oracle(prefix):
    L, C, tail = bm_connection_fraction(prefix)
    assert not any(tail)  # deg C <= L, which the int synthesis relies on
    got = _bm_connection(prefix)
    assert got == (L, C)
    assert [type(c) for c in got[1]] == [int if c.denominator == 1 else Fraction for c in C]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(SMALL, min_size=1, max_size=40)
    | st.lists(SMALL | RATIONALS, min_size=1, max_size=30)
    | perturbed_recurrent()
    | eventually_zero()
)
def test_int_synthesis_matches_the_fraction_oracle(prefix):
    assert_matches_the_fraction_oracle(prefix)


def test_long_prefix_matches_the_fraction_oracle():
    rng = random.Random(12)
    prefix = [rng.randint(-9, 9) for _ in range(220)]
    assert_matches_the_fraction_oracle(prefix)
    assert _bm_connection(prefix)[0] == 110
