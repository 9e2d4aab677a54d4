import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import fasteval
from seqforge.fasteval import (
    EXACT,
    EvalMode,
    LinearRecurrence,
    eval_fast,
    eval_iterative,
    schreier_zeckendorf_count,
    tail_recurrence_of,
)
from seqforge.recurrences import schreier_zeckendorf_seq

from helpers import fib_mod

FIB = LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=0)
MOD = 1_000_000_007


def random_recurrence(rng, max_order=6):
    order = rng.randint(1, max_order)
    coeffs = [rng.randint(-3, 3) for _ in range(order)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-3, 3)
    initials = [rng.randint(-9, 9) for _ in range(order)]
    return LinearRecurrence(
        coeffs=tuple(coeffs), initials=tuple(initials), valid_from=rng.randint(-3, 3)
    )


class TestLinearRecurrence:
    def test_order_is_derived(self):
        assert FIB.order == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearRecurrence(coeffs=(1, 1), initials=(0,))

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            LinearRecurrence(coeffs=(1, 0), initials=(0, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearRecurrence(coeffs=(), initials=())


class TestEvalMode:
    def test_exact_is_identity(self):
        assert EXACT.reduce(-7) == -7

    def test_modular_reduce(self):
        assert EvalMode(5).reduce(12) == 2

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            EvalMode(1)

    @pytest.mark.parametrize("modulus", [1e9 + 7, True, "97"])
    def test_rejects_non_int_modulus(self, modulus):
        with pytest.raises(ValueError, match="modulus must be an int"):
            EvalMode(modulus)


class TestEvalIterative:
    def test_fibonacci_ten(self):
        assert eval_iterative(FIB, 10) == 55

    def test_base_term(self):
        rec = LinearRecurrence(coeffs=(2, -1), initials=(7, 9), valid_from=4)
        assert eval_iterative(rec, 4) == 7
        assert eval_iterative(rec, 5) == 9

    def test_seeded_counting_recurrence(self):
        rec = LinearRecurrence(coeffs=(1, 0, 1), initials=(2, 3, 4), valid_from=1)
        assert eval_iterative(rec, 4) == 6

    def test_rejects_index_below_window(self):
        with pytest.raises(ValueError):
            eval_iterative(FIB, -1)


class TestEvalFast:
    def test_fibonacci_golden(self):
        assert eval_fast(FIB, 30) == 832040

    def test_powers_of_two(self):
        rec = LinearRecurrence(coeffs=(2,), initials=(1,), valid_from=0)
        assert eval_fast(rec, 20) == 1048576

    def test_modular_matches_iterative_at_million(self):
        mode = EvalMode(MOD)
        assert eval_fast(FIB, 10**6, mode) == eval_iterative(FIB, 10**6, mode)

    def test_modular_doubling_checkpoints(self):
        mode = EvalMode(MOD)
        for n in (10**5, 10**6 + 7, 10**7, 10**9):
            expected = fib_mod(n, MOD)
            assert eval_fast(FIB, n, mode) == expected
            assert eval_fast(FIB, n, mode, method="matrix") == expected

    def test_agrees_with_iterative_on_random_recurrences(self):
        rng = random.Random(20260809)
        for _ in range(60):
            rec = random_recurrence(rng)
            n = rec.valid_from + rng.randint(0, 400)
            expected = eval_iterative(rec, n)
            assert eval_fast(rec, n) == expected
            assert eval_fast(rec, n, method="matrix") == expected

    def test_exact_mod_equals_modular(self):
        rng = random.Random(9090)
        mode = EvalMode(10_007)
        for _ in range(40):
            rec = random_recurrence(rng, max_order=4)
            n = rec.valid_from + rng.randint(0, 2000)
            assert eval_fast(rec, n) % 10_007 == eval_fast(rec, n, mode)

    def test_exact_mod_equals_modular_full_sweep(self):
        mode = EvalMode(MOD)
        exact = [eval_fast(FIB, n) for n in range(2001)]
        for n in range(2001):
            assert exact[n] % MOD == eval_fast(FIB, n, mode)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            eval_fast(FIB, 5, method="magic")

    def test_rejects_index_below_window(self):
        with pytest.raises(ValueError):
            eval_fast(FIB, -2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_fast_equals_iterative_property(self, data):
        order = data.draw(st.integers(min_value=1, max_value=5))
        coeffs = data.draw(
            st.lists(
                st.integers(min_value=-3, max_value=3),
                min_size=order,
                max_size=order,
            ).filter(lambda c: c[-1] != 0)
        )
        initials = data.draw(
            st.lists(
                st.integers(min_value=-9, max_value=9),
                min_size=order,
                max_size=order,
            )
        )
        rec = LinearRecurrence(coeffs=tuple(coeffs), initials=tuple(initials))
        n = data.draw(st.integers(min_value=0, max_value=120))
        assert eval_fast(rec, n) == eval_iterative(rec, n)


class TestSquareAndShift:
    # Each index from valid_from to valid_from + order + 1 covers the initial
    # window, the first powered index, and the first 1-bit shifts past it.
    @pytest.mark.parametrize("modulus", [None, 2, 97, 1_000_000_007, 2**61 - 1])
    def test_agrees_with_iterative_at_every_order(self, modulus):
        rng = random.Random(f"square-and-shift:{modulus}")
        mode = EvalMode(modulus)
        for order in range(1, 9):
            for _ in range(3):
                coeffs = [rng.randint(-50, 50) for _ in range(order)]
                coeffs[-1] = coeffs[-1] or -7
                initials = [rng.randint(-10**6, 10**6) for _ in range(order)]
                rec = LinearRecurrence(
                    coeffs=tuple(coeffs), initials=tuple(initials),
                    valid_from=rng.randint(-5, 5),
                )
                lo = rec.valid_from
                for n in [*range(lo, lo + order + 2), lo + rng.randint(order + 2, 300)]:
                    assert eval_fast(rec, n, mode) == eval_iterative(rec, n, mode), (rec, n)

    def test_rational_coefficients(self):
        rec = LinearRecurrence(
            coeffs=(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)),
            initials=(Fraction(1), Fraction(-3, 4), 2),
            valid_from=1,
        )
        for n in range(1, 80):
            assert eval_fast(rec, n) == eval_iterative(rec, n)

    def test_matrix_twin_at_dense_order(self):
        rng = random.Random(41)
        coeffs = tuple(rng.randrange(1, 2**61) for _ in range(24))
        rec = LinearRecurrence(coeffs=coeffs, initials=tuple(range(24)))
        mode = EvalMode(2**61 - 1)
        for n in (10**12 + 3, 10**18):
            assert eval_fast(rec, n, mode) == eval_fast(rec, n, mode, method="matrix")


PACKED_MODULI = [2, 3, 97, 1_000_000_007, 2**61 - 1, 2**64, 2**127 - 1]
PACKED_IDS = ["2", "3", "97", "1e9+7", "2^61-1", "2^64", "2^127-1"]


def packed_recurrence(rng, order, p, dense, trailing_zero=False):
    """Order-`order` recurrence whose coefficients reduce mod p to all nonzero
    residues (dense, the row fold from three taps up) or to at most two
    nonzero taps (the tap loop). Residues appear as integers of either sign;
    zero residues as multiples of p, the trailing one too when asked."""

    def nonzero():
        return rng.randrange(1, p) + p * rng.randint(-2, 1)

    if dense:
        coeffs = [nonzero() for _ in range(order)]
    else:
        coeffs = [p * rng.randint(-2, 2) for _ in range(order)]
        coeffs[rng.randrange(order)] = nonzero()
        coeffs[-1] = nonzero()
    if trailing_zero:
        coeffs[-1] = p * rng.choice((-1, 1, 2))
    initials = [rng.randrange(-2 * p, 2 * p) for _ in range(order)]
    return LinearRecurrence(
        coeffs=tuple(coeffs), initials=tuple(initials), valid_from=rng.randint(-5, 5)
    )


def assert_residue(value, p):
    assert type(value) is int and 0 <= value < p, value


class TestPackedPowering:
    """Modular eval_fast from order 3 squares by one packed big-int product
    per bit and folds by the tap loop (at most two nonzero taps) or the
    packed rows; orders 1 and 2 square by slices and fold mod p."""

    def check_window(self, rec, p):
        mode = EvalMode(p)
        lo = rec.valid_from
        for n in range(lo, lo + rec.order + 3):
            got = eval_fast(rec, n, mode)
            assert_residue(got, p)
            assert got == eval_iterative(rec, n, mode), (rec, n)

    def check_matrix(self, rec, p):
        mode = EvalMode(p)
        for n in (10**12 + 3, 10**18):
            got = eval_fast(rec, n, mode)
            assert_residue(got, p)
            assert got == eval_fast(rec, n, mode, method="matrix"), (rec, n)

    @pytest.mark.parametrize("dense", [False, True], ids=["taps", "rows"])
    @pytest.mark.parametrize("p", PACKED_MODULI, ids=PACKED_IDS)
    def test_window_and_matrix(self, p, dense):
        rng = random.Random(f"packed:{p}:{dense}")
        for order in [*range(1, 11), 17, 33, 64]:
            for trailing_zero in (False, True):
                rec = packed_recurrence(rng, order, p, dense, trailing_zero)
                self.check_window(rec, p)
                if order <= 10:
                    self.check_matrix(rec, p)

    @pytest.mark.parametrize("dense", [False, True], ids=["taps", "rows"])
    def test_every_order_to_64(self, dense):
        p = 1_000_000_007
        rng = random.Random(f"packed-orders:{dense}")
        for order in range(1, 65):
            self.check_window(packed_recurrence(rng, order, p, dense), p)

    @pytest.mark.parametrize("p, dense", [(97, True), (2**127 - 1, False)], ids=["97-rows", "2^127-1-taps"])
    def test_matrix_at_order_40(self, p, dense):
        rng = random.Random(f"packed-40:{p}:{dense}")
        self.check_matrix(packed_recurrence(rng, 40, p, dense), p)

    @pytest.mark.parametrize("p", PACKED_MODULI, ids=PACKED_IDS)
    def test_orders_one_and_two_square_by_slices(self, p, monkeypatch):
        def refuse(coeffs, modulus):
            raise AssertionError(f"order {len(coeffs)} packed")

        monkeypatch.setattr(fasteval, "_packed_step", refuse)
        mode = EvalMode(p)
        for n in (2, 3, 10**12 + 3, 10**18):
            got = eval_fast(FIB, n, mode)
            assert_residue(got, p)
            assert got == fib_mod(n, p)
        rng = random.Random(f"slices:{p}")
        for order in (1, 2):
            for dense in (False, True):
                for trailing_zero in (False, True):
                    rec = packed_recurrence(rng, order, p, dense, trailing_zero)
                    self.check_window(rec, p)
                    self.check_matrix(rec, p)
        with pytest.raises(AssertionError, match="order 3 packed"):
            eval_fast(tail_recurrence_of("schreier-zeckendorf", alpha=2, beta=1), 10**6, mode)

    def test_wide_family_near_three_k(self):
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=100, beta=100)
        mode = EvalMode(MOD)
        for n in (598, 599, 600, 601, 603):
            got = eval_fast(rec, n, mode)
            assert_residue(got, MOD)
            assert got == eval_iterative(rec, n, mode)

    @pytest.mark.parametrize(
        "coeffs, p",
        [((1, 97), 97), ((97,), 97), ((0, -194), 97), ((3, 5, 7, 97), 97), ((2, 4), 2)],
    )
    def test_coefficients_zero_mod_p(self, coeffs, p):
        initials = tuple(range(-3, len(coeffs) - 3))
        rec = LinearRecurrence(coeffs=coeffs, initials=initials, valid_from=2)
        mode = EvalMode(p)
        for n in [*range(2, 40), 10**18]:
            got = eval_fast(rec, n, mode)
            assert_residue(got, p)
            want = eval_iterative(rec, n, mode) if n < 40 else eval_fast(rec, n, mode, method="matrix")
            assert got == want, (coeffs, n)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_modular_recurrences(self, data):
        p = data.draw(st.integers(min_value=2, max_value=2**130), label="p")
        order = data.draw(st.integers(min_value=1, max_value=24), label="order")
        terms = st.integers(min_value=-2 * p, max_value=2 * p)
        coeffs = data.draw(
            st.lists(terms, min_size=order, max_size=order).filter(lambda c: c[-1] != 0),
            label="coeffs",
        )
        initials = data.draw(st.lists(terms, min_size=order, max_size=order), label="initials")
        valid_from = data.draw(st.integers(min_value=-5, max_value=5), label="valid_from")
        rec = LinearRecurrence(coeffs=tuple(coeffs), initials=tuple(initials), valid_from=valid_from)
        n = data.draw(st.integers(min_value=valid_from, max_value=200), label="n")
        mode = EvalMode(p)
        got = eval_fast(rec, n, mode)
        assert_residue(got, p)
        assert got == eval_iterative(rec, n, mode)


class TestTailRecurrenceOf:
    def test_fibonacci_family(self):
        rec = tail_recurrence_of("fibonacci")
        assert rec.coeffs == (1, 1) and rec.initials == (0, 1) and rec.valid_from == 0

    def test_counting_family_one_one(self):
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=1, beta=1)
        assert rec.order == 2 and rec.coeffs == (1, 1)

    def test_counting_family_two_three(self):
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=2, beta=3)
        assert rec.order == 5
        assert rec.coeffs == (1, 0, 0, 0, 1)
        assert rec.initials == (2, 3, 4, 5, 6)
        assert rec.valid_from == 2

    def test_genfib_family(self):
        rec = tail_recurrence_of("genfib", n=3)
        assert rec.coeffs == (1, 0, 1)
        assert rec.initials == (0, 1, 1)
        assert rec.valid_from == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            tail_recurrence_of("lucas")

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            tail_recurrence_of("schreier-zeckendorf", alpha=1)
        with pytest.raises(ValueError):
            tail_recurrence_of("genfib")

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_fast_eval_matches_generator_window(self, alpha, beta):
        n_max = 2000
        window = schreier_zeckendorf_seq(alpha, beta, n_max)
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=alpha, beta=beta)
        for n in range(rec.valid_from, n_max + 1):
            assert eval_fast(rec, n) == window.term(n)


class TestCountShortcut:
    def test_matches_window_across_branches(self):
        for alpha, beta in [(1, 1), (2, 1), (1, 2), (3, 4)]:
            window = schreier_zeckendorf_seq(alpha, beta, 50)
            for n in range(1, 51):
                assert schreier_zeckendorf_count(alpha, beta, n) == window.term(n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            schreier_zeckendorf_count(0, 1, 5)
        with pytest.raises(ValueError):
            schreier_zeckendorf_count(1, 1, 0)
