import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import fasteval, schreier_zeckendorf_count, tail_recurrence_of
from seqforge.fasteval import EXACT, EvalMode, LinearRecurrence, eval_fast
from seqforge.formats import render_int
from seqforge.recurrences import _exact_context, condition_count
from seqforge.subsets import Condition

from helpers import catalog_recurrence, eval_iterative, fib_mod, schreier_zeckendorf_seq, sz_branch_count, term

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

    @pytest.mark.parametrize("valid_from", [0.5, 1.0, True, Fraction(1), None])
    def test_valid_from_takes_ints_only(self, valid_from):
        with pytest.raises(ValueError, match=f"^valid_from must be an int, got {type(valid_from).__name__}$"):
            LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=valid_from)

    @pytest.mark.parametrize("coeffs, initials, where", [
        ((1.5, 0.5), (1, 2), "coefficient 0 is a float"),
        ((1, 1), (0.5, 1), "initial 0 is a float"),
        ((1, Decimal(1)), (0, 1), "coefficient 1 is a Decimal"),
        ((1, 1), (0, Decimal(1)), "initial 1 is a Decimal"),
        # A bool is a numbers.Rational, yet no count: eval_fast would return
        # True at an initial's index.
        ((True, True), (0, 1), "coefficient 0 is a bool"),
        ((1, 1), (False, True), "initial 0 is a bool"),
        ((1, 1), (0, True), "initial 1 is a bool"),
    ])
    def test_rejects_inexact_values(self, coeffs, initials, where):
        with pytest.raises(ValueError, match=f"{where}, not an exact rational"):
            LinearRecurrence(coeffs=coeffs, initials=initials)

    @pytest.mark.parametrize("coeffs, initials, what", [
        ((Fraction(1), 1), (0, 1), "coefficients"),
        ((1, 1, 1), (Fraction(1, 2), 1, 1), "initials"),
    ])
    def test_modular_evaluation_refuses_fractions(self, coeffs, initials, what):
        rec = LinearRecurrence(coeffs=coeffs, initials=initials)
        with pytest.raises(ValueError, match=f"modular evaluation requires integer {what}"):
            eval_fast(rec, 100, EvalMode(7))


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

    @pytest.mark.parametrize("n", [2.0, True, Fraction(2), Decimal(2), "2"])
    def test_index_takes_ints_only(self, n):
        with pytest.raises(ValueError, match=f"^n must be an int, got {type(n).__name__}$"):
            eval_fast(FIB, n)

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


def schoolbook_square(a):
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def spy(monkeypatch, name):
    """Count the calls of fasteval.<name>, which still does its work."""
    calls = []
    real = getattr(fasteval, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fasteval, name, wrapped)
    return calls


class TestToomSquaring:
    """Exact int powers from order 3 square by evaluation and interpolation
    once their widest coefficient reaches the cutover; below it, at order
    2 and for Fractions they square by slices."""

    def test_square_equals_schoolbook(self):
        rng = random.Random("toom-square")
        for k in range(3, 17):
            bits = fasteval._toom_cutover(k)
            for _ in range(4):
                a = [rng.randint(-(2**bits), 2**bits) * rng.choice((0, 1, 1, 1)) for _ in range(k)]
                a[rng.randrange(k)] = rng.choice((-1, 1)) << (bits + rng.randrange(64))
                assert fasteval._toom_square(a) == schoolbook_square(a), k

    def test_square_of_small_and_zero_coefficients(self):
        for k in (3, 4, 9):
            for a in ([0] * k, [1] * k, [-1] + [0] * (k - 1), [0] * (k - 1) + [-5], list(range(-k, 0))):
                assert fasteval._toom_square(a) == schoolbook_square(a), a

    def test_exact_eval_across_the_cutover(self, monkeypatch):
        # Random signed recurrences at n of 2*10^4 to 6*10^4, so the last
        # steps square coefficients of thousands of bits or more by Toom.
        calls = spy(monkeypatch, "_toom_square")
        rng = random.Random("toom-eval")
        for order in range(3, 9):
            coeffs = [rng.randint(-3, 3) for _ in range(order)]
            coeffs[0], coeffs[-1] = rng.choice((-3, 3)), rng.choice((-2, -1, 1, 2))
            initials = [rng.randint(-9, 9) for _ in range(order)]
            rec = LinearRecurrence(
                coeffs=tuple(coeffs), initials=tuple(initials), valid_from=rng.randint(-3, 3)
            )
            n = rec.valid_from + rng.randint(20_000, 60_000)
            before = len(calls)
            got = eval_fast(rec, n)
            assert len(calls) > before, (rec, n)
            assert got == eval_iterative(rec, n), (rec, n)
            assert got == eval_fast(rec, n, method="matrix"), (rec, n)

    def test_family_at_the_cutover(self, monkeypatch):
        # From n = 40,000 on, order 7, a Toom step comes before the last bit
        # (the last reads the square as a quadratic form, _square_form).
        calls = spy(monkeypatch, "_toom_square")
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=3, beta=4)
        window = schreier_zeckendorf_seq(3, 4, 50_000)
        for n in range(40_000, 50_001, 503):
            before = len(calls)
            assert eval_fast(rec, n) == term(window, n)
            assert len(calls) > before, n

    def test_order_two_and_narrow_powers_square_by_slices(self, monkeypatch):
        calls = spy(monkeypatch, "_toom_square")
        assert eval_fast(FIB, 10**5) == eval_fast(FIB, 10**5, method="matrix")
        # Coefficients that stay small never reach the cutover.
        periodic = LinearRecurrence(coeffs=(0, 0, 0, 1), initials=(5, -6, 7, 8))
        assert eval_fast(periodic, 10**9 + 2) == 7
        assert calls == []

    def test_fraction_coefficients_stay_exact(self, monkeypatch):
        as_ints = LinearRecurrence(coeffs=(1, 0, -2, 3), initials=(1, 2, 3, 4))
        want = eval_fast(as_ints, 30_000)
        calls = spy(monkeypatch, "_toom_square")
        as_fractions = LinearRecurrence(
            coeffs=(Fraction(1), Fraction(0), Fraction(-2), Fraction(3)), initials=(1, 2, 3, 4)
        )
        assert eval_fast(as_fractions, 30_000) == want
        assert calls == []
        rational = LinearRecurrence(
            coeffs=(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(-2)),
            initials=(Fraction(1, 2), 1, -3, Fraction(7, 5)),
        )
        for n in (700, 2047, 2048):
            assert eval_fast(rational, n) == eval_iterative(rational, n)

    def test_import_builds_no_table(self):
        src = Path(fasteval.__file__).resolve().parents[1]
        script = (
            "import seqforge\n"
            "from seqforge import fasteval as f\n"
            "assert f._toom_table.cache_info().currsize == 0\n"
            "f.eval_fast(seqforge.tail_recurrence_of('schreier-zeckendorf', alpha=3, beta=4), 1000)\n"
            "assert f._toom_table.cache_info().currsize == 0\n"
            "f.eval_fast(seqforge.tail_recurrence_of('schreier-zeckendorf', alpha=3, beta=4), 10**5)\n"
            "assert f._toom_table.cache_info().currsize == 1\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n" + script],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


def hankel_value(r, coeffs, initials, s):
    """sum(r_i r_l a_(i+l+s)) over the first 2k terms of the recurrence."""
    k = len(coeffs)
    terms = list(initials)
    while len(terms) < 2 * k:
        terms.append(sum(c * terms[-i] for i, c in enumerate(coeffs, start=1)))
    return sum(ri * rl * terms[i + l + s] for i, ri in enumerate(r) for l, rl in enumerate(r))


def wide_recurrence(rng, order, valid_from):
    """Signed taps with |c_1| > 2 + sum(|c_i|, i >= 2) / 2, so by Rouche the
    characteristic polynomial has one root of modulus above 2 and x^h mod
    it has coefficients of more than about h bits."""
    rest = [rng.randint(-3, 3) for _ in range(order - 1)]
    if rest:
        rest[-1] = rng.choice((-2, -1, 1, 2))
    lead = rng.choice((-1, 1)) * (3 + sum(map(abs, rest)))
    initials = [rng.randint(-9, 9) for _ in range(order)]
    return LinearRecurrence((lead, *rest), tuple(initials), valid_from)


class TestSquareForm:
    """The last squaring of an exact int power is read as a_j = r^T H r
    (fasteval._square_form), for the coefficients r of x^(j // 2) and the
    Hankel matrix H of the first 2k terms: at orders 1 and 2 always, from
    order 3 when the last step would square by Toom."""

    @pytest.mark.parametrize("order", range(1, 9))
    def test_random_recurrences_on_both_sides_of_the_cutover(self, order, monkeypatch):
        calls = spy(monkeypatch, "_square_form")
        rng = random.Random(f"square-form:{order}")
        for valid_from in (-3, 2, 7):
            rec = wide_recurrence(rng, order, valid_from)
            # x^h has at most about 465 bits at h <= 100, more than 3000 at
            # h >= 3000; the cutover is max(2048, 128k) bits.
            for h, wide in ((rng.randint(8, 100), False), (rng.randint(3000, 4000), True)):
                for n in (valid_from + 2 * h, valid_from + 2 * h + 1):
                    before = len(calls)
                    got = eval_fast(rec, n)
                    assert got == eval_iterative(rec, n), (rec, n)
                    assert got == eval_fast(rec, n, method="matrix"), (rec, n)
                    assert len(calls) - before == (order < fasteval.MIN_TOOM_ORDER or wide), (rec, n)

    def test_form_equals_the_hankel_sum(self):
        # Any remainder r, with zeros, over singular and zero-pivot H alike.
        rng = random.Random("hankel-form")
        for _ in range(400):
            order = rng.randint(1, 6)
            coeffs = [rng.randint(-2, 2) for _ in range(order)]
            coeffs[-1] = rng.choice((-1, 1, 2))
            initials = [rng.randint(-2, 2) * rng.choice((0, 1)) for _ in range(order)]
            r = [rng.randint(-(2**70), 2**70) * rng.choice((0, 1, 1)) for _ in range(order)]
            for s in (False, True):
                want = hankel_value(r, coeffs, initials, s)
                assert fasteval._square_form(r, coeffs, initials, s) == want, (coeffs, initials, r, s)

    def test_zero_leading_pivot(self):
        # Fibonacci from (0, 1): H = [[0, 1], [1, 1]] at even j, so the
        # elimination pivots on the second diagonal entry first.
        pivots, rest = fasteval._hankel_form((1, 1), (0, 1), False, (0, 1))
        assert [d for *_, d in pivots] == [-1, 1] and rest == ()
        for n in (*range(2, 200), 10**4, 10**4 + 1, 3 * 10**4 + 1):
            assert eval_fast(FIB, n) == eval_iterative(FIB, n), n

    def test_block_with_no_nonzero_diagonal(self):
        # a = 0, 1, 0, 1, ...: H = [[0, 1], [1, 0]] at even j has no pivot,
        # and r^T H r = 2 r_0 r_1 comes from the product remainder.
        assert fasteval._hankel_form((0, 1), (0, 1), False, (0, 1)) == ((), ((0, ((1, 1),)), (1, ((0, 1),))))
        r = [3**50, -(5**40)]
        assert fasteval._square_form(r, [0, 1], [0, 1], False) == 2 * r[0] * r[1]
        rec = LinearRecurrence(coeffs=(0, 1), initials=(0, 1), valid_from=-4)
        for n in (*range(-2, 40), 10**9, 10**9 + 1):
            assert eval_fast(rec, n) == n % 2, n

    def test_monomial_power_costs_one_square(self, monkeypatch):
        # The even-gap shape: x^h mod x^2 - 2 is 2^(h // 2) x^(h % 2).
        calls = spy(monkeypatch, "_hankel_form")
        rec = LinearRecurrence(coeffs=(0, 2), initials=(1, 3))
        for n in (2, 3, 10, 11, 10**5, 10**5 + 1, 10**5 + 2, 10**5 + 3):
            assert eval_fast(rec, n) == (1, 3)[n % 2] << n // 2, n
        assert calls and {len(support) for *_, support in calls} == {1}
        built = [fasteval._hankel_form(*args) for args in list(calls)]
        assert {len(pivots) for pivots, _ in built} == {1}

    def test_carried_count_prints_the_int_digits(self, monkeypatch):
        # A Toom order-3 count of 165,500 bits, carried as integral Decimals.
        calls = spy(monkeypatch, "_square_form")
        n, cond = 300_000, Condition(alpha=1, beta=2)
        carried = condition_count(n, cond, _decimal=True)
        assert [type(args[0][0]) for args in calls] == [Decimal]
        assert isinstance(carried, Decimal) and carried.as_tuple().exponent == 0
        assert str(carried) == render_int(condition_count(n, cond))

    def test_other_powers_never_build_the_form(self, monkeypatch):
        modular = [FIB, LinearRecurrence((2,), (1,)), wide_recurrence(random.Random(1), 5, 3)]
        residues = [eval_fast(rec, n) % MOD for rec in modular for n in (50, 10**5, 10**5 + 1)]
        calls = [spy(monkeypatch, name) for name in ("_square_form", "_hankel_form")]
        fractions = LinearRecurrence(
            coeffs=(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 7)), initials=(1, 2, 3)
        )
        assert eval_fast(fractions, 3000) == eval_iterative(fractions, 3000)
        # Int taps past the cutover, but a Fraction initial: the Toom step
        # runs to the end.
        half = LinearRecurrence(coeffs=(3, 1, 1), initials=(Fraction(1, 2), 0, 1))
        assert eval_fast(half, 20_001) == eval_iterative(half, 20_001)
        # Narrow powers of order 3 and up square by slices to the end.
        periodic = LinearRecurrence(coeffs=(0, 0, 0, 1), initials=(5, -6, 7, 8))
        assert eval_fast(periodic, 10**9 + 2) == 7
        sz = tail_recurrence_of("schreier-zeckendorf", alpha=3, beta=4)
        assert eval_fast(sz, 1001) == sz_branch_count(3, 4, 1001)
        got = [eval_fast(rec, n, EvalMode(MOD)) for rec in modular for n in (50, 10**5, 10**5 + 1)]
        assert got == residues
        assert calls == [[], []]


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

    # The modular benchmark's shapes: Schreier-Zeckendorf orders a + b with
    # two taps, and dense 61-bit recurrences of orders 8 to 64.
    @pytest.mark.parametrize("p", [MOD, 2**61 - 1], ids=["1e9+7", "2^61-1"])
    def test_fold_choice_for_benchmark_shapes(self, p, monkeypatch):
        calls = spy(monkeypatch, "_fold_taps")
        mode = EvalMode(p)
        for a, b in ((1, 1), (2, 3), (5, 5), (10, 10), (20, 20), (30, 30), (40, 40), (60, 60), (80, 80), (100, 100)):
            rec = tail_recurrence_of("schreier-zeckendorf", alpha=a, beta=b)
            before = len(calls)
            eval_fast(rec, 10**12, mode)
            assert len(calls) > before, f"sz[{a},{b}] folded by rows"
        rng = random.Random("fold-choice")
        dense_calls = len(calls)
        for k in (8, 16, 32, 48, 64):
            coeffs = tuple(rng.randrange(1, 2**61) for _ in range(k))
            eval_fast(LinearRecurrence(coeffs=coeffs, initials=tuple(range(k))), 10**12, mode)
        assert len(calls) == dense_calls, "a dense order folded by the tap loop"

    def test_sparse_high_order_folds_both_ways_alike(self, monkeypatch):
        k = 500
        coeffs = [0] * k
        coeffs[0], coeffs[k // 2], coeffs[-1] = 1, 3, 1
        rec = LinearRecurrence(coeffs=tuple(coeffs), initials=tuple(range(k)), valid_from=1)
        mode = EvalMode(MOD)
        calls = spy(monkeypatch, "_fold_taps")
        by_loop = [eval_fast(rec, n, mode) for n in (k + 3, 10**18)]
        assert calls, "3 taps at order 500 folded by rows"
        monkeypatch.setattr(fasteval, "ORDER_PER_LOOP_TAP", k + 1)
        calls.clear()
        by_rows = [eval_fast(rec, n, mode) for n in (k + 3, 10**18)]
        assert calls == []
        assert by_loop == by_rows
        assert by_loop[0] == eval_iterative(rec, k + 3, mode)

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

    def test_equals_the_hand_derived_catalog(self):
        # The modular benchmark's Schreier-Zeckendorf shapes go up to (100, 100).
        shapes = [("fibonacci", {})]
        shapes += [("genfib", {"n": n}) for n in range(2, 61)]
        shapes += [("schreier-zeckendorf", {"alpha": a, "beta": b}) for a in range(1, 31) for b in range(1, 31)]
        shapes += [("schreier-zeckendorf", {"alpha": a, "beta": a}) for a in (40, 60, 80, 100)]
        for family, params in shapes:
            rec, want = tail_recurrence_of(family, **params), catalog_recurrence(family, **params)
            assert (rec.coeffs, rec.initials, rec.valid_from) == (want.coeffs, want.initials, want.valid_from), params

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_fast_eval_matches_generator_window(self, alpha, beta):
        n_max = 2000
        window = schreier_zeckendorf_seq(alpha, beta, n_max)
        rec = tail_recurrence_of("schreier-zeckendorf", alpha=alpha, beta=beta)
        for n in range(rec.valid_from, n_max + 1):
            assert eval_fast(rec, n) == term(window, n)


class TestCountShortcut:
    def test_matches_window_across_branches(self):
        for alpha, beta in [(1, 1), (2, 1), (1, 2), (3, 4)]:
            window = schreier_zeckendorf_seq(alpha, beta, 50)
            for n in range(1, 51):
                assert schreier_zeckendorf_count(alpha, beta, n) == term(window, n)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_equals_the_branch_rule(self, alpha, beta):
        for n in [*range(1, 3 * (alpha + beta) + 6), 10**4]:
            assert schreier_zeckendorf_count(alpha, beta, n) == sz_branch_count(alpha, beta, n), n

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            schreier_zeckendorf_count(0, 1, 5)
        with pytest.raises(ValueError):
            schreier_zeckendorf_count(1, 1, 0)


class TestDecimalCarrier:
    """In fasteval._DECIMAL mode an exact int power that will end wide moves
    to integral Decimals in recurrences._exact_context; the arithmetic is the
    same."""

    def test_toom_square_of_decimals(self):
        rng = random.Random("toom-decimal")
        with localcontext(_exact_context()):
            for k in range(3, 10):
                a = [rng.randint(-(2**5000), 2**5000) for _ in range(k)]
                got = fasteval._toom_square(list(map(Decimal, a)))
                assert got == list(map(Decimal, schoolbook_square(a))), k
                assert {v.as_tuple().exponent for v in got} == {0}, k

    @pytest.mark.parametrize("order", range(2, 9))
    def test_carried_power_equals_the_int_one(self, order, monkeypatch):
        # Signed taps; a lowered width so that powers of some 10^4 bits carry.
        monkeypatch.setattr(fasteval, "_CARRY_WIDTH", 8192)
        rng = random.Random(f"carry:{order}")
        coeffs = [rng.randint(-3, 3) for _ in range(order)]
        coeffs[0], coeffs[-1] = 3, rng.choice((-2, -1, 1, 2))
        initials = [rng.randint(-9, 9) for _ in range(order)]
        n = 20_000
        rec = LinearRecurrence(tuple(coeffs), tuple(initials))
        with localcontext(_exact_context()):
            got = eval_fast(rec, n, fasteval._DECIMAL)
        assert isinstance(got, Decimal) and got.as_tuple().exponent == 0
        assert got == eval_fast(rec, n)

    def test_orders_one_and_two_carry_past_str_max_bits(self):
        doubling = LinearRecurrence(coeffs=(2,), initials=(1,))
        with localcontext(_exact_context()):
            fib = eval_fast(FIB, 10**5, fasteval._DECIMAL)  # 69,000 bits
            power = eval_fast(doubling, 20_000, fasteval._DECIMAL)
        assert isinstance(fib, Decimal) and fib == eval_fast(FIB, 10**5)
        assert isinstance(power, Decimal) and power == 1 << 20_000

    def test_narrow_powers_and_fractions_stay_as_they_are(self):
        with localcontext(_exact_context()):
            assert type(eval_fast(FIB, 20_000, fasteval._DECIMAL)) is int  # 13,900 bits
            rational = LinearRecurrence(
                coeffs=(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 7)), initials=(1, 2, 3)
            )
            got = eval_fast(rational, 3000, fasteval._DECIMAL)
        assert isinstance(got, Fraction) and got == eval_fast(rational, 3000)
