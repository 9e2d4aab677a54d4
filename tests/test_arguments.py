"""One argument rule for every public entry point: an int argument takes an
int only, and an exact-rational one an int or a Fraction only. A bool, a
float, a str or a Decimal in place of any of them is a ValueError whose
text names the argument: never a TypeError, and never a result. The range
rules share the int rule's texts, "<name> must be >= <least>" and
"<name> must be < <below>"."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from seqforge.discovery import berlekamp_massey, discover_order, verify_recurrence
from seqforge.fasteval import EvalMode, LinearRecurrence, eval_fast
from seqforge.formats import render_int
from seqforge.identities import (
    check_bijection_round_trip,
    check_fib_h,
    check_gen_shift,
    check_gen_sum,
    check_odd_gap_h,
    decimal_string,
    drop_max_shift_down,
    shift_up_adjoin_max,
)
from seqforge.recurrences import (
    condition_count,
    even_gap_family_size,
    family_spec,
    fibonacci,
    min_size_odd_gap_count,
    min_size_odd_gap_seq,
    schreier_zeckendorf_count,
    tail_recurrence_of,
    window,
)
from seqforge.subsets import Condition, count_subsets, enumerate_subsets

BAD = [True, 2.5, "3", Decimal(3), [3]]

FIB = LinearRecurrence((1, 1), (0, 1))
INT = "^{name} must be an int, got {type}$"
RATIONAL = "^{name} \\d+ is a {type}, not an exact rational$"

# (entry point, good arguments by keyword, the argument replaced, the name
# the text gives it, the text). A tuple or list argument has its last item
# replaced. A view that passes an argument on under another name checks
# its type and range under its own name first: min_size_odd_gap_seq's
# n_max, which window reads as last, and min_size_odd_gap_count's k, which
# Condition reads as min_size.
ENTRY_POINTS = [
    *[(Condition, {"alpha": 2, "beta": 1, "min_size": 0, "forced_max": 5}, name, name, INT)
      for name in ("alpha", "beta", "min_size", "forced_max")],
    *[(f, {"n": 5, "cond": Condition(), "limit": 10}, name, name, INT)
      for f in (count_subsets, enumerate_subsets) for name in ("n", "limit")],
    (fibonacci, {"n": 5}, "n", "n", INT),
    (even_gap_family_size, {"n": 5}, "n", "n", INT),
    (min_size_odd_gap_count, {"n": 5, "k": 2}, "n", "n", INT),
    (min_size_odd_gap_count, {"n": 5, "k": 2}, "k", "k", INT),
    (min_size_odd_gap_seq, {"n_max": 5, "k": 2}, "n_max", "n_max", INT),
    (min_size_odd_gap_seq, {"n_max": 5, "k": 2}, "k", "k", INT),
    (window, {"family": "genfib", "last": 5, "n": 3}, "last", "last", INT),
    (window, {"family": "genfib", "last": 5, "n": 3}, "n", "n", INT),
    (window, {"family": "minsize-oddgap", "last": 5, "k": 2}, "k", "k", INT),
    *[(f, {"family": "schreier-zeckendorf", "alpha": 2, "beta": 1}, name, name, INT)
      for f in (family_spec, tail_recurrence_of) for name in ("alpha", "beta")],
    (tail_recurrence_of, {"family": "genfib", "n": 3}, "n", "n", INT),
    (condition_count, {"n": 5, "cond": Condition()}, "n", "n", INT),
    *[(schreier_zeckendorf_count, {"alpha": 2, "beta": 1, "n": 5}, name, name, INT)
      for name in ("alpha", "beta", "n")],
    (LinearRecurrence, {"coeffs": (1, 1), "initials": (0, 1)}, "coeffs", "coefficient", RATIONAL),
    (LinearRecurrence, {"coeffs": (1, 1), "initials": (0, 1)}, "initials", "initial", RATIONAL),
    (LinearRecurrence, {"coeffs": (1, 1), "initials": (0, 1), "valid_from": 0}, "valid_from", "valid_from", INT),
    (EvalMode, {"modulus": 7}, "modulus", "modulus", INT),
    (eval_fast, {"rec": FIB, "n": 10}, "n", "n", INT),
    (berlekamp_massey, {"prefix": [0, 1, 1, 2, 3, 5, 8], "start_index": 0}, "prefix", "prefix term", RATIONAL),
    (berlekamp_massey, {"prefix": [0, 1, 1, 2, 3, 5, 8], "start_index": 0}, "start_index", "start_index", INT),
    *[(verify_recurrence, {"rec": FIB, "prefix": [0, 1, 1, 2, 3], "start_index": 0}, name, text_name, text)
      for name, text_name, text in (("prefix", "prefix term", RATIONAL), ("start_index", "start_index", INT))],
    *[(discover_order, {"alpha": 1, "beta": 1, "probe_len": 8}, name, name, INT)
      for name in ("alpha", "beta", "probe_len")],
    (render_int, {"value": 5}, "value", "value", INT),
    (decimal_string, {"value": Fraction(2, 3)}, "value", "value", "^value must be an int or a Fraction, got {type}$"),
    (decimal_string, {"value": Fraction(2, 3), "sig_digits": 4}, "sig_digits", "sig_digits", INT),
    (check_fib_h, {"n_max": 5}, "n_max", "n_max", INT),
    *[(check_gen_sum, {"n": 3, "k_max": 5}, name, name, INT) for name in ("n", "k_max")],
    *[(check_gen_shift, {"n": 3, "m_max": 5}, name, name, INT) for name in ("n", "m_max")],
    *[(check_odd_gap_h, {"n_max_oracle": 5, "n_max_gf": 8, "limit": 10}, name, name, INT)
      for name in ("n_max_oracle", "n_max_gf", "limit")],
    *[(check_bijection_round_trip, {"alpha": 2, "beta": 3, "n_max": 8, "limit": 10}, name, name, INT)
      for name in ("alpha", "beta", "n_max", "limit")],
    *[(half, {"s": s, "n": 7, "alpha": 2, "beta": 3}, name, text_name, INT)
      for half, s in ((drop_max_shift_down, (4, 7)), (shift_up_adjoin_max, (2,)))
      for name, text_name in (("s", "subset element"), ("n", "n"), ("alpha", "alpha"), ("beta", "beta"))],
]
IDS = [f"{f.__name__}-{name}" for f, _, name, _, _ in ENTRY_POINTS]


def call(f, kwargs):
    # Read a lazy result, so that a check put off until then is not missed.
    result = f(**kwargs)
    return list(result) if f is enumerate_subsets else result


@pytest.mark.parametrize("f, good, name, text_name, text", ENTRY_POINTS, ids=IDS)
def test_good_arguments_give_a_result(f, good, name, text_name, text):
    call(f, good)


@pytest.mark.parametrize("bad", BAD, ids=[type(b).__name__ for b in BAD])
@pytest.mark.parametrize("f, good, name, text_name, text", ENTRY_POINTS, ids=IDS)
def test_any_other_type_is_refused_by_name(f, good, name, text_name, text, bad):
    value = good[name]
    replaced = type(value)([*value[:-1], bad]) if isinstance(value, (tuple, list)) else bad
    with pytest.raises(ValueError, match=text.format(name=text_name, type=type(bad).__name__)):
        call(f, {**good, name: replaced})


# Range rules whose texts no other test reads.
@pytest.mark.parametrize("f, args, message", [
    (window, ("fib", sys.maxsize), f"last must be < {sys.maxsize}"),
    (min_size_odd_gap_count, (0, 2), "n must be >= 1"),
    (min_size_odd_gap_count, (5, -1), "k must be >= 0"),
    (min_size_odd_gap_seq, (0, 2), "n_max must be >= 1"),
    (min_size_odd_gap_seq, (sys.maxsize, 2), f"n_max must be < {sys.maxsize}"),
    (schreier_zeckendorf_count, (0, 1, 5), "alpha must be >= 1"),
    (schreier_zeckendorf_count, (1, 0, 5), "beta must be >= 1"),
    (discover_order, (1, 0, 8), "beta must be >= 1"),
    (discover_order, (1, 1, 0), "probe_len must be >= 1"),
    (EvalMode, (1,), "modulus must be >= 2"),
    (Condition, (None, None, "any", 0, 0), "forced_max must be >= 1"),
    (count_subsets, (0, Condition(), -1), "limit must be >= 0"),
], ids=["window-last", "minsize-count-n", "minsize-count-k", "minsize-seq-low", "minsize-seq-high",
        "sz-alpha", "sz-beta", "discover-beta", "discover-probe", "modulus", "forced-max", "limit"])
def test_range_texts(f, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        f(*args)
