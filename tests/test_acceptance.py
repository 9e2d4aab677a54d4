"""Acceptance battery: each test prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
numeric claim is exact integer or exact rational arithmetic, and the stated
wall-clock budgets are asserted alongside the values.
"""

import random
import time
from fractions import Fraction

from seqforge.cli import main
from seqforge.discovery import berlekamp_massey, discover_order
from seqforge.fasteval import EvalMode, LinearRecurrence, eval_fast
from seqforge.formats import parse_bfile
from seqforge.identities import (
    check_bijection_round_trip,
    check_fib_h,
    check_gen_shift,
    check_gen_sum,
)
from seqforge.recurrences import (
    condition_count,
    even_gap_family_size,
    min_size_odd_gap_seq,
    window,
)
from seqforge.subsets import GAP_ALL_ODD, Condition, count_subsets

from helpers import eval_iterative, fib_list, fib_mod, iter_subsets_raw, ratio_report, schreier_zeckendorf_seq, term


def check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_c01_h_prefix_golden():
    window("H", 6)  # warm any lazy imports before timing
    best = min(
        _timed(lambda: window("H", 6))[1] for _ in range(3)
    )
    h = window("H", 6)
    ok = h.terms == (0, 1, 3, 7, 14, 26, 46) and best < 0.001
    check(1, "twice-accumulated Fibonacci prefix 0..46", ok, f"best run {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_c02_order_three_table():
    ok = (
        window("genfib", 12, n=3).terms == (0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41)
        and window("genk", 12, n=3).terms == (0, 1, 2, 3, 5, 8, 12, 18, 27, 40, 59, 87, 128)
        and window("genh", 12, n=3).terms == (0, 1, 3, 6, 11, 19, 31, 49, 76, 116, 175, 262, 390)
    )
    check(2, "order-3 family table, all 3 x 13 entries", ok)


def test_c03_min_three_prefix():
    got = min_size_odd_gap_seq(12, 3).terms
    ok = got == (0, 0, 1, 3, 8, 17, 34, 63, 113, 196, 334, 560)
    check(3, "min-size-3 odd-gap counts for n = 1..12", ok)


def test_c04_counting_grid_vs_oracle():
    start = time.perf_counter()
    mismatches = []
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            window = schreier_zeckendorf_seq(alpha, beta, 18)
            cond = Condition(alpha=alpha, beta=beta)
            for n in range(1, 19):
                if count_subsets(n, cond) != term(window, n):
                    mismatches.append((alpha, beta, n))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30
    check(4, "piecewise rule vs oracle, 9 families x n <= 18", ok, f"{elapsed:.1f} s")


def test_c05_parity_forms_vs_oracle():
    start = time.perf_counter()
    fib = fib_list(23)
    acc = window("H", 19)
    bad = []
    for n in range(1, 21):
        odd_total = odd_contain = even_total = even_contain = 0
        odd_min2 = union = singletons_or_empty = 0
        for elems in iter_subsets_raw(n):
            prev = None
            all_odd = all_even = True
            for e in elems:
                if prev is not None:
                    if (e - prev) & 1:
                        all_even = False
                    else:
                        all_odd = False
                prev = e
            if all_odd:
                odd_total += 1
                if elems and elems[-1] == n:
                    odd_contain += 1
                if len(elems) >= 2:
                    odd_min2 += 1
            if all_even:
                even_total += 1
                if elems and elems[-1] == n:
                    even_contain += 1
            if all_odd or all_even:
                union += 1
            if len(elems) <= 1:
                singletons_or_empty += 1
        expected = [
            (odd_contain, fib[n + 1]),
            (odd_total, fib[n + 3] - 1),
            (even_contain, 1 << ((n - 1) // 2)),
            (even_total, 3 * (1 << ((n - 1) // 2)) - 1 if n % 2 else 2 * (1 << (n // 2)) - 1),
            (odd_min2, term(acc, n - 1)),
            (singletons_or_empty, n + 1),
            (union, odd_total + even_total - (n + 1)),
        ]
        bad.extend((n, got, want) for got, want in expected if got != want)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    check(5, "parity closed forms vs oracle, n <= 20", ok, f"{elapsed:.1f} s")


def test_c06_identity_sweeps():
    start = time.perf_counter()
    reports = [check_fib_h(200)]
    for n in range(2, 9):
        reports.append(check_gen_sum(n, 300))
        reports.append(check_gen_shift(n, 300))
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 5
    check(6, "identity sweeps to 200/300, zero counterexamples", ok, f"{elapsed:.2f} s")


def test_c07_bijection_round_trip():
    start = time.perf_counter()
    reports = [
        check_bijection_round_trip(alpha, beta, 15)
        for alpha in (1, 2, 3)
        for beta in (1, 2, 3)
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 30
    check(7, "bijection round trips and |B| = |C|, n <= 15", ok, f"{elapsed:.1f} s")


def test_c08_discovery_grid():
    start = time.perf_counter()
    ok = True
    for alpha in (1, 2, 3, 4):
        for beta in (1, 2, 3, 4):
            order = alpha + beta
            report = discover_order(alpha, beta, 4 * order + 4)
            want = tuple(1 if i in (1, order) else 0 for i in range(1, order + 1))
            ok = ok and report.found is not None and report.found.order == order
            ok = ok and report.found.coeffs == want and report.minimal
    fib_report = berlekamp_massey([0, 1, 1, 2, 3, 5, 8, 13, 21, 34])
    ok = ok and fib_report.found is not None and fib_report.found.coeffs == (1, 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5
    check(8, "discovery recovers order alpha+beta and lag vector", ok, f"{elapsed:.2f} s")


def test_c09_fast_evaluation():
    fib = LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=0)
    ok = eval_fast(fib, 30) == 832040

    rng = random.Random(424242)
    for _ in range(200):
        order = rng.randint(1, 6)
        coeffs = [rng.randint(-3, 3) for _ in range(order)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-3, 3)
        rec = LinearRecurrence(
            coeffs=tuple(coeffs),
            initials=tuple(rng.randint(-9, 9) for _ in range(order)),
            valid_from=rng.randint(-2, 2),
        )
        n = rec.valid_from + rng.randint(0, 5000)
        ok = ok and eval_fast(rec, n) == eval_iterative(rec, n)

    mode = EvalMode(1_000_000_007)
    billion, elapsed = _timed(lambda: eval_fast(fib, 10**9, mode))
    ok = ok and billion == fib_mod(10**9, 1_000_000_007) and elapsed < 1
    ok = ok and eval_fast(fib, 10**9, mode, method="matrix") == billion
    check(9, "fast evaluator vs iterative/doubling oracles", ok, f"1e9 eval {elapsed * 1000:.1f} ms")


def test_c10_convergence_report():
    report = ratio_report(60)
    ok = report.final_gap_exact < Fraction(1, 1000)
    ok = ok and report.samples[9].value == Fraction(232, 284)
    odd = Condition(gap_parity=GAP_ALL_ODD)
    inner = [Fraction(even_gap_family_size(n), condition_count(n, odd)) for n in range(5, 61)]
    ok = ok and all(b < a for a, b in zip(inner, inner[1:]))
    ok = ok and inner[-1] < Fraction(1, 1000)
    check(10, "odd-gap share converges, even-gap share decays", ok,
          f"1 - r_60 = {report.final_gap}")


def test_c11_cli_bfile_round_trip(capsys):
    first = main(["seq", "--family", "H", "--to", "100", "--format", "bfile"])
    out_first = capsys.readouterr().out
    second = main(["seq", "--family", "H", "--to", "100", "--format", "bfile"])
    out_second = capsys.readouterr().out
    ok = first == second == 0 and out_first == out_second
    ok = ok and parse_bfile(out_first, name="H") == window("H", 100)
    with capsys.disabled():
        check(11, "CLI determinism and b-file round trip", ok)
