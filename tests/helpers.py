"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: raw bitmask
enumeration instead of the library's pruned search, hand-written term loops
and a size-bucket DP instead of the generating-function series, a
definitional weighted sum for the twice-accumulated Fibonacci values, a
series that takes each factor 1 + x as a running sum between sign flips,
straight iteration instead of fast recurrence evaluation, fast doubling for
modular Fibonacci, exact Gaussian elimination for recurrence fitting, and
each output format's text built whole (the JSON by the json encoder)
instead of the streaming writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, cycle, repeat, tee
from operator import add, mul
from typing import NamedTuple

from seqforge.fasteval import EXACT, _prepared
from seqforge.identities import decimal_string
from seqforge.recurrences import SequenceWindow, even_gap_family_size


def iter_subsets_raw(n):
    """All subsets of {1..n} as sorted tuples, by increasing bitmask."""
    for mask in range(1 << n):
        elems = []
        m = mask
        i = 1
        while m:
            if m & 1:
                elems.append(i)
            m >>= 1
            i += 1
        yield tuple(elems)


def gaps_of(elems):
    return tuple(b - a for a, b in zip(elems, elems[1:]))


def brute_count(n, predicate):
    return sum(1 for t in iter_subsets_raw(n) if predicate(t))


def fib_list(n_max):
    """F_0..F_{n_max} by the defining recurrence."""
    terms = [0, 1]
    while len(terms) <= n_max:
        terms.append(terms[-1] + terms[-2])
    return terms[: n_max + 1]


def h_list(n_max):
    """The Fibonacci sequence accumulated twice, indices 0..n_max, with two
    running sums in one pass."""
    terms = []
    a, b = 0, 1
    once = twice = 0
    for _ in range(n_max + 1):
        once += a
        twice += once
        terms.append(twice)
        a, b = b, a + b
    return terms


def sz_list(alpha, beta, n_max):
    """Schreier-Zeckendorf counts for n = 1..n_max by the three-branch rule:
    1 while n <= alpha-1; n-alpha+2 while alpha <= n <= 2*alpha+beta-1;
    then a(n) = a(n-1) + a(n-(alpha+beta))."""
    lag = alpha + beta
    terms = []
    for n in range(1, n_max + 1):
        if n <= alpha - 1:
            terms.append(1)
        elif n <= 2 * alpha + beta - 1:
            terms.append(n - alpha + 2)
        else:
            terms.append(terms[-1] + terms[n - lag - 1])
    return terms


def genfib_list(n, m_max):
    """Order-n Fibonacci analogue, indices 0..m_max: 0, then n ones, then
    the previous term plus the term n places back."""
    terms = [0] + [1] * n
    while len(terms) <= m_max:
        terms.append(terms[-1] + terms[-n])
    return terms[: m_max + 1]


def min_size_odd_gap_list(n_max, k):
    """Subsets of {1..n} with >= k elements and all gaps odd, n = 1..n_max.

    A DP over size buckets 1..cap, cap = max(k, 1), the top bucket meaning
    "size >= cap". A gap is odd exactly when its two ends differ in parity,
    so a new maximum j extends the subsets whose maximum has the other
    parity, kept as running bucket totals per parity.
    """
    cap = max(k, 1)
    by_parity = [[0] * (cap + 1), [0] * (cap + 1)]
    reached = 0
    terms = []
    for j in range(1, n_max + 1):
        opp = by_parity[1 - (j & 1)]
        fresh = [0] * (cap + 1)
        if cap == 1:
            fresh[1] = 1 + opp[1]
        else:
            fresh[1] = 1
            for t in range(2, cap):
                fresh[t] = opp[t - 1]
            fresh[cap] = opp[cap - 1] + opp[cap]
        own = by_parity[j & 1]
        for t in range(1, cap + 1):
            own[t] += fresh[t]
        reached += fresh[cap]
        terms.append(reached + (1 if k == 0 else 0))  # the empty set at k = 0
    return terms


def family_oracle(family, params, to):
    """(offset, terms) of a `seq` family window up to index to, by the hand
    loops above; params maps the family's flags (alpha, beta, n, k) to ints."""
    if family == "fib":
        return 0, fib_list(to)
    if family == "H":
        return 0, h_list(to)
    if family == "schreier-zeckendorf":
        return 1, sz_list(params["alpha"], params["beta"], to)
    if family == "minsize-oddgap":
        return 1, min_size_odd_gap_list(to, params["k"])
    terms = genfib_list(params["n"], to)
    for _ in range({"genfib": 0, "genk": 1, "genh": 2}[family]):
        terms = list(accumulate(terms))
    return 0, terms


def window_text(window, fmt):
    """The text of window in format fmt, built whole: every term by str(),
    the JSON by json.dumps."""
    rows = [(i, str(v)) for i, v in window.items()]
    if fmt == "bfile":
        return "".join(f"{i} {d}\n" for i, d in rows)
    if fmt == "csv":
        return "index,value\n" + "".join(f"{i},{d}\n" for i, d in rows)
    if fmt == "json":
        payload = {"schema": 1, "family": window.name, "offset": window.offset, "terms": [d for _, d in rows]}
        return json.dumps(payload, indent=2) + "\n"
    width = max(len(str(window.offset)), len(str(window.last_index)))
    lines = [f"{window.name}  (indices {window.offset}..{window.last_index})"]
    return "\n".join(lines + [f"{i:>{width}}  {d}" for i, d in rows]) + "\n"


def partial_sum(window, name=None):
    """Running sums of a window, starting at its first term; offset is kept."""
    label = name if name is not None else f"psum({window.name})"
    return SequenceWindow(label, window.offset, tuple(accumulate(window.terms)))


def eval_iterative(rec, n, mode=EXACT):
    """Term of a LinearRecurrence at absolute index n by straight iteration."""
    j, coeffs, window = _prepared(rec, n, mode)
    k = rec.order
    if j < k:
        return window[j]
    for _ in range(k, j + 1):
        nxt = 0
        for i, c in enumerate(coeffs):
            nxt += c * window[k - 1 - i]
        window.pop(0)
        window.append(mode.reduce(nxt))
    return window[-1]


class RatioSample(NamedTuple):
    n: int
    value: Fraction
    decimal: str


@dataclass(frozen=True)
class ConvergenceReport:
    """Exact odd-gap share r_n = |odd-gap families| / |either-parity families|
    per n, with rendered decimals and the final gap 1 - r_{n_max}."""

    samples: tuple
    final_gap_exact: Fraction
    final_gap: str


def ratio_report(n_max):
    """Exact odd-gap share r_n for n = 1..n_max, from F_{n+3} - 1 odd-gap
    families and the even-gap family size; r_n tends to 1."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    fib = fib_list(n_max + 3)
    samples = []
    for n in range(1, n_max + 1):
        odd_total = fib[n + 3] - 1
        union = odd_total + even_gap_family_size(n) - (n + 1)
        r = Fraction(odd_total, union)
        samples.append(RatioSample(n, r, decimal_string(r)))
    gap = 1 - samples[-1].value
    return ConvergenceReport(tuple(samples), gap, decimal_string(gap))


def h_definitional(n):
    """Weighted-sum definition: sum over i of (n + 1 - i) * F_i."""
    fib = fib_list(n)
    return sum((n + 1 - i) * fib[i] for i in range(n + 1))


def fib_mod(n, modulus):
    """F_n mod modulus by fast doubling."""

    def doubled(k):
        if k == 0:
            return 0, 1
        a, b = doubled(k >> 1)
        c = a * (2 * b - a) % modulus
        d = (a * a + b * b) % modulus
        if k & 1:
            return d, (c + d) % modulus
        return c, d

    return doubled(n)[0]


def fits_linear_recurrence(seq, order):
    """True iff some coefficient vector of the given order satisfies
    seq[i] = sum(c_j * seq[i-j]) for every index i >= order.

    Decided by exact Gaussian elimination over the rationals on the
    (possibly overdetermined) linear system; trailing zero coefficients
    are allowed, so this is the weakest notion of "fits".
    """
    rows = []
    for i in range(order, len(seq)):
        rows.append(
            [Fraction(seq[i - j]) for j in range(1, order + 1)] + [Fraction(seq[i])]
        )
    if not rows:
        return True
    width = order
    pivot_row = 0
    for col in range(width):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [v / pv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return not any(
        all(v == 0 for v in row[:width]) and row[width] != 0 for row in rows
    )


def bm_connection_fraction(prefix):
    """Berlekamp-Massey over fractions.Fraction, as Massey (1969) states it:
    the reference for discovery._bm_connection. Returns (L, C, tail): C is
    the connection polynomial's first L + 1 coefficients (C[0] == 1) and
    tail the rest of the working list, which is all zeros."""
    seq = [Fraction(v) for v in prefix]
    C = [Fraction(1)]
    B = [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for i, s in enumerate(seq):
        d = s
        for j in range(1, L + 1):
            d += C[j] * seq[i - j]
        if d == 0:
            m += 1
            continue
        coef = d / b
        if len(C) < len(B) + m:
            C = C + [Fraction(0)] * (len(B) + m - len(C))
        if 2 * L <= i:
            T = list(C)
            for j, bj in enumerate(B):
                C[j + m] -= coef * bj
            L, B, b, m = i + 1 - L, T, d, 1
        else:
            for j, bj in enumerate(B):
                C[j + m] -= coef * bj
            m += 1
    C = C + [Fraction(0)] * (L + 1 - len(C))
    return L, C[: L + 1], C[L + 1 :]


def truncated_product(a, b, count):
    """The first count coefficients of a(x) * b(x); coefficient lists are
    lowest degree first. A sequence s has generating function P/Q exactly
    when s * Q agrees with P term by term."""
    return [
        sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
        for k in range(count)
    ]


def sign_trick_series(lead, p, taps, ones=0, pluses=0):
    """The coefficients of x^lead P / ((1-x)^ones (1+x)^pluses R), R = 1 -
    sum of c x^j over taps {j: c}, without end, as the library's series
    read them before it took (1-x)(1+x) as 1 - x^2: a generator re-entered
    per term feeds the tee'd copies of itself, and each 1 + x is a running
    sum with the signs alternated before and after."""

    def terms():
        total = None
        for (j, c), copy in zip(taps.items(), copies):
            lagged = chain(repeat(0, j), copy)  # a_{i-j}
            if c != 1:
                lagged = map(mul, repeat(c), lagged)
            total = lagged if total is None else map(add, total, lagged)
        if total is None:  # R = 1
            total = repeat(0)
        yield from chain(map(add, p, total), total)

    stream, *copies = tee(terms(), len(taps) + 1)
    if pluses:
        stream = map(mul, stream, cycle((1, -1)))
        for _ in range(pluses):
            stream = accumulate(stream)
        stream = map(mul, stream, cycle((1, -1)))
    for _ in range(ones):
        stream = accumulate(stream)
    return chain(repeat(0, lead), stream)


def poly_gcd_degree(p, q):
    """Degree of gcd(p, q) over the rationals, by Euclid's algorithm."""

    def trimmed(poly):
        poly = [Fraction(c) for c in poly]
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    a, b = trimmed(p), trimmed(q)
    while b:
        while len(a) >= len(b):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = trimmed(a)
        a, b = b, a
    return len(a) - 1
