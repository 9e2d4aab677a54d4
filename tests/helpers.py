"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: raw bitmask
enumeration instead of the library's pruned search, a definitional
weighted sum for the twice-accumulated Fibonacci values, fast doubling for
modular Fibonacci, and exact Gaussian elimination for recurrence fitting.
"""

from __future__ import annotations

from fractions import Fraction


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
