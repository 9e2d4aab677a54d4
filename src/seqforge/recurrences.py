"""Named integer sequences: piecewise recurrences, partial sums, closed
forms for the gap-parity counts, a gap-parity counting DP, and the rational
generating function behind every subset count.

Every term is an exact Python int. Window names double as the CLI family
identifiers (``fib``, ``H``, ``sz[a,b]``, ``genfib[n]``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, islice
from math import comb
from typing import Iterator

from .fasteval import LinearRecurrence, eval_fast
from .subsets import GAP_ALL_EVEN, GAP_ALL_ODD, GAP_ANY, BigCount, Condition


@dataclass(frozen=True)
class SequenceWindow:
    """A contiguous run of exact terms; terms[i] is the value at offset + i."""

    name: str
    offset: int
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.terms) - 1

    def term(self, index: int) -> BigCount:
        """Value at an absolute index within the window."""
        if not self.offset <= index <= self.last_index:
            raise IndexError(
                f"index {index} outside window [{self.offset}, {self.last_index}]"
            )
        return self.terms[index - self.offset]

    def items(self) -> Iterator[tuple[int, BigCount]]:
        return ((self.offset + i, v) for i, v in enumerate(self.terms))

    def clip(self, start: int) -> SequenceWindow:
        """Drop terms below the given absolute index."""
        if start <= self.offset:
            return self
        if start > self.last_index + 1:
            raise IndexError(f"clip start {start} beyond window end {self.last_index}")
        return SequenceWindow(self.name, start, self.terms[start - self.offset:])


def fibonacci(n: int) -> BigCount:
    """Exact n-th Fibonacci number (F_0 = 0, F_1 = 1), by fast doubling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 0, 1  # (F_k, F_{k+1}), k built up from the high bit of n
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # (F_2k, F_2k+1)
        if bit == "1":
            a, b = b, a + b
    return a


def fibonacci_seq(n_max: int) -> SequenceWindow:
    """Window of F_0 .. F_{n_max}, built by straight iteration."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = [0, 1]
    while len(terms) <= n_max:
        terms.append(terms[-1] + terms[-2])
    return SequenceWindow("fib", 0, tuple(terms[: n_max + 1]))


def partial_sum(window: SequenceWindow, name: str | None = None) -> SequenceWindow:
    """Running sums of a window, starting at its first term; offset is kept."""
    label = name if name is not None else f"psum({window.name})"
    return SequenceWindow(label, window.offset, tuple(accumulate(window.terms)))


def h_seq(n_max: int) -> SequenceWindow:
    """The Fibonacci sequence accumulated twice: 0, 1, 3, 7, 14, 26, 46, ...

    Computed with two running sums in one O(n_max) pass; the equivalent
    weighted-sum definition is kept in the tests as an oracle.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = []
    a, b = 0, 1
    once = twice = 0
    for _ in range(n_max + 1):
        once += a
        twice += once
        terms.append(twice)
        a, b = b, a + b
    return SequenceWindow("H", 0, tuple(terms))


def schreier_zeckendorf_seq(alpha: int, beta: int, n_max: int) -> SequenceWindow:
    """Counts of subsets of {1..n} that are alpha-Schreier and beta-Zeckendorf,
    for n = 1..n_max.

    Three-branch rule: 1 while n <= alpha-1; n-alpha+2 while
    alpha <= n <= 2*alpha+beta-1; then the order-(alpha+beta) recurrence
    a(n) = a(n-1) + a(n-(alpha+beta)).
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lag = alpha + beta
    terms: list[int] = []
    for n in range(1, n_max + 1):
        if n <= alpha - 1:
            terms.append(1)
        elif n <= 2 * alpha + beta - 1:
            terms.append(n - alpha + 2)
        else:
            terms.append(terms[-1] + terms[n - lag - 1])
    return SequenceWindow(f"sz[{alpha},{beta}]", 1, tuple(terms))


def gen_fib_seq(n: int, m_max: int) -> SequenceWindow:
    """Order-n Fibonacci analogue: 0, then n ones, then each term is the
    previous term plus the term n places back."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    terms = [0] + [1] * n
    while len(terms) <= m_max:
        terms.append(terms[-1] + terms[-n])
    return SequenceWindow(f"genfib[{n}]", 0, tuple(terms[: m_max + 1]))


def k_seq(n: int, m_max: int) -> SequenceWindow:
    """gen_fib_seq accumulated once."""
    return partial_sum(gen_fib_seq(n, m_max), name=f"genk[{n}]")


def gen_h_seq(n: int, m_max: int) -> SequenceWindow:
    """gen_fib_seq accumulated twice."""
    return partial_sum(k_seq(n, m_max), name=f"genh[{n}]")


def even_gap_family_size(n: int) -> BigCount:
    """Subsets of {1..n} whose gaps are all even: 3*2^((n-1)/2) - 1 for odd
    n, 2*2^(n/2) - 1 for even n."""
    if n % 2 == 1:
        return 3 * (1 << ((n - 1) // 2)) - 1
    return 2 * (1 << (n // 2)) - 1


def _move_down(c: BigCount, top: int, j: int, new_top: int) -> BigCount:
    # C(new_top, j) from c = C(top, j), new_top <= top: one small multiply
    # and divide per step, or a fresh binomial when that is the shorter way.
    if top - new_top > j:
        return comb(new_top, j)
    for t in range(top, new_top, -1):
        c = c * (t - j) // t  # C(t-1, j) = C(t, j) * (t-j) / t
    return c


def _size_classes(n: int, first: int, alpha: int, gap: int, parity: bool) -> Iterator[BigCount]:
    # c_k, the number of k-subsets of {1..n} whose minimum is at least
    # max(1, alpha*k) (alpha = 0 when unset) and whose gaps are at least
    # gap, or gap + 2h (h >= 0) under a parity, for k = first, first + 1,
    # ... while any exist. The minimum's excess over its bound, the k - 1
    # gap excesses and the slack n - max sum to rest. Without a parity any
    # split counts: c_k = C(rest+k, k). Under one the gap excesses sum to an
    # even 2H; C(H+k-2, k-2) gap lists share each H, each leaving
    # rest - 2H + 1 places for the minimum, and the sum over H <= rest//2
    # telescopes (hockey stick) to c_k = (rest+1) C(a, k-1) - 2(k-1) C(a, k),
    # a = rest//2 + k - 1. From one k to the next rest falls by
    # d = alpha + gap, so each binomial follows from the last by about d
    # small multiplies and divides (_move_down) rather than afresh.
    if first == 0:
        yield 1
    k = max(first, 1)
    d = alpha + gap
    rest = n - max(1, alpha * k) - gap * (k - 1)
    if rest < 0:
        return
    if not parity:
        top = rest + k
        c = comb(top, k)
        while True:
            yield c
            rest -= d
            if rest < 0:
                return
            c = _move_down(c * (top - k) // (k + 1), top, k + 1, top - d + 1)
            k, top = k + 1, top - d + 1
    a = rest // 2 + k - 1
    below = comb(a, k - 1)  # C(a, k-1)
    while True:
        at = below * (a - k + 1) // k  # C(a, k)
        yield (rest + 1) * below - 2 * (k - 1) * at
        rest -= d
        if rest < 0:
            return
        next_a = rest // 2 + k
        # The next class needs C(next_a, k); a grows by at most one (d = 1),
        # and then Pascal's rule gives it.
        below = at + below if next_a > a else _move_down(at, a, k, next_a)
        k, a = k + 1, next_a


def gap_parity_count(n: int, parity: str, min_size: int = 0) -> BigCount:
    """Number of subsets of {1..n} with at least min_size elements whose
    consecutive gaps all have one parity (GAP_ALL_ODD or GAP_ALL_EVEN).

    The whole family has F_{n+3} - 1 members for odd gaps (fast doubling)
    and even_gap_family_size(n) for even gaps; condition_count takes those
    totals and handles the size bound. Fixing the maximum at n is this
    count at n minus it at n - 1.
    """
    if parity not in (GAP_ALL_ODD, GAP_ALL_EVEN):
        raise ValueError(f"parity must be {GAP_ALL_ODD!r} or {GAP_ALL_EVEN!r}")
    return condition_count(n, Condition(gap_parity=parity, min_size=min_size))


def odd_gap_counts(n: int) -> tuple[BigCount, BigCount]:
    """(count containing n, total count) of subsets of {1..n} whose gaps are
    all odd: F_{n+1} and F_{n+3} - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = gap_parity_count(n, GAP_ALL_ODD)
    return total - gap_parity_count(n - 1, GAP_ALL_ODD), total


def even_gap_counts(n: int) -> tuple[BigCount, BigCount]:
    """(count containing n, total count) of subsets of {1..n} whose gaps are
    all even: 2^floor((n-1)/2), and even_gap_family_size(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = gap_parity_count(n, GAP_ALL_EVEN)
    return total - gap_parity_count(n - 1, GAP_ALL_EVEN), total


def min_size_odd_gap_seq(n_max: int, k: int) -> SequenceWindow:
    """Counts of subsets of {1..n} with >= k elements and all gaps odd, for
    n = 1..n_max, in one O(n_max * k) DP pass.

    Sizes are tracked in buckets 1..cap with cap = max(k, 1); the top bucket
    saturates (meaning "size >= cap"), so memory stays O(k). A gap is odd
    exactly when the two endpoints have different parities, so extending a
    subset with maximum i by a new maximum j only needs the bucket totals of
    the opposite parity class, kept as running sums. Single counts come
    from gap_parity_count; this DP builds windows and cross-checks it.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    cap = max(k, 1)
    by_parity = [[0] * (cap + 1), [0] * (cap + 1)]  # bucket totals per max-parity
    reached = 0  # running count of subsets in the top bucket
    terms: list[int] = []
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
        terms.append(reached + (1 if k == 0 else 0))  # empty set counts at k = 0
    return SequenceWindow(f"minsize-oddgap[{k}]", 1, tuple(terms))


def min_size_odd_gap_count(n: int, k: int) -> BigCount:
    """Number of subsets of {1..n} with >= k elements and all gaps odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return gap_parity_count(n, GAP_ALL_ODD, k)


# --- counting by rational generating function ---------------------------------
# Polynomials are int coefficient lists, lowest degree first.


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a: list, b: list) -> list:
    out = [x + y for x, y in zip(a, b)] + (a[len(b):] if len(a) > len(b) else b[len(a):])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _cancel(p: list, q: list, root: int) -> tuple[list, list]:
    # Divide p and q by 1 - root*x (root = 1 or -1) while it divides both,
    # that is while both vanish at x = root. Synthetic division: the
    # quotient's coefficient i is p_i + root * (coefficient i - 1).
    def value(poly):
        return sum(c * root**i for i, c in enumerate(poly))

    def divide(poly):
        out, acc = [], 0
        for c in poly[:-1]:
            acc = c + root * acc
            out.append(acc)
        return out

    while value(p) == 0 and value(q) == 0:
        p, q = divide(p), divide(q)
    return p, q


def condition_gf(cond: Condition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(P, Q) in lowest terms with Q(0) = 1 such that P(x)/Q(x) is the sum,
    over n >= 0, of the number of subsets of {1..n} matching cond times x^n.

    A k-subset is its minimum, then k - 1 gaps, then the slack n - max, and
    each part has a rational generating function (the sequence construction
    of Flajolet & Sedgewick, Analytic Combinatorics, I.4): the minimum is at
    least alpha*k, giving x^(alpha k)/(1-x), or at least 1 without alpha; a
    gap is at least g = cond.least_gap, G = x^g/D with D = 1 - x, or
    D = 1 - x^2 under a gap parity; the slack is 1/(1-x). Summing the sizes
    k >= s = max(min_size, 1) is a geometric series in H = x^alpha G:

        1/(1-x) * ([min_size = 0] + F/(1-x) * H^(s-1) / (1 - H)),

    F = x^alpha, or x without alpha. Over the common denominator
    Q = (1-x)^2 D^(s-1) E, with E = D - x^h and h = alpha + g, the numerator
    is P = x^m D, m = (alpha or 1) + h(s-1), plus (1-x) E when min_size = 0.
    Every irreducible factor of Q but those of E is 1 - x or 1 + x, and E is
    prime to P (mod E, P is x^m D, and E is prime to x and to D), so cancelling
    1 - x and 1 + x while they divide both leaves lowest terms. The order of
    Q is then the order of the minimal recurrence of the counts (Stanley,
    Enumerative Combinatorics 1, ch. 4). forced_max is not a clause of the
    sum; count it as the difference of two counts (condition_count).
    """
    if cond.forced_max is not None:
        raise ValueError("forced_max has no generating function here; take a difference")
    d = [1, -1] if cond.gap_parity == GAP_ANY else [1, 0, -1]
    h = (cond.alpha or 0) + cond.least_gap
    s = max(cond.min_size, 1)
    e = _poly_add(d, [0] * h + [-1])
    q = _poly_mul([1, -2, 1], e)
    for _ in range(s - 1):
        q = _poly_mul(q, d)
    p = _poly_mul([0] * ((cond.alpha or 1) + h * (s - 1)) + [1], d)
    if cond.min_size == 0:
        p = _poly_add(p, _poly_mul([1, -1], e))
    for root in (1, -1):
        p, q = _cancel(p, q, root)
    return tuple(p), tuple(q)


def _series(p: tuple, q: tuple, count: int) -> list:
    # The first count coefficients of p/q, q[0] = 1.
    terms: list[int] = []
    for i in range(count):
        acc = p[i] if i < len(p) else 0
        for j in range(1, min(i, len(q) - 1) + 1):
            acc -= q[j] * terms[i - j]
        terms.append(acc)
    return terms


def _gf_term(p: tuple, q: tuple, n: int) -> BigCount:
    # Coefficient n of p/q for deg p < deg q = k, as in every min_size = 0
    # condition_gf (before cancelling, deg P <= 1 + deg E < deg Q): the
    # series gives the first k terms, the recurrence q gives the rest.
    k = len(q) - 1
    head = _series(p, q, min(n + 1, k))
    if n < k:
        return head[n]
    return eval_fast(LinearRecurrence(tuple(-c for c in q[1:]), tuple(head)), n)


def condition_count(n: int, cond: Condition) -> BigCount:
    """Number of subsets of {1..n} matching cond, for any Condition and n,
    without enumerating.

    The total without the size bound is F_{n+3} - 1 or
    even_gap_family_size(n) for a gap parity alone (any beta is implied by
    it), else the coefficient of the min_size-free condition_gf (the series
    for the first terms, eval_fast on the reduced denominator beyond). The
    size classes below min_size, each a binomial closed form
    (_size_classes), come off that total. When the classes from min_size up
    are no more than those below it, or than the generating function's
    order (as for every n below that order), they are summed instead. A
    size bound is not put into the generating function, as its order grows
    by about one (two under a parity) per unit of min_size: alpha = 2,
    min_size = 3 at n = 10^6 is order 6 and 584 ms that way, against
    order 3 plus three classes in 166 ms. Fixing the maximum at m is the
    count at m less that at m - 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    top = cond.forced_max
    if top is not None:
        if top > n:
            raise ValueError(f"forced_max {top} exceeds n={n}")
        free = replace(cond, forced_max=None)
        return condition_count(top, free) - condition_count(top - 1, free)
    alpha, gap, size = cond.alpha or 0, cond.least_gap, cond.min_size
    parity = cond.gap_parity != GAP_ANY
    # The largest k with rest >= 0 in _size_classes.
    largest = (n + gap) // (alpha + gap) if alpha else (n + gap - 1) // gap
    if largest - size < max(size, alpha + gap + 2):
        return sum(_size_classes(n, size, alpha, gap, parity))
    if not alpha and gap <= 2 and parity:
        total = fibonacci(n + 3) - 1 if gap == 1 else even_gap_family_size(n)
    else:
        total = _gf_term(*condition_gf(replace(cond, min_size=0)), n)
    return total - sum(islice(_size_classes(n, 0, alpha, gap, parity), size))
