"""Named integer sequences: piecewise recurrences, partial sums, closed
forms for the gap-parity counts, and a gap-parity counting DP.

Every term is an exact Python int. Window names double as the CLI family
identifiers (``fib``, ``H``, ``sz[a,b]``, ``genfib[n]``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb
from typing import Iterator

from .subsets import GAP_ALL_EVEN, GAP_ALL_ODD, BigCount


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


def _size_classes(n: int, step: int, first: int) -> Iterator[BigCount]:
    # c_m, the number of m-element subsets of {1..n} whose gaps are
    # step + 2h (h >= 0), for m = first, first + 1, ... while any exist;
    # step is 1 for odd gaps, 2 for even. With H the sum of the h, the span
    # is step*(m-1) + 2H, leaving room - 2H places for the minimum, where
    # room = n - step*(m-1). C(H+m-2, m-2) gap lists share each H, and the
    # sum over H <= t = (room-1)//2 telescopes (hockey stick) to
    # c_m = room*C(a, m-1) - 2(m-1)*C(a, m), a = t+m-1.
    # From one m to the next, a stays or grows by one, so each binomial
    # follows from the last with one small multiply and divide.
    if first == 0:
        yield 1
    m = max(first, 1)
    room = n - step * (m - 1)
    if room <= 0:
        return
    t = (room - 1) // 2
    below = comb(t + m - 1, m - 1)  # C(a, m-1)
    while room > 0:
        at = below * t // m  # C(a, m) = C(a, m-1) * (a-m+1) / m
        yield room * below - 2 * (m - 1) * at
        m, room = m + 1, room - step
        next_t = (room - 1) // 2
        below = at if next_t < t else at + below  # Pascal's rule when a grows
        t = next_t


def gap_parity_count(n: int, parity: str, min_size: int = 0) -> BigCount:
    """Number of subsets of {1..n} with at least min_size elements whose
    consecutive gaps all have one parity (GAP_ALL_ODD or GAP_ALL_EVEN).

    The whole family has F_{n+3} - 1 members for odd gaps (fast doubling)
    and even_gap_family_size(n) for even gaps. A size bound removes the
    size classes below it, each one closed form (_size_classes); past half
    the largest possible size, the classes from min_size up are added
    instead. Fixing the maximum at n is this count at n minus it at n - 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if min_size < 0:
        raise ValueError("min_size must be >= 0")
    if parity == GAP_ALL_ODD:
        step, largest = 1, n
    elif parity == GAP_ALL_EVEN:
        step, largest = 2, (n + 1) // 2
    else:
        raise ValueError(f"parity must be {GAP_ALL_ODD!r} or {GAP_ALL_EVEN!r}")
    if min_size > largest // 2:
        return sum(_size_classes(n, step, min_size))
    total = fibonacci(n + 3) - 1 if step == 1 else even_gap_family_size(n)
    return total - sum(islice(_size_classes(n, step, 0), min_size))


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
