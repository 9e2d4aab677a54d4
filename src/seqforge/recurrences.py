"""Named integer sequences, each the series of a rational generating
function P/Q, and condition_count, the one function that counts the
subsets matching a Condition, from that Condition's generating function.

Every term is an exact Python int. Window names double as the CLI family
identifiers (``fib``, ``H``, ``sz[a,b]``, ``genfib[n]``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, cycle, islice, repeat, tee
from math import comb
from operator import add, mul
from typing import Iterator

from .fasteval import (
    _CARRY_BITS,
    _DECIMAL,
    EXACT,
    LinearRecurrence,
    _exact_context,
    eval_fast,
)
from .subsets import GAP_ALL_ODD, GAP_ANY, BigCount, Condition


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
        if start > self.last_index:
            raise IndexError(f"clip start {start} beyond window end {self.last_index}")
        return SequenceWindow(self.name, start, self.terms[start - self.offset:])


def fibonacci(n: int) -> BigCount:
    """Exact n-th Fibonacci number (F_0 = 0, F_1 = 1), by fast doubling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _fibonacci(n, False)


def _fibonacci(n: int, carry: bool) -> BigCount:
    # Fast doubling; with carry (inside fasteval._exact_context), the pair
    # moves to integral Decimals once it reaches _CARRY_BITS bits.
    a, b = 0, 1  # (F_k, F_{k+1}), k built up from the high bit of n
    for bit in bin(n)[2:]:
        if carry and b.bit_length() >= _CARRY_BITS:
            from decimal import Decimal

            a, b, carry = Decimal(a), Decimal(b), False
        a, b = a * (2 * b - a), a * a + b * b  # (F_2k, F_2k+1)
        if bit == "1":
            a, b = b, a + b
    return a


# Each window function reads the series of its spec, (name, offset, last
# index, generating function in factors), built by a private _*_spec of the
# same arguments that also checks them; a spec's P may be a one-shot
# iterator, so build one per series.

def fibonacci_seq(n_max: int) -> SequenceWindow:
    """Window of F_0 .. F_{n_max}: the series of x/(1-x-x^2)."""
    return _window(*_fibonacci_spec(n_max))


def _fibonacci_spec(n_max: int) -> tuple:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return "fib", 0, n_max, _order_gf(2, 0)


def h_seq(n_max: int) -> SequenceWindow:
    """The Fibonacci sequence accumulated twice, 0, 1, 3, 7, 14, 26, 46, ...:
    the series of x/((1-x)^2 (1-x-x^2))."""
    return _window(*_h_spec(n_max))


def _h_spec(n_max: int) -> tuple:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return "H", 0, n_max, _order_gf(2, 2)


def schreier_zeckendorf_seq(alpha: int, beta: int, n_max: int) -> SequenceWindow:
    """Counts of subsets of {1..n} that are alpha-Schreier and beta-Zeckendorf,
    for n = 1..n_max: the series of their condition_gf, whose reduced
    denominator is 1 - x - x^(alpha+beta).

    Three-branch rule: 1 while n <= alpha-1; n-alpha+2 while
    alpha <= n <= 2*alpha+beta-1; then the order-(alpha+beta) recurrence
    a(n) = a(n-1) + a(n-(alpha+beta)).
    """
    return _window(*_schreier_zeckendorf_spec(alpha, beta, n_max))


def _schreier_zeckendorf_spec(alpha: int, beta: int, n_max: int) -> tuple:
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gf = _condition_parts(Condition(alpha=alpha, beta=beta))
    return f"sz[{alpha},{beta}]", 1, n_max, gf


def gen_fib_seq(n: int, m_max: int) -> SequenceWindow:
    """Order-n Fibonacci analogue: 0, then n ones, then each term is the
    previous term plus the term n places back; the series of x/(1-x-x^n)."""
    return _window(*_gen_fib_spec(n, m_max))


def _gen_fib_spec(n: int, m_max: int) -> tuple:
    return _order_spec("genfib", n, m_max, 0)


def k_seq(n: int, m_max: int) -> SequenceWindow:
    """gen_fib_seq accumulated once: x/((1-x)(1-x-x^n))."""
    return _window(*_k_spec(n, m_max))


def _k_spec(n: int, m_max: int) -> tuple:
    return _order_spec("genk", n, m_max, 1)


def gen_h_seq(n: int, m_max: int) -> SequenceWindow:
    """gen_fib_seq accumulated twice: x/((1-x)^2 (1-x-x^n))."""
    return _window(*_gen_h_spec(n, m_max))


def _gen_h_spec(n: int, m_max: int) -> tuple:
    return _order_spec("genh", n, m_max, 2)


def _order_spec(family: str, n: int, m_max: int, sums: int) -> tuple:
    if n < 2:
        raise ValueError("n must be >= 2")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    return f"{family}[{n}]", 0, m_max, _order_gf(n, sums)


def even_gap_family_size(n: int) -> BigCount:
    """Subsets of {1..n} whose gaps are all even: 3*2^((n-1)/2) - 1 for odd
    n, 2*2^(n/2) - 1 for even n."""
    return ((2 + n % 2) << (n // 2)) - 1


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


def min_size_odd_gap_seq(n_max: int, k: int) -> SequenceWindow:
    """Counts of subsets of {1..n} with >= k elements and all gaps odd, for
    n = 1..n_max: the series of their condition_gf."""
    return _window(*_min_size_odd_gap_spec(n_max, k))


def _min_size_odd_gap_spec(n_max: int, k: int) -> tuple:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    gf = _condition_parts(Condition(gap_parity=GAP_ALL_ODD, min_size=k))
    return f"minsize-oddgap[{k}]", 1, n_max, gf


def min_size_odd_gap_count(n: int, k: int) -> BigCount:
    """Number of subsets of {1..n} with >= k elements and all gaps odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return condition_count(n, Condition(gap_parity=GAP_ALL_ODD, min_size=k))


# --- counting by rational generating function ---------------------------------
# Polynomials are int coefficient lists, lowest degree first. The series
# takes a generating function in factors, (lead, P, taps, ones, pluses):
# x^lead P / ((1-x)^ones (1+x)^pluses R), R = 1 - sum of c x^j over taps
# {j: c}, P an iterable of coefficients read lazily, so a long P costs
# only the terms that are read.

# Up to this many running sums are nested accumulate passes, which run in
# C but recurse one level deeper per pass on every term (the C stack gives
# out near 10^5 levels); past it one list of sums is updated per term, at
# about the same speed from a few dozen passes on.
_NESTED_SUMS = 32


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _condition_parts(cond: Condition) -> tuple:
    # condition_gf in factors, cancelled by hand (the derivation is in
    # condition_gf's docstring). Whatever alpha, beta and min_size are, the
    # taps are two and P is a few terms or a lazy run, so a window costs
    # only the terms it reads. P may be a one-shot iterator: take fresh
    # parts for each series.
    if cond.forced_max is not None:
        raise ValueError("forced_max has no generating function here; take a difference")
    parity = cond.gap_parity != GAP_ANY
    h = (cond.alpha or 0) + cond.least_gap
    s = max(cond.min_size, 1)
    m = (cond.alpha or 1) + h * (s - 1)
    taps = {2 if parity else 1: 1}  # E = D - x^h
    taps[h] = taps.get(h, 0) + 1
    if cond.min_size == 0 and not parity:  # (1 + x^m + ... + x^(h-1)) / E
        return 0, chain((1,), repeat(0, m - 1), repeat(1, h - m)), taps, 0, 0
    if cond.min_size == 0:  # (x^m (1+x) + E) / ((1-x) E)
        p = {0: 1}
        for j, c in ((2, -1), (h, -1), (m, 1), (m + 1, 1)):
            p[j] = p.get(j, 0) + c
        top = max(j for j, c in p.items() if c)
        return 0, (p.get(j, 0) for j in range(top + 1)), taps, 1, 0
    if parity and s == 1:  # x^m (1+x) / ((1-x) E)
        return m, (1, 1), taps, 1, 0
    return m, (1,), taps, s, s - 2 if parity else 0  # x^m / ((1-x)^s (1+x)^(s-2) E)


def condition_gf(cond: Condition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(P, Q) in lowest terms with Q(0) = 1 such that P(x)/Q(x) is the sum,
    over n >= 0, of the number of subsets of {1..n} matching cond times x^n.

    A k-subset is its minimum, then k - 1 gaps, then the slack n - max, and
    each part has a rational generating function (the sequence construction
    of Flajolet & Sedgewick, Analytic Combinatorics, I.4): the minimum is at
    least alpha*k, giving x^(alpha k)/(1-x), or at least 1 without alpha; a
    gap is at least g = cond.least_gap, G = x^g/D with D = 1 - x, or
    D = 1 - x^2 = (1-x)(1+x) under a gap parity; the slack is 1/(1-x).
    Summing the sizes k >= s = max(min_size, 1) is a geometric series in
    H = x^alpha G:

        1/(1-x) * ([min_size = 0] + F/(1-x) * H^(s-1) / (1 - H)),

    F = x^alpha, or x without alpha. Over the common denominator
    (1-x)^2 D^(s-1) E, with E = D - x^h and h = alpha + g, the numerator is
    x^m D, m = (alpha or 1) + h(s-1), plus (1-x) E when min_size = 0.
    Cancelling the factors of D and 1 - x that both share leaves

        min_size = 0:  (1 + x^m + ... + x^(h-1)) / E,
                       or (x^m (1+x) + E) / ((1-x) E) under a parity;
        min_size >= 1: x^m / ((1-x)^s E),
                       or x^m / ((1-x)^s (1+x)^(s-2) E) under a parity,
                       read as x^m (1+x) / ((1-x) E) when s = 1.

    That is lowest terms. E is prime to x, to 1 - x (E(1) = -1) and to 1 + x
    (E(-1) is 2 - (-1)^h, or -(-1)^h under a parity), and to every P: mod E
    the numerator before cancelling is x^m D, prime to E. Of 1 -+ x, no
    numerator above shares one with its Q. The order of Q is then the order
    of the minimal recurrence of the counts (Stanley, Enumerative
    Combinatorics 1, ch. 4). forced_max is not a clause of the sum; count it
    as the difference of two counts (condition_count).
    """
    lead, p, taps, ones, pluses = _condition_parts(cond)
    q = [1] + [0] * max(taps)
    for j, c in taps.items():
        q[j] -= c
    for factor, times in (([1, -1], ones), ([1, 1], pluses)):
        for _ in range(times):
            q = _poly_mul(q, factor)
    return (0,) * lead + tuple(p), tuple(q)


def _order_gf(n: int, sums: int) -> tuple:
    # x / ((1-x)^sums (1 - x - x^n)) in factors: the order-n Fibonacci
    # analogue accumulated sums times; n = 2 is Fibonacci (sums 0) and H (2).
    return 1, (1,), {1: 1, n: 1}, sums, 0


def _running_sums(stream: Iterator[BigCount], times: int) -> Iterator[BigCount]:
    # The series of stream / (1-x)^times.
    if times <= _NESTED_SUMS:
        for _ in range(times):
            stream = accumulate(stream)
        return stream
    return _flat_sums(stream, times)


def _flat_sums(stream: Iterator[BigCount], times: int) -> Iterator[BigCount]:
    sums = [0] * (times + 1)  # sums[i]: i running sums of the input so far
    for a in stream:
        sums[0] = a
        sums = list(accumulate(sums))
        yield sums[-1]


def _series(lead: int, p, taps: dict, ones: int = 0, pluses: int = 0) -> Iterator[BigCount]:
    """The coefficients of x^lead P / ((1-x)^ones (1+x)^pluses R), R = 1 -
    sum of c x^j over taps {j: c}, one at a time and without end.

    The series of P/R is a_i = p_i + c_1 a_{i-1} + ... + c_d a_{i-d}, with
    a_i = 0 for i < 0: a map over copies of the stream itself, one per tap,
    lagged j places (itertools.tee); it adds the term where c = 1 and
    multiplies only at the other taps. The map is built once, inside a
    one-shot generator, so that the copies exist by then, and every term
    runs in C. The copies read what the stream has already yielded, so it
    holds only its last d terms, give or take one of tee's small blocks.
    Each pair of factors (1-x)(1+x) = 1 - x^2 is then a running sum over
    the even terms and one over the odd; each other 1 - x is a running sum,
    and each other 1 + x is one too with the signs of the terms alternated
    before and after (substitute -x for x). The lead zeros come first, so
    reading them runs none of this.
    """
    def terms():
        total = None
        for (j, c), copy in zip(taps.items(), copies):
            lagged = chain(repeat(0, j), copy)  # a_{i-j}
            if c != 1:
                lagged = map(mul, repeat(c), lagged)
            total = lagged if total is None else map(add, total, lagged)
        if total is None:  # R = 1
            total = repeat(0)
        yield chain(map(add, p, total), total)

    stream, *copies = tee(chain.from_iterable(terms()), len(taps) + 1)
    pairs = min(ones, pluses)
    if pairs:
        even, odd = tee(stream)
        stream = chain.from_iterable(zip(
            _running_sums(islice(even, 0, None, 2), pairs),
            _running_sums(islice(odd, 1, None, 2), pairs),
        ))
    if pluses > pairs:
        signs = map(mul, stream, cycle((1, -1)))
        stream = map(mul, _running_sums(signs, pluses - pairs), cycle((1, -1)))
    return chain(repeat(0, lead), _running_sums(stream, ones - pairs))


def _window(name: str, offset: int, last: int, gf: tuple) -> SequenceWindow:
    # Coefficients offset..last of the series of gf, in factors.
    return SequenceWindow(name, offset, tuple(islice(_series(*gf), offset, last + 1)))


def _decimal_series(lead: int, p, taps: dict, ones: int = 0, pluses: int = 0) -> Iterator[BigCount]:
    # _series with P fed as Decimals, for the CLI. Read in
    # fasteval._exact_context, every term from the first nonzero one on is
    # an integral Decimal whose str() takes linear time. The series is lazy,
    # so it must be read inside the context, not only built there.
    from decimal import Decimal

    return _series(lead, map(Decimal, p), taps, ones, pluses)


def _gf_term(cond: Condition, n: int, carry: bool) -> BigCount:
    # Coefficient n of condition_gf(cond) for min_size = 0, where
    # deg P < deg Q = k (before cancelling, deg P <= 1 + deg E < deg Q): the
    # series gives the first k terms, the recurrence Q gives the rest.
    q = condition_gf(cond)[1]
    k = len(q) - 1
    head = list(islice(_series(*_condition_parts(cond)), min(n + 1, k)))
    if n < k:
        return head[n]
    rec = LinearRecurrence(tuple(-c for c in q[1:]), tuple(head))
    return eval_fast(rec, n, _DECIMAL if carry else EXACT)


def condition_count(n: int, cond: Condition, *, _decimal: bool = False) -> BigCount:
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

    _decimal is for the CLI, which prints the count: a count that will be
    wide may then come back as an integral decimal.Decimal, computed in
    fasteval._exact_context, whose str() takes linear time (see
    fasteval._CARRY_BITS). Every other caller gets an int.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not _decimal or n < _CARRY_BITS:  # at most 2^n: too narrow to carry
        return _count(n, cond, False)
    from decimal import localcontext

    with localcontext(_exact_context()):
        return _count(n, cond, True)


def _count(n: int, cond: Condition, carry: bool) -> BigCount:
    # condition_count; with carry, a wide count may be an integral Decimal.
    alpha, gap, size = cond.alpha or 0, cond.least_gap, cond.min_size
    parity = cond.gap_parity != GAP_ANY
    closed = not alpha and gap <= 2 and parity  # a total by closed form
    top = cond.forced_max
    if top is not None:
        if top > n:
            raise ValueError(f"forced_max {top} exceeds n={n}")
        free = replace(cond, forced_max=None)
        # Two even-gap totals differ by a power of two, which render_int
        # prints about as fast as Decimal builds one of them.
        carry = carry and not (closed and gap == 2 and not size)
        return _count(top, free, carry) - _count(top - 1, free, carry)
    # The largest k with rest >= 0 in _size_classes.
    largest = (n + gap) // (alpha + gap) if alpha else (n + gap - 1) // gap
    if largest - size < max(size, alpha + gap + 2):
        return sum(_size_classes(n, size, alpha, gap, parity))
    below = sum(islice(_size_classes(n, 0, alpha, gap, parity), size))
    # A Decimal takes an int in quadratic time, so only a narrow one.
    carry = carry and below.bit_length() <= _CARRY_BITS
    if closed:
        if carry:
            from .formats import STR_MAX_BITS  # formats imports this module

            carry = n // 2 > STR_MAX_BITS  # both totals have n/2 bits or more
        if gap == 1:
            total = _fibonacci(n + 3, carry) - 1
        elif carry:  # even_gap_family_size, the power of two by libmpdec
            from decimal import Decimal

            total = (2 + n % 2) * Decimal(2) ** (n // 2) - 1
        else:
            total = even_gap_family_size(n)
    else:
        total = _gf_term(replace(cond, min_size=0), n, carry)
    return total - below
