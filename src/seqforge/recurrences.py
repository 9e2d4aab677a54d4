"""Named integer sequences, each the series of a rational generating
function P/Q, and condition_count, the one function that counts the
subsets matching a Condition, from that Condition's generating function.
schreier_zeckendorf_count and tail_recurrence_of are views of the same.

Every term is an exact Python int. The named sequences are the rows of
FAMILIES, keyed by the CLI family names (``fib``, ``schreier-zeckendorf``, ...).
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, count, islice, repeat, tee
from math import comb
from operator import add, mul, sub

from .subsets import GAP_ALL_ODD, BigCount, Condition, _need_int, _Value


class SequenceWindow(_Value):
    """A contiguous run of exact terms; terms[i] is the value at offset + i."""

    __slots__ = __match_args__ = ("name", "offset", "terms")

    def __init__(self, name: str, offset: int, terms: tuple[int, ...]) -> None:
        self._set(name, offset, tuple(terms))


def fibonacci(n: int) -> BigCount:
    """Exact n-th Fibonacci number (F_0 = 0, F_1 = 1), by fast doubling."""
    _need_int("n", n, 0)
    a, b = 0, 1  # (F_k, F_{k+1}), k built up from the high bit of n
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # (F_2k, F_2k+1)
        if bit == "1":
            a, b = b, a + b
    return a


# The named sequences by `seq --family` name. A window is the series of
# the _GF gf(*params), from index first to a last index >= first; bounds
# pairs each parameter, in gf's order, with its least value.
Family = namedtuple("Family", "prefix bounds first gf")
FAMILIES = {
    "fib": Family("fib", (), 0, lambda: _order_gf(2, 0)),
    "H": Family("H", (), 0, lambda: _order_gf(2, 2)),
    "schreier-zeckendorf": Family(
        "sz", (("alpha", 1), ("beta", 1)), 1,
        lambda alpha, beta: _condition_parts(Condition(alpha=alpha, beta=beta)),
    ),
    "genfib": Family("genfib", (("n", 2),), 0, lambda n: _order_gf(n, 0)),
    "genk": Family("genk", (("n", 2),), 0, lambda n: _order_gf(n, 1)),
    "genh": Family("genh", (("n", 2),), 0, lambda n: _order_gf(n, 2)),
    "minsize-oddgap": Family(
        "minsize-oddgap", (("k", 0),), 1,
        lambda k: _condition_parts(Condition(gap_parity=GAP_ALL_ODD, min_size=k)),
    ),
}


def family_spec(family: str, **params: int) -> tuple:
    """(window name, first index, generating function as a _GF) of a
    FAMILIES row, with params, named as in the row, checked against its
    bounds. The window is named prefix, or prefix[p1,p2,...] with
    parameters; which indices are read is the reader's to check."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    prefix, bounds, first, gf = FAMILIES[family]
    extra = [name for name in params if name not in dict(bounds)]
    if extra:
        raise ValueError(f"family {family!r} has no parameter {extra[0]!r}")
    values = []
    for name, least in bounds:
        if name not in params:
            raise ValueError(f"family {family!r} needs parameter {name!r}")
        _need_int(name, params[name], least)
        values.append(params[name])
    name = f"{prefix}[{','.join(map(str, values))}]" if values else prefix
    return name, first, gf(*values)


def window(family: str, last: int, **params: int) -> SequenceWindow:
    """Terms first..last of the sequence of a FAMILIES row, with the row's
    parameters by name: window("genfib", 12, n=3) is the order-3 Fibonacci
    analogue at indices 0..12."""
    name, first, gf = family_spec(family, **params)
    _need_int("last", last, first, sys.maxsize)  # islice stops at sys.maxsize
    return SequenceWindow(name, first, tuple(islice(gf.series(), first, last + 1)))


def even_gap_family_size(n: int) -> BigCount:
    """Subsets of {1..n} whose gaps are all even: 3*2^((n-1)/2) - 1 for odd
    n, 2*2^(n/2) - 1 for even n."""
    _need_int("n", n, 0)
    return ((2 + n % 2) << (n // 2)) - 1


def _move_down(c: BigCount, top: int, j: int, new_top: int) -> BigCount:
    # C(new_top, j) from c = C(top, j), new_top <= top: one small multiply
    # and divide per step, or a fresh binomial when that is the shorter way.
    if top - new_top > j:
        return comb(new_top, j)
    for t in range(top, new_top, -1):
        c = c * (t - j) // t  # C(t-1, j) = C(t, j) * (t-j) / t
    return c


def _size_classes(n: int, first: int, alpha: int, gap: int, step: int) -> Iterator[BigCount]:
    # c_k, the number of k-subsets of {1..n} whose minimum is at least
    # max(1, alpha*k) (alpha = 0 when unset) and whose gaps are gap + q t
    # (q = step, t >= 0), for k = first, first + 1, ... while any exist.
    # The minimum's excess, the k - 1 gap excesses (multiples of q) and the
    # slack n - max sum to rest: c_k = [x^rest] 1/((1-x)^2 (1-x^q)^(k-1)),
    # that is Phi^2 / (1-x^q)^(k+1), Phi = 1 + ... + x^(q-1). With
    # (a, j) = divmod(rest, q), Phi^2 reaches x^rest twice, and by Pascal
    #     c_k = (j+1) C(a+k, k) + (q-1-j) C(a+k-1, k)
    #         = q C(a+k-1, k) + (j+1) C(a+k-1, k-1),
    # C(rest+k, k) at q = 1, read there without its unit multiplies: one
    # small multiply and divide per class from the tracked C(a+k-1, k-1).
    # rest falls by d = alpha + gap per class, so the next one follows by
    # about d/q more (_move_down), not afresh.
    if first == 0:
        yield 1
    k = max(first, 1)
    d = alpha + gap
    rest = n - max(1, alpha * k) - gap * (k - 1)
    if rest < 0:
        return
    a, j = divmod(rest, step)
    below = comb(a + k - 1, k - 1)  # C(a+k-1, k-1)
    while True:
        at = below * a // k  # C(a+k-1, k)
        yield at + below if step == 1 else step * at + (j + 1) * below
        rest -= d
        if rest < 0:
            return
        next_a, j = divmod(rest, step)
        # The next top, next_a + k, is above a + k - 1 only when a is
        # unchanged (d < q), and then Pascal's rule gives C(a+k, k).
        below = at + below if next_a == a else _move_down(at, a + k - 1, k, next_a + k)
        k, a = k + 1, next_a


def min_size_odd_gap_seq(n_max: int, k: int) -> SequenceWindow:
    """Counts of subsets of {1..n} with >= k elements and all gaps odd, for
    n = 1..n_max: the series of their condition_gf."""
    _need_int("n_max", n_max, 1, sys.maxsize)  # before window reads it as last
    return window("minsize-oddgap", n_max, k=k)


def min_size_odd_gap_count(n: int, k: int) -> BigCount:
    """Number of subsets of {1..n} with >= k elements and all gaps odd."""
    _need_int("n", n, 1)
    _need_int("k", k, 0)  # before Condition reads it as min_size
    return condition_count(n, Condition(gap_parity=GAP_ALL_ODD, min_size=k))


# --- counting by rational generating function ---------------------------------
# Up to this many running sums are nested accumulate passes, which run in
# C but recurse one level deeper per pass on every term (the C stack gives
# out near 10^5 levels); past it one list of sums is updated per term, at
# about the same speed from a few dozen passes on.
_NESTED_SUMS = 32


class _GF(_Value):
    """A rational generating function in factors,

        x^lead P / ((1-x)^ones Phi^pluses R),

    Phi = 1 + x + ... + x^(q-1) and R = 1 - sum of c x^j over taps {j: c}.
    P is held as its first differences, dp = (1-x) P, a dict {j: c} whose
    values sum to 0: plain data, which any number of reads share, and a long
    run of ones in P (a beta of 10^9) is two entries. taps is not empty and
    pluses <= ones, as every value built here has (_order_gf,
    _condition_parts). Polynomials read out are int coefficient tuples,
    lowest degree first.
    """

    __slots__ = __match_args__ = ("lead", "dp", "taps", "ones", "pluses", "q")

    def __init__(self, lead: int, dp: dict, taps: dict, ones: int, pluses: int, q: int) -> None:
        self._set(lead, dp, taps, ones, pluses, q)

    def _p(self) -> Iterator[int]:
        # P, the running sums of dp to its degree, read lazily, so a long P
        # costs only the terms read; a degree past sys.maxsize is cut to it.
        top = max((j for j, c in self.dp.items() if c), default=0)  # deg P + 1
        return islice(accumulate(map(self.dp.get, count(), repeat(0))), min(top, sys.maxsize))

    def series(self, number: type = int) -> Iterator[BigCount]:
        """The coefficients, one at a time and without end, with P's read as
        number. The CLI passes decimal.Decimal: read in _exact_context, every
        term from the first nonzero one on is then an integral Decimal whose
        str() takes linear time. The series is lazy, so it must be read
        inside the context, not only built there.

        The series of P/R is a_i = p_i + c_1 a_{i-1} + ... + c_d a_{i-d}, with
        a_i = 0 for i < 0: a map over copies of the stream itself, one per tap,
        lagged j places (itertools.tee); it adds the term where c = 1 and
        multiplies only at the other taps. The map is built once, inside a
        one-shot generator, so that the copies exist by then, and every term
        runs in C. The copies read what the stream has already yielded, so it
        holds only its last d terms, give or take one of tee's small blocks.
        Each pair (1-x) Phi = 1 - x^q is then q interleaved running sums, one
        over the terms at each residue mod q, and each other 1 - x is a running
        sum. The lead zeros come first, so reading them runs none of this. A
        lead or lag longer than sys.maxsize, past which islice reads nothing,
        is cut to it: exact below it.
        """
        taps, q, pluses, p = self.taps, self.q, self.pluses, map(number, self._p())

        def terms():
            lagged = []
            for (j, c), copy in zip(taps.items(), copies):
                run = chain(repeat(0, min(j, sys.maxsize)), copy)  # a_{i-j}
                lagged.append(run if c == 1 else map(mul, repeat(c), run))
            total = reduce(partial(map, add), lagged)
            yield chain(map(add, p, total), total)

        stream, *copies = tee(chain.from_iterable(terms()), len(taps) + 1)
        if pluses:
            stream = chain.from_iterable(zip(*(
                _running_sums(islice(lane, i, None, q), pluses) for i, lane in enumerate(tee(stream, q))
            )))
        return chain(repeat(0, min(self.lead, sys.maxsize)), _running_sums(stream, self.ones - pluses))

    def expanded(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(x^lead P, Q), Q = R (1-x^q)^pluses (1-x)^(ones-pluses), as series reads it."""
        den = [1] + [0] * max(self.taps)
        for j, c in self.taps.items():
            den[j] -= c
        for shift, times in ((self.q, self.pluses), (1, self.ones - self.pluses)):
            for _ in range(times):  # den times 1 - x^shift
                den = list(map(sub, den + [0] * shift, [0] * shift + den))
        return (0,) * self.lead + tuple(self._p()), tuple(den)

    def recurrence(self, start: int = 0, differences: bool = False) -> LinearRecurrence:
        """The recurrence of R, order k = deg R, read from the series t at
        start .. start + k. It needs ones <= 1, no Phi, a proper fraction,
        and P(1) = -R(1) when ones = 1, as every min_size-free condition has
        (ones = 1 at q = 2: P(1) = q - 1, R(1) = -1). Then the partial
        fractions (Stanley, EC1 4.1) are A/(1-x) + N/R, A = P(1)/R(1) = -ones
        and deg N < k, so t_i + ones is [x^i] N/R from i = 0 on. With
        differences the recurrence is of t_i - t_(i-1) from i = start + 1:
        (1-x) times the generating function is a fraction over R whose
        numerator has degree at most k."""
        from .fasteval import LinearRecurrence

        k = max(self.taps)
        coeffs = tuple(self.taps.get(j, 0) for j in range(1, k + 1))
        terms = [t + self.ones for t in islice(self.series(), start, start + k + 1)]
        if differences:
            return LinearRecurrence(coeffs, tuple(map(sub, terms[1:], terms)), start + 1)
        return LinearRecurrence(coeffs, tuple(terms[:k]), start)


def _condition_parts(cond: Condition) -> _GF:
    # condition_gf as a _GF, cancelled by hand (the derivation is in
    # condition_gf's docstring). Whatever alpha, beta and min_size are, the
    # taps are two and P is a few terms or a run, so a window costs only
    # the terms it reads.
    if cond.forced_max is not None:
        raise ValueError("forced_max has no generating function here; take a difference")
    q = cond.gap_step
    h = (cond.alpha or 0) + cond.least_gap
    s = max(cond.min_size, 1)
    m = (cond.alpha or 1) + h * (s - 1)
    taps = {q: 1}  # E = D - x^h
    taps[h] = taps.get(h, 0) + 1
    if s >= 2:  # x^m / ((1-x)^s Phi^(s-2) E)
        return _GF(m, {0: 1, 1: -1}, taps, s, s - 2, q)
    if cond.min_size == 1:  # x^m Phi / ((1-x) E)
        return _GF(m, {0: 1, q: -1}, taps, 1, 0, q)
    # (x^m Phi + E) / ((1-x) E), and (1-x) x^m Phi = x^m - x^(m+q). The
    # numerator is q - 1 at 1, so at q = 1 the 1 - x cancels: P is then
    # (x^m + E) / (1-x), whose first differences are x^m + E.
    e = ((0, 1), (q, -1), (h, -1))
    terms = ((m, 1), *e) if q == 1 else ((m, 1), (m + q, -1), *e, *((j + 1, -c) for j, c in e))
    dp = {}
    for j, c in terms:
        dp[j] = dp.get(j, 0) + c
    return _GF(0, dp, taps, int(q > 1), 0, q)


def condition_gf(cond: Condition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(P, Q) in lowest terms with Q(0) = 1 such that P(x)/Q(x) is the sum,
    over n >= 0, of the number of subsets of {1..n} matching cond times x^n.

    A k-subset is its minimum, then k - 1 gaps, then the slack n - max, and
    each part has a rational generating function (the sequence construction
    of Flajolet & Sedgewick, Analytic Combinatorics, I.4): the minimum is at
    least alpha*k, giving x^(alpha k)/(1-x), or at least 1 without alpha; a
    gap is g, g + q, g + 2q, ..., with g = cond.least_gap and stride
    q = cond.gap_step, giving G = x^g/D with D = 1 - x^q = (1-x) Phi,
    Phi = 1 + x + ... + x^(q-1); the slack is 1/(1-x). Summing the sizes
    k >= s = max(min_size, 1) is a geometric series in H = x^alpha G:

        1/(1-x) * ([min_size = 0] + F/(1-x) * H^(s-1) / (1 - H)),

    F = x^alpha, or x without alpha. Over the common denominator
    (1-x)^2 D^(s-1) E, with E = D - x^h and h = alpha + g, the numerator is
    x^m D, m = (alpha or 1) + h(s-1), plus (1-x) E when min_size = 0.
    Cancelling the factors of D and 1 - x that both share leaves

        min_size >= 2: x^m / ((1-x)^s Phi^(s-2) E),
        min_size = 1:  x^m Phi / ((1-x) E),
        min_size = 0:  (x^m Phi + E) / ((1-x) E), whose numerator is q - 1
                       at 1: at q = 1 it is (1 + x^m + ... + x^(h-1)) / E.

    That is lowest terms. E is prime to x, to 1 - x (E(1) = -1), to Phi
    (E(w) = -w^h, not 0, at each q-th root of unity w other than 1), and to
    every P: the numerator before cancelling is x^m D = x^(m+h) mod E. No
    numerator above shares 1 - x or Phi with its Q: Phi(1) = q, and the
    quotient at q = 1 is h + 1 - m > 0 at 1. The order of Q is then the
    order of the minimal recurrence of the counts (Stanley, Enumerative
    Combinatorics 1, ch. 4). forced_max is not a clause of the sum; count
    it as the difference of two counts (condition_count).
    """
    return _condition_parts(cond).expanded()


def _order_gf(n: int, sums: int) -> _GF:
    # x / ((1-x)^sums (1 - x - x^n)) as a _GF: the order-n Fibonacci
    # analogue accumulated sums times; n = 2 is Fibonacci (sums 0) and H (2).
    return _GF(1, {0: 1, 1: -1}, {1: 1, n: 1}, sums, 0, 1)


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


@lru_cache(maxsize=None)
def _exact_context():
    """The one decimal context for exact integers: all of libmpdec's
    precision and exponent range, with Inexact and Rounded trapped beside
    the default traps, so an operation that would round raises instead of
    printing a wrong digit. Work in a copy (decimal.localcontext makes
    one). decimal is imported on the first call, not at start."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
               decimal.Inexact, decimal.Rounded],
    )


# Up to this many size classes are summed, not powered: a class costs under
# 1 µs, a power's set-up alone 40 µs or more. On Python 3.11, best of 200,
# odd gaps at n = 16 take 5.4 µs summed, 49.4 µs powered, and break even
# near 128 classes (57.6 vs 59.4 µs); of five shapes, no clause breaks even
# first, near 96.
_SUM_CLASSES = 64


def condition_count(n: int, cond: Condition, *, _decimal: bool = False) -> BigCount:
    """Number of subsets of {1..n} matching cond, for any Condition and n,
    without enumerating.

    The total without the size bound is one eval_fast power of the
    recurrence of E, the last factor of the min_size-free condition_gf
    (_GF.recurrence; order deg E, a + b for alpha a, beta b). The size
    classes below min_size, each a binomial closed form (_size_classes),
    come off that total. When the classes from min_size up are no more
    than those below it, than the order (as for every n below that
    order) or than _SUM_CLASSES, below which a sum costs less than the
    power's set-up, they are summed instead. A size bound is not put into the
    generating function, as its order grows by about q, the stride of the
    allowed gaps, per unit of min_size: alpha = 2, min_size = 3 at
    n = 10^6 is order 6 and 584 ms that way, against order 3 plus three
    classes in 166 ms. Fixing the maximum at m is the count at m less that at m - 1:
    the differences of the totals follow the same recurrence, so it is
    still one power, and only the size classes are summed at both.

    _decimal is for the CLI, which prints the count: a power that will be
    wide may then come back as an integral decimal.Decimal, computed in
    _exact_context, whose str() takes linear time (see
    fasteval._CARRY_BITS). Every other caller gets an int. fasteval and
    decimal are imported only where a power runs.
    """
    _need_int("n", n, 0)
    alpha, gap, step, size = cond.alpha or 0, cond.least_gap, cond.gap_step, cond.min_size
    top = cond.forced_max
    if top is not None:
        if top > n:
            raise ValueError(f"forced_max {top} exceeds n={n}")
        n = top
    tops = (n,) if top is None else (n, n - 1)

    def classes(first: int, many: int | None = None) -> BigCount:
        # Up to many size classes from first on, at n, or at n less at n - 1.
        at = [sum(islice(_size_classes(t, first, alpha, gap, step), many)) for t in tops]
        return at[0] - sum(at[1:])

    # The largest k with rest >= 0 in _size_classes.
    largest = (n + gap) // (alpha + gap) if alpha else (n + gap - 1) // gap
    if largest - size < max(size, alpha + gap + 2, _SUM_CLASSES):
        return classes(size)
    from .fasteval import _CARRY_BITS, _DECIMAL, eval_fast

    below = classes(0, size)
    # The count is at most 2^n, too narrow to carry below _CARRY_BITS, and a
    # Decimal takes an int in quadratic time, so only a narrow one.
    carry = _decimal and n >= _CARRY_BITS and below.bit_length() <= _CARRY_BITS
    gf = _condition_parts(Condition(cond.alpha, cond.beta, cond.gap_parity))
    rec = gf.recurrence(differences=top is not None)
    if top is None:  # the power is of the total plus ones
        below += gf.ones
    if not carry:
        return eval_fast(rec, n) - below
    from decimal import localcontext

    with localcontext(_exact_context()):
        return eval_fast(rec, n, _DECIMAL) - below


def schreier_zeckendorf_count(alpha: int, beta: int, n: int) -> BigCount:
    """Number of subsets of {1..n} that are alpha-Schreier and
    beta-Zeckendorf, without enumerating: condition_count of
    Condition(alpha=alpha, beta=beta)."""
    for name, value in (("alpha", alpha), ("beta", beta), ("n", n)):
        _need_int(name, value, 1)
    return condition_count(n, Condition(alpha=alpha, beta=beta))


def tail_recurrence_of(family: str, **params: int) -> LinearRecurrence:
    """Catalog recurrence of "fibonacci", "schreier-zeckendorf" (alpha,
    beta >= 1) or "genfib" (n >= 2), read from the family's generating
    function in FAMILIES: its denominator 1 - x - x^k, and its series at
    valid_from .. valid_from + k - 1 as the initials, valid_from = alpha for
    the Schreier-Zeckendorf counts (past their linear head) and 0 otherwise.
    Every index >= valid_from + k satisfies the relation.
    """
    if family not in ("fibonacci", "schreier-zeckendorf", "genfib"):
        raise ValueError(f"known families: fibonacci, schreier-zeckendorf, genfib; got {family!r}")
    gf = family_spec("fib" if family == "fibonacci" else family, **params)[2]
    return gf.recurrence(params.get("alpha", 0))
