"""Machine verification of sequence identities and of the counting
bijection, and the exact decimal rendering of rationals that reports them.
The bijection is checked by mapping each family the oracle enumerates
through one half and comparing the images with the other family, as
enumerated, list against list; a subset is the sorted tuple of its
elements, as the oracle yields it.

All pass/fail decisions compare exact integers or exact rationals; decimal
strings are produced only for rendering, never for comparison.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain, count, islice
from operator import add, ne

from .recurrences import FAMILIES, family_spec
from .subsets import (
    DEFAULT_ENUM_LIMIT,
    GAP_ALL_ODD,
    Condition,
    _Value,
    _counts_by_max,
    _counts_upto,
    _need_int,
    _passes,
    enumerate_subsets,
)

class IdentityReport(_Value):
    """Result of sweeping one identity over an index interval.

    first_counterexample is (index, lhs, rhs) for the earliest mismatch, or
    None; the report passed exactly when it is None.
    """

    __slots__ = __match_args__ = ("identity_id", "range_checked", "first_counterexample")

    def __init__(
        self, identity_id: str, range_checked: tuple[int, int], first_counterexample: tuple | None = None
    ) -> None:
        self._set(identity_id, range_checked, first_counterexample)

    @property
    def passed(self) -> bool:
        return self.first_counterexample is None


def scan_identity(
    identity_id: str, bounds: tuple[int, int], triples: Iterable[tuple]
) -> IdentityReport:
    """Fold (index, lhs, rhs) triples into a report, stopping at the first
    mismatch."""
    for index, lhs, rhs in triples:
        if lhs != rhs:
            return IdentityReport(identity_id, bounds, (index, lhs, rhs))
    return IdentityReport(identity_id, bounds)


def decimal_string(value: Fraction | int, sig_digits: int = 12) -> str:
    """Plain decimal rendering of an exact rational, never scientific.

    Rounds half away from zero at sig_digits significant digits and trims
    trailing fractional zeros, so the text is a faithful prefix of the value.
    """
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context
    from fractions import Fraction

    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"value must be an int or a Fraction, got {type(value).__name__}")
    _need_int("sig_digits", sig_digits, 1)
    value = Fraction(value)
    if value == 0:
        return "0"
    num, den = abs(value.numerator), value.denominator
    # 2^(d-1) < |v| < 2^(d+1) for d the difference of bit lengths, and a
    # 20-digit log10 2 misses d log10 2 by under 0.04 for any |d| < 2^63,
    # so e is within one of floor(log10 |v|), found without str() of num
    # or den (the interpreter caps its digits). q = floor(|v| 10^shift)
    # then keeps one to three digits past the last one kept, so the
    # fraction it drops cannot lift a dropped part to half a unit or more.
    e = (num.bit_length() - den.bit_length()) * 30102999566398119521 // 10**20
    shift = sig_digits + 1 - e
    q = num * 10**shift // den if shift >= 0 else num // (den * 10**-shift)
    ctx = Context(prec=sig_digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    rounded = ctx.create_decimal(q).scaleb(-shift, ctx).normalize(ctx)
    return ("-" if value < 0 else "") + f"{rounded:f}"


# The series identities by report id. A row (lhs, rhs, c, d) states that
# lhs = rhs + c + d*i at each index i checked; a side is a FAMILIES row,
# its params and the index it is read from at the first i. The row of
# oddgap-h is its generating-function half. A side of order n holds about n
# terms while the sweep reads it, so no side is read from past index
# MAX_SIDE_INDEX: gen-sum reads genfib from n + 1 and gen-shift from 2n.
MAX_SIDE_INDEX = 2 * 10**6
_SERIES = {
    "gen-sum": lambda n: (("genk", {"n": n}, 1), ("genfib", {"n": n}, n + 1), -1, 0),
    "gen-shift": lambda n: (("genfib", {"n": n}, 2 * n), ("genh", {"n": n}, 0), n + 1, 1),
    "oddgap-h": lambda: (("minsize-oddgap", {"k": 2}, 1), ("H", {}, 0), 0, 0),
}


def _sweep(row: tuple, name: str, last: int, start: int = 0) -> Iterator[tuple]:
    # (i, lhs, rhs + c + d*i) for i = start..last, all checked before a term
    # is read: each side's params by family_spec, against its row's bounds.
    lhs, rhs, c, d = row
    streams = []
    for family, params, first in (lhs, rhs):
        series, _, gf = family_spec(family, **params)
        if first > MAX_SIDE_INDEX:
            raise ValueError(f"index {first} of {series} is past {MAX_SIDE_INDEX}")
        streams.append(islice(gf.series(), first, None))
    _need_int(name, last, start)
    return zip(range(start, last + 1), streams[0], map(add, streams[1], count(c + d * start, d)))


def check_fib_h(n_max: int) -> IdentityReport:
    """Fibonacci shifted four ahead equals the twice-accumulated sequence
    plus n + 3, exactly, for n = 0..n_max: gen-shift at order 2, where
    genfib and genh are fib and H."""
    return scan_identity("fib-h", (0, n_max), _sweep(_SERIES["gen-shift"](2), "n_max", n_max))


def check_gen_sum(n: int, k_max: int) -> IdentityReport:
    """Front sums of the order-n family telescope: the sum of terms 0..k+1
    equals term k+1+n minus one, for k = 0..k_max."""
    _need_int("n", n)  # before the row reads n + 1
    triples = _sweep(_SERIES["gen-sum"](n), "k_max", k_max)
    return scan_identity(f"gen-sum[n={n}]", (0, k_max), triples)


def check_gen_shift(n: int, m_max: int) -> IdentityReport:
    """The order-n family shifted 2n ahead equals its twice-accumulated
    form plus m + (n + 1), for m = 0..m_max."""
    _need_int("n", n)  # before the row reads 2n
    triples = _sweep(_SERIES["gen-shift"](n), "m_max", m_max)
    return scan_identity(f"gen-shift[n={n}]", (0, m_max), triples)


def check_odd_gap_h(
    n_max_oracle: int, n_max_gf: int, limit: int = DEFAULT_ENUM_LIMIT
) -> IdentityReport:
    """Subsets of {1..n} with >= 2 elements and all-odd gaps are counted by
    the twice-accumulated Fibonacci value at n - 1.

    The exhaustive oracle carries the check to n_max_oracle, every n from
    one search of {1..n_max_oracle}; the series of the condition's
    generating function carries it to n_max_gf.
    """
    _need_int("n_max_oracle", n_max_oracle, 1)
    gf_half = _sweep(_SERIES["oddgap-h"](), "n_max_gf", n_max_gf, 1)
    oracle = _counts_upto(n_max_oracle, Condition(gap_parity=GAP_ALL_ODD, min_size=2), limit)
    oracle_half = zip(range(1, n_max_oracle + 1), oracle[1:], FAMILIES["H"].gf().series())
    return scan_identity("oddgap-h", (1, max(n_max_oracle, n_max_gf)), chain(oracle_half, gf_half))


# Every caller checks alpha and beta with _need_int first: the cache would
# raise a TypeError on an unhashable one, and take a bool for the equal int.
@lru_cache(maxsize=16)
def _family(alpha: int, beta: int) -> Condition:
    return Condition(alpha=alpha, beta=beta)


def _require_subset(s: tuple[int, ...]) -> None:
    # A subset as the halves take it: the sorted tuple of its elements, ints
    # >= 1 and strictly increasing, as enumerate_subsets yields them.
    prev = 0
    for e in s:
        if type(e) is not int:
            _need_int("subset element", e)
        if e <= prev:
            raise ValueError(f"subset elements must be >= 1 and strictly increasing: {s}")
        prev = e


def _require_member(s: tuple[int, ...], alpha: int, beta: int, role: str) -> None:
    if not _passes(s, _family(alpha, beta)):
        raise ValueError(f"{role} must be {alpha}-Schreier and {beta}-Zeckendorf: {s}")


def drop_max_shift_down(s: tuple[int, ...], n: int, alpha: int, beta: int) -> tuple[int, ...]:
    """Forward half of the counting bijection: remove the maximum n, then
    shift everything down by alpha.

    s is a subset as a sorted tuple. Input must satisfy both predicates and
    contain n as its maximum; the image satisfies both predicates inside
    {1 .. n-(alpha+beta)}.
    """
    for name, value in (("n", n), ("alpha", alpha), ("beta", beta)):
        _need_int(name, value)
    _require_subset(s)
    if not s or s[-1] != n:
        raise ValueError(f"subset must have maximum exactly n={n}: {s}")
    _require_member(s, alpha, beta, "input")
    return tuple([e - alpha for e in s[:-1]])


def shift_up_adjoin_max(s: tuple[int, ...], n: int, alpha: int, beta: int) -> tuple[int, ...]:
    """Inverse half of the counting bijection: shift up by alpha and adjoin
    n as the new maximum.

    s is a subset as a sorted tuple. Input must satisfy both predicates
    inside {1 .. n-(alpha+beta)}; the image satisfies both predicates and
    has maximum exactly n.
    """
    for name, value in (("n", n), ("alpha", alpha), ("beta", beta)):
        _need_int(name, value)  # before n - (alpha + beta) is read
    _require_subset(s)
    bound = n - (alpha + beta)
    if s and s[-1] > bound:
        raise ValueError(f"subset must live in {{1..{bound}}} for n={n}: {s}")
    _require_member(s, alpha, beta, "input")
    return tuple([e + alpha for e in s]) + (n,)


def _image(
    half: Callable[[tuple, int, int, int], tuple], s: tuple, n: int, alpha: int, beta: int
) -> tuple | None:
    # A half that refuses a member of the family it maps has no image there:
    # a mismatch at n, not a usage error.
    try:
        return half(s, n, alpha, beta)
    except ValueError:
        return None


def check_bijection_round_trip(
    alpha: int, beta: int, n_max: int, limit: int = DEFAULT_ENUM_LIMIT
) -> IdentityReport:
    """Map each family by its bijection half and compare the images with the
    other family as enumerated, for each ambient n up to n_max.

    Per n, two triples are scanned: (n, mismatches, 0) counting the places
    where the forward images of the members with maximum n differ from the
    enumerated shrunken family, plus those where the inverse images of the
    shrunken family differ from the members with maximum n (a member that
    a half refuses with a ValueError is such a place); and
    (n, |with max n|, |shrunken ambient|) for equinumerosity.

    Both families of every n come from one search of {1..n_max}, so the
    check costs what its largest n does.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("n_max", n_max)):
        _need_int(name, value)
    family = _family(alpha, beta)
    lag = alpha + beta
    if n_max < lag:
        raise ValueError(f"n_max must be >= alpha + beta = {lag}, got {n_max}")
    members = list(enumerate_subsets(n_max, family, limit))

    def triples():
        # Whether a set is in the family does not depend on n, and the
        # search yields in characteristic-vector order, which sorts by
        # maximum. So the family of {1..m} is the first ends[m] members,
        # and the members with maximum n run from ends[n - 1] to ends[n].
        ends = _counts_by_max(members, n_max)
        for n in range(lag, n_max + 1):
            with_max = members[ends[n - 1] : ends[n]]
            shrunken = members[: ends[n - lag]]
            # Each element below the maximum of an alpha-Schreier set of two
            # or more is >= 2 alpha > alpha, so dropping n and shifting down
            # by alpha keeps characteristic-vector order. Equal lists then
            # mean that each half maps one family onto the other, whose
            # members the walk judged on every clause as it enumerated them,
            # and that the halves are inverses.
            down = [_image(drop_max_shift_down, s, n, alpha, beta) for s in with_max]
            up = [_image(shift_up_adjoin_max, t, n, alpha, beta) for t in shrunken]
            mismatches = sum(map(ne, down, shrunken)) + sum(map(ne, up, with_max))
            yield (n, mismatches, 0)
            yield (n, len(with_max), len(shrunken))

    return scan_identity(f"bijection[alpha={alpha},beta={beta}]", (lag, n_max), triples())
