"""Minimal-recurrence discovery over exact rationals.

Berlekamp-Massey runs fraction-free on ints (Bareiss-style), O(N*L) big-int
operations for N terms of order L, and forms a Fraction only for a
coefficient that is not integral. Terms must be ints or Fractions, so no
floating point is involved at any step. Prefixes that are too short to pin
down their own order are reported inconclusive rather than guessed at.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from operator import mul

from .fasteval import LinearRecurrence, _check_rational
from .recurrences import schreier_zeckendorf_seq
from .subsets import _Value

# A concluded order L must be backed by at least 2L + margin prefix terms.
BM_SAFETY_MARGIN = 2


class RecurrenceReport(_Value):
    """Outcome of a discovery run.

    found is None when the prefix was inconclusive (note says why);
    verified_upto is the last absolute index the relation was checked at,
    and minimal records that no shorter recurrence fits the same prefix.
    """

    __slots__ = __match_args__ = ("found", "verified_upto", "minimal", "note")

    def __init__(
        self, found: LinearRecurrence | None, verified_upto: int, minimal: bool, note: str = ""
    ) -> None:
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "verified_upto", verified_upto)
        object.__setattr__(self, "minimal", minimal)
        object.__setattr__(self, "note", note)


def _inconclusive(start_index: int, note: str) -> RecurrenceReport:
    return RecurrenceReport(None, start_index - 1, False, note)


def _bm_connection(prefix: list) -> tuple[int, list[int | Fraction]]:
    # Massey's synthesis over ints. Returns (L, C) with len(C) == L + 1,
    # C[0] == 1 and sum(C[j] * prefix[i-j] for j in 0..L) == 0 for every
    # L <= i < len(prefix); C[j] is an int when integral. The int list C
    # stands for C / C[0] (so D for D / C[0]), and G / g for the previous
    # C over its discrepancy. g starts at the prefix's scale, which keeps
    # every C what it would be on the prefix itself.
    scale = lcm(*(v.denominator for v in prefix))
    seq = [v.numerator * (scale // v.denominator) for v in prefix]
    C, G, g = [1], [1], scale
    L, m = 0, 1
    for i in range(len(seq)):
        D = sum(map(mul, reversed(C), seq[i - L : i + 1]))
        if D == 0:
            m += 1
            continue
        new = [g * c for c in C] + [0] * (len(G) + m - len(C))
        for j, c in enumerate(G, m):
            new[j] -= D * c
        if 2 * L <= i:
            # C is primitive, so gcd(D, *C) == 1: G / g needs no reduction.
            L, G, g, m = i + 1 - L, C, D, 1
        else:
            m += 1
        k = gcd(*new)  # new has length L + 1, as deg G + m <= L
        C = [c // k for c in new]
    if any(c % C[0] for c in C):
        from fractions import Fraction
    return L, [Fraction(c, C[0]) if c % C[0] else c // C[0] for c in C]


def berlekamp_massey(prefix, start_index: int = 0) -> RecurrenceReport:
    """Shortest linear recurrence consistent with the whole prefix.

    Every term must be an exact rational (an int or a Fraction; anything
    else is a ValueError). Coefficients come out as exact rationals,
    normalised to ints when integral. The report is inconclusive when the
    prefix is shorter than twice the candidate order plus a safety margin,
    or degenerate (all zeros, or eventually zero, where no fixed-order
    relation with nonzero trailing coefficient covers the data).
    """
    prefix = list(prefix)
    if len(prefix) < 2:
        raise ValueError("prefix must have at least 2 terms")
    _check_rational(prefix, "prefix term")
    if all(v == 0 for v in prefix):
        return _inconclusive(start_index, "all-zero prefix fits every recurrence")
    L, C = _bm_connection(prefix)
    coeffs = tuple(-c for c in C[1:])
    if coeffs and coeffs[-1] == 0:
        return _inconclusive(
            start_index,
            f"minimal relation of order {L} has a zero trailing coefficient "
            "(prefix is eventually degenerate)",
        )
    if len(prefix) < 2 * L + BM_SAFETY_MARGIN:
        return _inconclusive(
            start_index,
            f"prefix of {len(prefix)} terms is too short to trust order {L} "
            f"(need {2 * L + BM_SAFETY_MARGIN})",
        )
    rec = LinearRecurrence(
        coeffs=coeffs, initials=tuple(prefix[:L]), valid_from=start_index
    )
    if verify_recurrence(rec, prefix, start_index) is not True:
        raise AssertionError("synthesised recurrence failed re-verification")
    return RecurrenceReport(rec, start_index + len(prefix) - 1, True)


def verify_recurrence(
    rec: LinearRecurrence, prefix, start_index: int | None = None
) -> bool | None:
    """Check the relation over a prefix of terms.

    The prefix is indexed from start_index (default: the recurrence's own
    valid_from); the relation is required from valid_from + order on, at
    every index whose lags the prefix covers. Returns True/False, or None
    when the prefix is too short to test anything.
    """
    prefix = list(prefix)
    start = rec.valid_from if start_index is None else start_index
    k = rec.order
    first = max(rec.valid_from + k, start + k)
    last = start + len(prefix) - 1
    if first > last:
        return None
    for idx in range(first, last + 1):
        i = idx - start
        acc = 0
        for t, c in enumerate(rec.coeffs, start=1):
            acc += c * prefix[i - t]
        if prefix[i] != acc:
            return False
    return True


def discover_order(alpha: int, beta: int, probe_len: int) -> RecurrenceReport:
    """Recover the recurrence order of the Schreier-Zeckendorf counting
    family empirically, from the homogeneous tail of its sequence.

    The probe starts at index 2*alpha + beta, past the piecewise-linear
    head, so the head cannot inflate the recovered order. A probe shorter
    than 4*(alpha+beta) is refused as inconclusive: minimality claims need
    slack beyond the bare synthesis requirement.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    if probe_len < 1:
        raise ValueError("probe_len must be >= 1")
    tail_start = 2 * alpha + beta
    if probe_len < 4 * (alpha + beta):
        return _inconclusive(
            tail_start,
            f"probe of {probe_len} terms is too short "
            f"(need at least {4 * (alpha + beta)})",
        )
    last = tail_start + probe_len - 1
    if last >= sys.maxsize:  # the window's last index, as islice stops there
        raise ValueError(f"2*alpha + beta + probe_len - 1 = {last} must be < {sys.maxsize}")
    window = schreier_zeckendorf_seq(alpha, beta, last)
    return berlekamp_massey(window.terms[tail_start - window.offset:], start_index=tail_start)
