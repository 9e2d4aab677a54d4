"""Minimal-recurrence discovery over exact rationals.

Berlekamp-Massey synthesis runs on fractions.Fraction, so recovered
coefficients are exact; no floating point is involved at any step. Prefixes
that are too short to pin down their own order are reported inconclusive
rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fasteval import LinearRecurrence
from .recurrences import schreier_zeckendorf_seq

if TYPE_CHECKING:
    from fractions import Fraction  # imported where used: it imports decimal

# A concluded order L must be backed by at least 2L + margin prefix terms.
BM_SAFETY_MARGIN = 2


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of a discovery run.

    found is None when the prefix was inconclusive (note says why);
    verified_upto is the last absolute index the relation was checked at,
    and minimal records that no shorter recurrence fits the same prefix.
    """

    found: LinearRecurrence | None
    verified_upto: int
    minimal: bool
    note: str = ""


def _inconclusive(start_index: int, note: str) -> RecurrenceReport:
    return RecurrenceReport(None, start_index - 1, False, note)


def _bm_connection(prefix: list) -> tuple[int, list[Fraction]]:
    # Classic Berlekamp-Massey over the rationals. Returns (L, C) with C[0] =
    # 1 and sum(C[j] * seq[i-j] for j in 0..L) == 0 for every L <= i <
    # len(seq), seq the prefix as Fractions.
    from fractions import Fraction

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
    return L, C


def _plain(value: Fraction):
    return int(value) if value.denominator == 1 else value


def berlekamp_massey(prefix, start_index: int = 0) -> RecurrenceReport:
    """Shortest linear recurrence consistent with the whole prefix.

    Coefficients come out as exact rationals, normalised to ints when
    integral. The report is inconclusive when the prefix is shorter than
    twice the candidate order plus a safety margin, or degenerate (all
    zeros, or eventually zero, where no fixed-order relation with nonzero
    trailing coefficient covers the data).
    """
    prefix = list(prefix)
    if len(prefix) < 2:
        raise ValueError("prefix must have at least 2 terms")
    if all(v == 0 for v in prefix):
        return _inconclusive(start_index, "all-zero prefix fits every recurrence")
    L, C = _bm_connection(prefix)
    if len(C) < L + 1:
        C = C + [0] * (L + 1 - len(C))
    coeffs = tuple(_plain(-C[j]) for j in range(1, L + 1))
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
    window = schreier_zeckendorf_seq(alpha, beta, tail_start + probe_len - 1)
    tail = [window.term(i) for i in range(tail_start, window.last_index + 1)]
    return berlekamp_massey(tail, start_index=tail_start)
