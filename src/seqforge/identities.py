"""Machine verification of sequence identities and the counting bijection,
and the exact decimal rendering of rationals that reports them.

All pass/fail decisions compare exact integers or exact rationals; decimal
strings are produced only for rendering, never for comparison.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from itertools import islice

from .recurrences import FAMILIES, _series
from .subsets import (
    DEFAULT_ENUM_LIMIT,
    GAP_ALL_ODD,
    Condition,
    Subset,
    _Value,
    check_enum_limit,
    count_subsets,
    enumerate_subsets,
    is_alpha_schreier,
    is_beta_zeckendorf,
)

class IdentityReport(_Value):
    """Result of sweeping one identity over an index interval.

    first_counterexample is (index, lhs, rhs) for the earliest mismatch;
    passed is true exactly when it is absent.
    """

    __slots__ = __match_args__ = ("identity_id", "range_checked", "passed", "first_counterexample")

    def __init__(
        self,
        identity_id: str,
        range_checked: tuple[int, int],
        passed: bool,
        first_counterexample: tuple | None = None,
    ) -> None:
        if passed != (first_counterexample is None):
            raise ValueError("passed must mirror the absence of a counterexample")
        object.__setattr__(self, "identity_id", identity_id)
        object.__setattr__(self, "range_checked", range_checked)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "first_counterexample", first_counterexample)


def scan_identity(
    identity_id: str, bounds: tuple[int, int], triples: Iterable[tuple]
) -> IdentityReport:
    """Fold (index, lhs, rhs) triples into a report, stopping at the first
    mismatch."""
    for index, lhs, rhs in triples:
        if lhs != rhs:
            return IdentityReport(identity_id, bounds, False, (index, lhs, rhs))
    return IdentityReport(identity_id, bounds, True)


def decimal_string(value: Fraction | int, sig_digits: int = 12) -> str:
    """Plain decimal rendering of an exact rational, never scientific.

    Rounds half away from zero at sig_digits significant digits and trims
    trailing fractional zeros, so the text is a faithful prefix of the value.
    """
    if sig_digits < 1:
        raise ValueError(f"sig_digits must be >= 1, got {sig_digits}")
    from fractions import Fraction

    value = Fraction(value)
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    # Near floor(log10(num/den)) from the bit lengths (log10(2) is about
    # 0.30103), then corrected; str() of a big num or den would hit the
    # interpreter's digit cap.
    exp = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while _cmp_pow10(num, den, exp) < 0:
        exp -= 1
    while _cmp_pow10(num, den, exp + 1) >= 0:
        exp += 1
    shift = sig_digits - 1 - exp
    if shift >= 0:
        q, r = divmod(num * 10**shift, den)
    else:
        q, r = divmod(num, den * 10**-shift)
        r = Fraction(r, 10**-shift)
    if 2 * r >= den:
        q += 1
    digits = str(q)
    if len(digits) > sig_digits:  # rounding carried into a new leading digit
        digits = digits[:-1]
        exp += 1
    if exp >= 0:
        whole = digits[: exp + 1].ljust(exp + 1, "0")
        frac = digits[exp + 1:].rstrip("0")
        return sign + whole + ("." + frac if frac else "")
    frac = ("0" * (-exp - 1) + digits).rstrip("0")
    return sign + "0." + (frac if frac else "0")


def _cmp_pow10(num: int, den: int, exp: int) -> int:
    # sign of num/den - 10**exp without leaving the integers
    lhs, rhs = (num, den * 10**exp) if exp >= 0 else (num * 10**-exp, den)
    return (lhs > rhs) - (lhs < rhs)


def check_fib_h(n_max: int) -> IdentityReport:
    """Fibonacci shifted four ahead equals the twice-accumulated sequence
    plus n + 3, exactly, for n = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    fib, acc = _series(*FAMILIES["fib"].gf()), _series(*FAMILIES["H"].gf())
    triples = (
        (n, f, h + n + 3) for n, f, h in zip(range(n_max + 1), islice(fib, 4, None), acc)
    )
    return scan_identity("fib-h", (0, n_max), triples)


def check_gen_sum(n: int, k_max: int) -> IdentityReport:
    """Front sums of the order-n family telescope: the sum of terms 0..k+1
    equals term k+1+n minus one, for k = 0..k_max."""
    if not 2 <= n < sys.maxsize:  # islice reads no term past sys.maxsize
        raise ValueError(f"n must be >= 2 and < {sys.maxsize}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    sums, terms = _series(*FAMILIES["genk"].gf(n)), _series(*FAMILIES["genfib"].gf(n))
    triples = (
        (k, s, t - 1)
        for k, s, t in zip(range(k_max + 1), islice(sums, 1, None), islice(terms, n + 1, None))
    )
    return scan_identity(f"gen-sum[n={n}]", (0, k_max), triples)


def check_gen_shift(n: int, m_max: int) -> IdentityReport:
    """The order-n family shifted 2n ahead equals its twice-accumulated
    form plus m + (n + 1), for m = 0..m_max."""
    if not 2 <= n <= sys.maxsize // 2:  # islice reads no term past sys.maxsize
        raise ValueError(f"n must be >= 2 and <= {sys.maxsize // 2}")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    terms, acc = _series(*FAMILIES["genfib"].gf(n)), _series(*FAMILIES["genh"].gf(n))
    triples = (
        (m, t, h + m + n + 1)
        for m, t, h in zip(range(m_max + 1), islice(terms, 2 * n, None), acc)
    )
    return scan_identity(f"gen-shift[n={n}]", (0, m_max), triples)


def check_odd_gap_h(
    n_max_oracle: int, n_max_gf: int, limit: int = DEFAULT_ENUM_LIMIT
) -> IdentityReport:
    """Subsets of {1..n} with >= 2 elements and all-odd gaps are counted by
    the twice-accumulated Fibonacci value at n - 1.

    The exhaustive oracle carries the check to n_max_oracle; the series of
    the condition's generating function carries it to n_max_gf.
    """
    if n_max_oracle < 1 or n_max_gf < 1:
        raise ValueError("ranges must be >= 1")
    check_enum_limit(n_max_oracle, limit)
    cond = Condition(gap_parity=GAP_ALL_ODD, min_size=2)

    def triples():
        oracle = (count_subsets(n, cond, limit) for n in range(1, n_max_oracle + 1))
        yield from zip(range(1, n_max_oracle + 1), oracle, _series(*FAMILIES["H"].gf()))
        series = islice(_series(*FAMILIES["minsize-oddgap"].gf(2)), 1, None)
        yield from zip(range(1, n_max_gf + 1), series, _series(*FAMILIES["H"].gf()))

    return scan_identity("oddgap-h", (1, max(n_max_oracle, n_max_gf)), triples())


def _require_member(s: Subset, alpha: int, beta: int, role: str) -> None:
    if not is_alpha_schreier(s, alpha):
        raise ValueError(f"{role} must be {alpha}-Schreier: {s.elements}")
    if not is_beta_zeckendorf(s, beta):
        raise ValueError(f"{role} must be {beta}-Zeckendorf: {s.elements}")


def drop_max_shift_down(s: Subset, n: int, alpha: int, beta: int) -> Subset:
    """Forward half of the counting bijection: remove the maximum n, then
    shift everything down by alpha.

    Input must satisfy both predicates and contain n as its maximum; the
    image satisfies both predicates inside {1 .. n-(alpha+beta)}.
    """
    if s.maximum != n:
        raise ValueError(f"subset must have maximum exactly n={n}: {s.elements}")
    _require_member(s, alpha, beta, "input")
    return Subset(e - alpha for e in s.elements[:-1])


def shift_up_adjoin_max(s: Subset, n: int, alpha: int, beta: int) -> Subset:
    """Inverse half of the counting bijection: shift up by alpha and adjoin
    n as the new maximum.

    Input must satisfy both predicates inside {1 .. n-(alpha+beta)}; the
    image satisfies both predicates and has maximum exactly n.
    """
    bound = n - (alpha + beta)
    if s.elements and s.elements[-1] > bound:
        raise ValueError(
            f"subset must live in {{1..{bound}}} for n={n}: {s.elements}"
        )
    _require_member(s, alpha, beta, "input")
    return Subset(tuple(e + alpha for e in s.elements) + (n,))


def check_bijection_round_trip(
    alpha: int, beta: int, n_max: int, limit: int = DEFAULT_ENUM_LIMIT
) -> IdentityReport:
    """Round-trip both bijection halves over every enumerated family member
    and compare family sizes, for each ambient n up to n_max.

    Per n, two triples are scanned: (n, failures, 0) counting members that
    fail to round-trip or whose image leaves the target family, and
    (n, |with max n|, |shrunken ambient|) for equinumerosity.
    """
    lag = alpha + beta
    if n_max < lag:
        raise ValueError(f"n_max must be >= alpha + beta = {lag}, got {n_max}")
    check_enum_limit(n_max, limit)

    def triples():
        for n in range(lag, n_max + 1):
            with_max = list(
                enumerate_subsets(
                    n, Condition(alpha=alpha, beta=beta, forced_max=n), limit
                )
            )
            shrunken = list(
                enumerate_subsets(n - lag, Condition(alpha=alpha, beta=beta), limit)
            )
            failures = 0
            for s in with_max:
                image = drop_max_shift_down(s, n, alpha, beta)
                if not (
                    is_alpha_schreier(image, alpha)
                    and is_beta_zeckendorf(image, beta)
                    and (image.maximum or 0) <= n - lag
                    and shift_up_adjoin_max(image, n, alpha, beta) == s
                ):
                    failures += 1
            for s in shrunken:
                image = shift_up_adjoin_max(s, n, alpha, beta)
                if not (
                    image.maximum == n
                    and is_alpha_schreier(image, alpha)
                    and is_beta_zeckendorf(image, beta)
                    and drop_max_shift_down(image, n, alpha, beta) == s
                ):
                    failures += 1
            yield (n, failures, 0)
            yield (n, len(with_max), len(shrunken))

    return scan_identity(
        f"bijection[alpha={alpha},beta={beta}]", (lag, n_max), triples()
    )
