"""Fast evaluation of homogeneous linear recurrences with constant
coefficients, exact or modular.

The default fast path raises x to the n-th power modulo the characteristic
polynomial by square-and-shift: one symmetric squaring (k(k+1)/2
coefficient products) per bit of n, a reduction that visits only the
nonzero recurrence coefficients, and a shift for each 1-bit. A
companion-matrix power is kept behind a switch as an independent second
implementation for differential testing. No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .subsets import BigCount


@dataclass(frozen=True)
class LinearRecurrence:
    """a(n) = sum(coeffs[i-1] * a(n-i) for i in 1..order), for every index
    n >= valid_from + order; initials[j] is the value at valid_from + j.

    The trailing coefficient must be nonzero, so the stored order is the
    true order of the representation. Coefficients are normally ints;
    exact rationals are accepted (discovery can produce them) but modular
    evaluation then refuses to run.
    """

    coeffs: tuple
    initials: tuple
    valid_from: int = 0

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        initials = tuple(self.initials)
        if not coeffs:
            raise ValueError("recurrence needs at least one coefficient")
        if len(initials) != len(coeffs):
            raise ValueError(
                f"{len(coeffs)} coefficients need {len(coeffs)} initial terms, "
                f"got {len(initials)}"
            )
        if coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (minimal-order form)")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "initials", initials)

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class EvalMode:
    """Exact big-integer arithmetic when modulus is None, else mod modulus."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2 when present")

    def reduce(self, value: int) -> int:
        return value if self.modulus is None else value % self.modulus


EXACT = EvalMode()


def _prepared(rec: LinearRecurrence, n: int, mode: EvalMode):
    j = n - rec.valid_from
    if j < 0:
        raise ValueError(
            f"index {n} is below the recurrence's first valid index {rec.valid_from}"
        )
    if mode.modulus is not None and not all(isinstance(c, int) for c in rec.coeffs):
        raise ValueError("modular evaluation requires integer coefficients")
    coeffs = [mode.reduce(c) if isinstance(c, int) else c for c in rec.coeffs]
    initials = [mode.reduce(v) if isinstance(v, int) else v for v in rec.initials]
    return j, coeffs, initials


def eval_iterative(rec: LinearRecurrence, n: int, mode: EvalMode = EXACT) -> BigCount:
    """Term at absolute index n by straight linear iteration."""
    j, coeffs, window = _prepared(rec, n, mode)
    k = rec.order
    if j < k:
        return window[j]
    for _ in range(k, j + 1):
        nxt = 0
        for i, c in enumerate(coeffs):
            nxt += c * window[k - 1 - i]
        nxt = mode.reduce(nxt)
        window.pop(0)
        window.append(nxt)
    return window[-1]


def _eval_poly(j: int, coeffs: list, initials: list, mode: EvalMode) -> BigCount:
    # x^j modulo the characteristic polynomial, by square-and-shift over the
    # bits of j from the top; the term is then sum(q_i * initials[i]) over
    # the coefficients q_i of the remainder.
    k = len(coeffs)
    modulus = mode.modulus
    taps = [(i, c) for i, c in enumerate(coeffs, start=1) if c]
    # Degree d of a square is 2 * sum(a_i * a_(d-i) for lo <= i < half),
    # plus a_(d/2)^2 for even d: k(k+1)/2 coefficient products in all. The
    # partners a_(d-i) are read forward from the reversed list.
    slices = []
    for d in range(2 * k - 1):
        lo, half, off = max(0, d - k + 1), (d + 1) // 2, k - 1 - d
        slices.append((lo, half, lo + off, half + off))
    result = [1] + [0] * (k - 1)  # x^0
    for bit in bin(j)[2:]:
        rev = result[::-1]
        prod = [2 * sum(map(mul, result[lo:hi], rev[rlo:rhi])) for lo, hi, rlo, rhi in slices]
        for i, v in enumerate(result):
            prod[2 * i] += v * v
        if bit == "1":
            prod.insert(0, 0)  # times x
        # Fold each degree >= k down with x^k = c_1 x^(k-1) + ... + c_k,
        # visiting only the nonzero coefficients.
        for d in range(len(prod) - 1, k - 1, -1):
            top = prod.pop()
            if modulus is not None:
                top %= modulus
            if top:
                for i, c in taps:
                    prod[d - i] += c * top
        result = prod if modulus is None else [v % modulus for v in prod]
    return mode.reduce(sum(map(mul, result, initials)))


def _mat_mul(a: list, b: list, mode: EvalMode) -> list:
    k = len(a)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        row = a[i]
        for t in range(k):
            x = row[t]
            if x == 0:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(k):
                oi[j] += x * bt[j]
        if mode.modulus is not None:
            out[i] = [v % mode.modulus for v in out[i]]
    return out


def _eval_matrix(j: int, coeffs: list, initials: list, mode: EvalMode) -> BigCount:
    k = len(coeffs)
    # Companion matrix sends (a_{t+k-1}, ..., a_t) to (a_{t+k}, ..., a_{t+1}).
    mat = [list(coeffs)] + [
        [1 if c == r - 1 else 0 for c in range(k)] for r in range(1, k)
    ]
    power = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    e = j - (k - 1)
    while e:
        if e & 1:
            power = _mat_mul(power, mat, mode)
        e >>= 1
        if e:
            mat = _mat_mul(mat, mat, mode)
    state = list(reversed(initials))  # (a_{k-1}, ..., a_0)
    total = 0
    for c, a in zip(power[0], state):
        total += c * a
    return mode.reduce(total)


def eval_fast(
    rec: LinearRecurrence, n: int, mode: EvalMode = EXACT, method: str = "poly"
) -> BigCount:
    """Term at absolute index n in O(order^2 log n) coefficient operations.

    Agrees with eval_iterative on every input; method="matrix" selects the
    companion-matrix implementation instead of polynomial powering.
    """
    if method not in ("poly", "matrix"):
        raise ValueError('method must be "poly" or "matrix"')
    j, coeffs, initials = _prepared(rec, n, mode)
    k = rec.order
    if j < k:
        return initials[j]
    if method == "poly":
        return _eval_poly(j, coeffs, initials, mode)
    return _eval_matrix(j, coeffs, initials, mode)


FAMILY_FIBONACCI = "fibonacci"
FAMILY_SCHREIER_ZECKENDORF = "schreier-zeckendorf"
FAMILY_GENFIB = "genfib"
TAIL_FAMILIES = (FAMILY_FIBONACCI, FAMILY_SCHREIER_ZECKENDORF, FAMILY_GENFIB)


def tail_recurrence_of(
    family: str,
    *,
    alpha: int | None = None,
    beta: int | None = None,
    n: int | None = None,
) -> LinearRecurrence:
    """Catalog recurrence for a named family, with initials placed so that
    every index >= valid_from + order genuinely satisfies the relation.

    For the Schreier-Zeckendorf counting family the order is alpha + beta
    and the initials are the linear-branch values n - alpha + 2 at indices
    alpha .. 2*alpha + beta - 1.
    """
    if family == FAMILY_FIBONACCI:
        return LinearRecurrence(coeffs=(1, 1), initials=(0, 1), valid_from=0)
    if family == FAMILY_SCHREIER_ZECKENDORF:
        if alpha is None or beta is None or alpha < 1 or beta < 1:
            raise ValueError("schreier-zeckendorf needs alpha >= 1 and beta >= 1")
        order = alpha + beta
        coeffs = tuple(1 if i in (1, order) else 0 for i in range(1, order + 1))
        initials = tuple(i - alpha + 2 for i in range(alpha, 2 * alpha + beta))
        return LinearRecurrence(coeffs=coeffs, initials=initials, valid_from=alpha)
    if family == FAMILY_GENFIB:
        if n is None or n < 2:
            raise ValueError("genfib needs n >= 2")
        coeffs = tuple(1 if i in (1, n) else 0 for i in range(1, n + 1))
        initials = (0,) + (1,) * (n - 1)
        return LinearRecurrence(coeffs=coeffs, initials=initials, valid_from=0)
    raise ValueError(f"unknown family {family!r}; known: {', '.join(TAIL_FAMILIES)}")


def schreier_zeckendorf_count(alpha: int, beta: int, n: int) -> BigCount:
    """Count for a single ambient n without enumerating: branch formulas for
    small n, fast recurrence evaluation beyond."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= alpha - 1:
        return 1
    if n <= 2 * alpha + beta - 1:
        return n - alpha + 2
    rec = tail_recurrence_of(FAMILY_SCHREIER_ZECKENDORF, alpha=alpha, beta=beta)
    return eval_fast(rec, n)
