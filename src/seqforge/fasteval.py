"""Fast evaluation of homogeneous linear recurrences with constant
coefficients, exact or modular.

The default fast path raises x to the n-th power modulo the characteristic
polynomial by square-and-shift: one squaring per bit of n, a fold of the
high half back below degree k, and a shift for each 1-bit.

- Exact Fractions, exact ints below the Toom cutover, and residues mod p at
  orders 1 and 2 square by k(k+1)/2 coefficient products and fold by a
  loop over the nonzero recurrence coefficients only.
- Exact ints at order 3 and up, once the widest coefficient has
  max(2048, 128k) bits, square by evaluation and interpolation
  (Toom-Cook): 2k - 1 big-int squares per bit, plus small-by-big products
  and exact divisions linear in the size of the numbers; the fold is the
  same loop.
- Exact int powers that the CLI will print wide may move to integral
  decimal.Decimals (the decimal carrier, below), whose big multiplies are
  libmpdec's number-theoretic transform; the squaring is the same.
- The last bit of an exact int power at orders 1 and 2, or past the Toom
  cutover, reads the term as a quadratic form in the first 2k terms: at
  most k squares of the widest coefficients, and no fold.
- Residues mod p at order 3 and up square as one big int: the k residues
  are packed into one int, W = ceil((2 bits(p) + bits(2k)) / 8) bytes a
  slot, so that CPython's own multiply does the product (Kronecker
  substitution). The high half folds by the same loop when at most
  max(2, k // 10) coefficients are nonzero mod p, else as one packed dot
  product with the rows x^(k+i) mod the characteristic polynomial, built
  once per call.

A companion-matrix power is kept behind a switch as an independent second
implementation for differential testing. No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import mod, mul

from .formats import STR_MAX_BITS
from .subsets import BigCount, _need_int, _Value


def _check_rational(values, what: str) -> None:
    # A ValueError names the first of values that is a bool, or not an int or a Fraction.
    from numbers import Rational

    for i, v in enumerate(values):
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, Rational)):
            raise ValueError(f"{what} {i} is a {type(v).__name__}, not an exact rational")


class LinearRecurrence(_Value):
    """a(n) = sum(coeffs[i-1] * a(n-i) for i in 1..order), for every index
    n >= valid_from + order; initials[j] is the value at valid_from + j.

    The trailing coefficient must be nonzero, so the stored order is the
    true order of the representation. Coefficients are normally ints;
    exact rationals are accepted (discovery can produce them) but modular
    evaluation then refuses to run. Anything else, a float or a Decimal,
    is a ValueError.
    """

    __slots__ = __match_args__ = ("coeffs", "initials", "valid_from")

    def __init__(self, coeffs: tuple, initials: tuple, valid_from: int = 0) -> None:
        coeffs = tuple(coeffs)
        initials = tuple(initials)
        _check_rational(coeffs, "coefficient")
        _check_rational(initials, "initial")
        if not coeffs:
            raise ValueError("recurrence needs at least one coefficient")
        if len(initials) != len(coeffs):
            raise ValueError(
                f"{len(coeffs)} coefficients need {len(coeffs)} initial terms, "
                f"got {len(initials)}"
            )
        if coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (minimal-order form)")
        _need_int("valid_from", valid_from)
        self._set(coeffs, initials, valid_from)

    @property
    def order(self) -> int:
        return len(self.coeffs)


class EvalMode(_Value):
    """Exact big-integer arithmetic when modulus is None, else mod modulus."""

    __slots__ = __match_args__ = ("modulus",)

    def __init__(self, modulus: int | None = None) -> None:
        if modulus is not None:
            _need_int("modulus", modulus, 2)
        self._set(modulus)

    def reduce(self, value: int) -> int:
        return value if self.modulus is None else value % self.modulus


EXACT = EvalMode()


def _prepared(rec: LinearRecurrence, n: int, mode: EvalMode):
    j = n - rec.valid_from
    if j < 0:
        raise ValueError(
            f"index {n} is below the recurrence's first valid index {rec.valid_from}"
        )
    if mode.modulus is not None:
        for what, values in (("coefficients", rec.coeffs), ("initials", rec.initials)):
            if not all(isinstance(v, int) for v in values):
                raise ValueError(f"modular evaluation requires integer {what}")
    return j, list(map(mode.reduce, rec.coeffs)), list(map(mode.reduce, rec.initials))


# --- the exact decimal carrier ---------------------------------------------
# CPython multiplies big ints by Karatsuba and prints them by divide and
# conquer (formats.render_int), O(M(B) log B); libmpdec, behind decimal,
# multiplies big operands by number-theoretic transform and prints an
# integral Decimal in linear time. So a count that will print wide may be
# carried as integral Decimals (exponent 0), decided once in _eval_poly at
# the first step whose power has _CARRY_BITS bits. From MIN_TOOM_ORDER on
# the power moves if it will end at least _CARRY_WIDTH bits wide, below
# which libmpdec's own Karatsuba loses to CPython's. At orders 1 and 2 a
# step is three products either way, so only the printing differs: the
# power moves if it will end wider than formats.STR_MAX_BITS, past which an
# int would print by divide and conquer. A `seq` window is read in them whole
# (recurrences._GF.series). Converting a Decimal back to an int is
# quadratic, so a carried count stays one. Measured with CPython 3.11 on a
# 2-vCPU x86-64 machine, a square as a Decimal against as an int: 0.04 vs
# 0.02 ms at 4096 bits, 0.26 vs 0.20 at 20,000, 1.3 vs 1.6 at 10^5, 5.4 vs
# 20 at 5*10^5; `count` of a 54,000-bit order-6 power took 18 ms carried
# against 12 ms on ints.
_CARRY_BITS = 4096
_CARRY_WIDTH = 150_000

class _DecimalMode(EvalMode):
    """Exact, but an int power that will end wide moves to integral
    Decimals, and eval_fast returns a Decimal; for use inside
    recurrences._exact_context only (condition_count, for the CLI)."""

    __slots__ = ()


_DECIMAL = _DecimalMode()


def _eval_poly(j: int, coeffs: list, initials: list, mode: EvalMode) -> BigCount:
    # x^j modulo the characteristic polynomial, by square-and-shift over the
    # bits of j from the top; the term is then sum(q_i * initials[i]) over
    # the coefficients q_i of the remainder. Exact int recurrences read the
    # last square as a quadratic form instead (_square_form), where it would
    # be a Toom step or the order is below MIN_TOOM_ORDER.
    k = len(coeffs)
    if mode.modulus is None or k < MIN_PACKED_ORDER:
        step = _folding(_slice_square(k), coeffs, mode.modulus)
    else:
        step = _packed_step(coeffs, mode.modulus)
    # Exact int powers switch to Toom squaring for good at the first step
    # whose widest coefficient reaches the cutover, and in _DecimalMode to
    # Decimal at the first step past _CARRY_BITS and that cutover if it will
    # end at least `wide` bits wide. The bits double each step, so x^p,
    # p = j >> left, ends about j / p times as wide as it is.
    toom_bits = carry_bits = None
    ints = by_form = False
    if mode.modulus is None and all(isinstance(c, int) for c in coeffs):
        toom_bits = _toom_cutover(k) if k >= MIN_TOOM_ORDER else None
        ints = all(isinstance(a, int) for a in initials)
        by_form = ints and not toom_bits
        if isinstance(mode, _DecimalMode):
            carry_bits = max(_CARRY_BITS, toom_bits or 0)
            wide = _CARRY_WIDTH if toom_bits else STR_MAX_BITS + 1
    result = [1] + [0] * (k - 1)  # x^0
    left = j.bit_length()
    for bit in bin(j)[2:]:
        if toom_bits or carry_bits:
            width = max(map(int.bit_length, result))
            if toom_bits and width >= toom_bits:
                step, toom_bits, by_form = _folding(_toom_square, coeffs, None), None, ints
            if carry_bits and width >= carry_bits:
                if width * j >= wide * (j >> left):
                    from decimal import Decimal

                    result = list(map(Decimal, result))
                carry_bits = None
        left -= 1
        if by_form and not left:
            return _square_form(result, coeffs, initials, bit == "1")
        result = step(result, bit == "1")
    return mode.reduce(sum(map(mul, result, initials)))


def _square_form(result: list, coeffs: list, initials: list, s: bool) -> BigCount:
    # a_j for j = 2h + s, from the coefficients r_i of R = x^h mod the
    # characteristic polynomial. x^j = x^s R^2 and x^m reads as a_m, so a_j
    # = sum(r_i r_l a_(i+l+s)) = r^T H r, with H the Hankel matrix of the
    # recurrence's first 2k terms: k squares, not the 2k - 1 of a Toom step
    # (Fiduccia, SIAM J. Comput. 1985, for the x^h mod Q powering). Over the
    # support of R, r^T H r = sum((h_t . r)^2 / (d_(t-1) d_t)) + r^T M r / d_T
    # for the pivot rows h_t, leading minors d_t and live block M of
    # _hankel_form, read by Horner's rule from the last pivot back: each
    # partial value is r^T M_t r for the integer block M_t after t pivots,
    # so every division is exact, on ints or integral Decimals alike.
    support = tuple(i for i, v in enumerate(result) if v)
    pivots, rest = _hankel_form(tuple(coeffs), tuple(initials), s, support)
    r = [result[i] for i in support]
    total = sum(r[i] * sum(c * r[l] for l, c in row) for i, row in rest)
    for cols, row, prev, d in pivots:
        x = sum(map(mul, row, map(r.__getitem__, cols)))
        total = (x * x + prev * total) // d
    return total


@lru_cache(maxsize=256)
def _hankel_form(coeffs: tuple, initials: tuple, s: bool, support: tuple):
    # Fraction-free (Bareiss) symmetric elimination of H = [a_(i+l+s)] over
    # support, pivoting on the first nonzero diagonal entry left. The block
    # after t pivots is d_t times the Schur complement, so its entries stay
    # ints (minors of H) and each division by d_(t-1) is exact. Returns the
    # pivots, last first, as (columns, row h_t there, d_(t-1), d_t), and the
    # rows (i, ((l, M_il), ...)) of the live block M once no diagonal entry
    # is nonzero; positions index support. O(|support|^3) products of
    # minors: at Toom orders about the cost of the _toom_table that the same
    # power has built. Tuples, as the cache hands one result to every call.
    k = len(coeffs)
    terms = list(initials)
    while len(terms) < 2 * k:
        terms.append(sum(map(mul, coeffs, reversed(terms[-k:]))))
    m = [[terms[i + l + s] for l in support] for i in support]
    live, pivots, prev = list(range(len(support))), [], 1
    while (p := next((i for i in live if m[i][i]), None)) is not None:
        row, d = m[p], m[p][p]
        cols = tuple(l for l in live if row[l])
        pivots.append((cols, tuple(row[l] for l in cols), prev, d))
        live.remove(p)
        for a, i in enumerate(live):
            mi = m[i]
            for l in live[a:]:
                mi[l] = m[l][i] = (d * mi[l] - row[i] * row[l]) // prev
        prev = d
    rest = ((i, tuple((l, m[i][l]) for l in live if m[i][l])) for i in live)
    return tuple(pivots[::-1]), tuple((i, row) for i, row in rest if row)


def _fold_taps(prod: list, k: int, taps: list, modulus: int | None) -> list:
    # Fold each degree >= k down with x^k = c_1 x^(k-1) + ... + c_k,
    # visiting only the nonzero coefficients.
    for d in range(len(prod) - 1, k - 1, -1):
        top = prod.pop()
        if modulus is not None:
            top %= modulus
        if top:
            for i, c in taps:
                prod[d - i] += c * top
    return prod if modulus is None else list(map(mod, prod, repeat(modulus)))


def _folding(square, coeffs: list, modulus: int | None):
    # One step of the power, for a square that returns the 2k - 1
    # coefficients of its argument's square: square, times x on a 1-bit, and
    # fold the degrees >= k back down by the nonzero taps (modulus set: into
    # [0, p)).
    k = len(coeffs)
    taps = [(i, c) for i, c in enumerate(coeffs, start=1) if c]

    def step(result: list, shift: bool) -> list:
        prod = square(result)
        if shift:
            prod.insert(0, 0)  # times x
        return _fold_taps(prod, k, taps, modulus)

    return step


def _slice_square(k: int):
    # The squarer of exact Fractions, exact ints below the Toom cutover, and
    # residues mod p below MIN_PACKED_ORDER. Degree d of a square is
    # 2 * sum(a_i * a_(d-i) for lo <= i < half), plus a_(d/2)^2 for even d:
    # k(k+1)/2 coefficient products in all. The partners a_(d-i) are read
    # forward from the reversed list. Wide exact ints square in fewer
    # products by _toom_square instead.
    slices = []
    for d in range(2 * k - 1):
        lo, half, off = max(0, d - k + 1), (d + 1) // 2, k - 1 - d
        slices.append((lo, half, lo + off, half + off))

    def square(result: list) -> list:
        rev = result[::-1]
        prod = [2 * sum(map(mul, result[lo:hi], rev[rlo:rhi])) for lo, hi, rlo, rhi in slices]
        for i, v in enumerate(result):
            prod[2 * i] += v * v
        return prod

    return square


# Exact int powers of this order and up square by _toom_square once their
# widest coefficient has _toom_cutover(k) bits. Below it, and for every
# Fraction, the k(k+1)/2 products of _slice_square cost less than the 2k - 1
# squares plus the k^2 small-by-big products of the interpolation, whose
# entries grow with k. One step, square and fold, with random coefficients
# broke even near 1,600-2,700 bits at orders 4 to 20, 5,000 at order 3 and
# 3,900 and 7,400 at orders 40 and 64; at 40,000 bits Toom took 0.77 of
# the slice step's time at order 3, 0.42 at order 7 and 0.25 at order 20.
# At order 2 both take three products.
MIN_TOOM_ORDER = 3


def _toom_cutover(k: int) -> int:
    return max(2048, 128 * k)


@lru_cache(maxsize=None)
def _toom_table(k: int):
    # (points, denominators) for order k, built on the first Toom step at
    # that order. points[t] holds the powers (t^2)^i and the weights of the
    # values at t. The even half S(u) = E(u)^2 + u O(u)^2 of A(x)^2 is known
    # at u = t^2 as (A(t)^2 + A(-t)^2) / 2, t = 0..k-1, and the odd half
    # D(u) = 2 E(u) O(u) as (A(t)^2 - A(-t)^2) / (2t), t = 1..k-1.
    # Lagrange's formula turns those values into coefficients: the column
    # for node u_j is prod(u - u_i, i != j) / (s_j prod(u_j - u_i, i != j)),
    # with s_j the 2 or 2t the value carries, so each half is int columns
    # over one common denominator and every division at a step is exact.
    def columns(nodes, scales):
        cols, dens = [], []
        for j, uj in enumerate(nodes):
            col, den = [1], scales[j]
            for i, ui in enumerate(nodes):
                if i != j:
                    col = [a - ui * b for a, b in zip([0] + col, col + [0])]
                    den *= uj - ui
            cols.append(col)
            dens.append(den)
        common = lcm(*dens)
        cols = [[c * (common // den) for c in col] for col, den in zip(cols, dens)]
        g = gcd(common, *(c for col in cols for c in col))
        return [[c // g for c in col] for col in cols], common // g

    nodes = [t * t for t in range(k)]
    even_cols, even_den = columns(nodes, [2] * k)
    odd_cols, odd_den = columns(nodes[1:], [2 * t for t in range(1, k)])
    points = [
        ([u**i for i in range((k + 1) // 2)], even_cols[t], odd_cols[t - 1] if t else [])
        for t, u in enumerate(nodes)
    ]
    return points, [even_den, odd_den] * (k - 1) + [even_den]


def _toom_square(a: list) -> list:
    # The 2k - 1 coefficients of A(x)^2 for ints a_0..a_(k-1), k >= 3, by
    # evaluation and interpolation (Toom-Cook; Knuth, TAOCP vol. 2, 4.3.3):
    # A = E(x^2) + x O(x^2) at t = 0, +-1, .., +-(k-1) gives 2k - 1 big-int
    # squares, and the rest is small-by-big products and exact divisions,
    # linear in the size of the numbers. Each pair of squares is added into
    # the coefficients at once, so a step holds the 2k - 1 sums and two
    # squares, not every square as well.
    k = len(a)
    points, dens = _toom_table(k)
    evens, odds = a[0::2], a[1::2]
    prod = [0] * (2 * k - 1)
    for t, (powers, even_col, odd_col) in enumerate(points):
        e = sum(map(mul, evens, powers))
        o = t * sum(map(mul, odds, powers))
        plus, minus = e + o, e - o
        del e, o
        plus *= plus
        minus = plus if t == 0 else minus * minus
        plus += minus  # A(t)^2 + A(-t)^2
        minus = plus - (minus + minus)  # A(t)^2 - A(-t)^2; ints or Decimals
        for i, c in enumerate(even_col):
            prod[2 * i] += c * plus
        for i, c in enumerate(odd_col):
            prod[2 * i + 1] += c * minus
    for i, den in enumerate(dens):
        prod[i] //= den
    return prod


# Modular powering below this order squares by slices, as exact mode does:
# at order 2 the packing, to_bytes and three slot cuts cost more per bit
# than three products of residues. Mod 10^9+7 at n = 10^18, Fibonacci took
# 0.46 ms packed against 0.39 ms by slices, an order-1 recurrence 0.35
# against 0.22 ms.
MIN_PACKED_ORDER = 3


# At most max(MAX_LOOP_TAPS, k // ORDER_PER_LOOP_TAP) nonzero taps fold with
# the Python tap loop, k * t steps a bit; more fold as one packed dot
# product with the rows x^(k+i) mod the characteristic polynomial, k big-int
# products a bit. Measured mod 10^9+7 at n = 10^18, loop against rows: 2
# taps (the Schreier-Zeckendorf, genfib and Fibonacci shapes) 7.1 against
# 14.9 ms at k = 200 and 23 against 66 at k = 500; 3 taps at k = 500, 25
# against 75; k / 10 taps about even (5.6 against 6.1 at k = 100, 17.4
# against 18.6 at k = 200); dense, 1.2 against 0.6 at k = 16 and 11.6
# against 3.2 at k = 64.
MAX_LOOP_TAPS = 2
ORDER_PER_LOOP_TAP = 10


def _packed_step(coeffs: list, modulus: int):
    # Residues mod p: pack the k coefficients of the power into one int, W
    # bytes a slot, square it with CPython's own big-int multiply (Kronecker
    # substitution), and cut the 2k - 1 product coefficients back out. A
    # product coefficient is a sum of at most k products below p^2, and the
    # row fold adds at most k more, so 2k * p^2 bounds every slot and no slot
    # carries into the next.
    k = len(coeffs)
    width = (2 * modulus.bit_length() + (2 * k).bit_length() + 7) // 8
    slot_bits = 8 * width
    cuts = [slice(i * width, (i + 1) * width) for i in range(2 * k)]

    # Both directions map C functions over the slots. Cutting the slots from
    # bytes is faster than from a memoryview (int.from_bytes copies a view
    # into bytes first), and positional arguments by repeat() are faster
    # than a functools.partial with keywords: at k = 40, 9-byte slots, a
    # pack took 5.5 against 16 us and cutting 80 slots 13 against 22 us.
    def pack(values) -> int:
        slots = map(int.to_bytes, values, repeat(width), repeat("little"))
        return int.from_bytes(b"".join(slots), "little")

    def unpack(packed: int, lo: int, hi: int):
        raw = packed.to_bytes(hi * width, "little")
        return map(int.from_bytes, map(raw.__getitem__, cuts[lo:hi]), repeat("little"))

    if k - coeffs.count(0) <= max(MAX_LOOP_TAPS, k // ORDER_PER_LOOP_TAP):
        return _folding(lambda result: list(unpack(pack(result) ** 2, 0, 2 * k - 1)), coeffs, modulus)

    # rows[i] = x^(k+i) mod the characteristic polynomial, reduced and packed.
    base = coeffs[::-1]  # x^k, lowest degree first
    row, rows = base, []
    for _ in range(k):
        rows.append(pack(row))
        top = row[-1]
        row = [(a + top * c) % modulus for a, c in zip([0] + row[:-1], base)]
    low_mask = (1 << (slot_bits * k)) - 1

    def step(result: list, shift: bool) -> list:
        packed = pack(result) ** 2 << (slot_bits if shift else 0)
        highs = map(mod, unpack(packed, k, 2 * k - 1 + shift), repeat(modulus))
        folded = (packed & low_mask) + sum(map(mul, highs, rows))
        return list(map(mod, unpack(folded, 0, k), repeat(modulus)))

    return step


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
    """Term at absolute index n by square-and-shift over the bits of n.

    Exact: k(k+1)/2 coefficient products per bit of n for order k; from
    order 3, once the coefficients have max(2048, 128k) bits, 2k - 1
    big-int squares per bit by evaluation and interpolation instead. Then
    a fold visiting only the nonzero coefficients. With int coefficients
    and initials, the last bit at orders 1 and 2 or past that cutover is
    k squares of the widest coefficients and k^2 small-by-big products,
    a quadratic form in the recurrence's first 2k terms, with no fold.
    Modular orders 1 and 2 square and fold as exact mode does below the
    cutover. Modular from order 3: one big-int square per bit, of k packed
    slots of 2 bits(p) + bits(2k) bits or more, plus a fold by the nonzero
    taps (at most max(2, k // 10)) or by k products with packed rows.
    method="matrix" selects the companion-matrix implementation instead of
    polynomial powering.
    """
    if method not in ("poly", "matrix"):
        raise ValueError('method must be "poly" or "matrix"')
    _need_int("n", n)
    j, coeffs, initials = _prepared(rec, n, mode)
    k = rec.order
    if j < k:
        return initials[j]
    if method == "poly":
        return _eval_poly(j, coeffs, initials, mode)
    return _eval_matrix(j, coeffs, initials, mode)

