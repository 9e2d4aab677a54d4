"""The package's value base class, the subset condition, its membership
test, and the exhaustive enumeration oracle.

Everything here is pure and exact: a subset is a sorted tuple of its
elements, counts are plain Python ints (arbitrary precision), and
enumeration order is deterministic.
The exhaustive search is the ground truth that every closed form and
recurrence in the rest of the package is tested against. It walks the
subsets of {1..n} from the top element down, extending a node only by
elements that keep every clause but min_size; that pruning is its only
verdict. So it visits exactly the nonempty subsets that meet every clause
except min_size, at O(1) interpreted steps and one tuple copy each, not
all 2**n subsets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate

# Counts are exact and unbounded; Python ints never saturate or wrap.
BigCount = int

GAP_ANY = "any"
GAP_ALL_ODD = "all_odd"
GAP_ALL_EVEN = "all_even"
# The gaps each parity allows are those = r mod q, keyed as (q, r).
_GAP_CLASSES = {GAP_ANY: (1, 0), GAP_ALL_ODD: (2, 1), GAP_ALL_EVEN: (2, 0)}

# 2**n work beyond this is refused unless the caller raises the limit.
DEFAULT_ENUM_LIMIT = 30


class EnumerationLimitError(ValueError):
    """An exhaustive 2**n scan would exceed the configured limit."""


def _need_int(name: str, value: object, least: int | None = None, below: int | None = None) -> None:
    # An index or int field takes an int only, not a bool, a float or an
    # int-like, which would pass the range checks and fail deep inside; then
    # least <= value < below, each bound where given.
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    if below is not None and value >= below:
        raise ValueError(f"{name} must be < {below}")


class _Value:
    """Base of the package's immutable value classes, which behave as frozen
    dataclasses would: equality between instances of one class, hash and
    repr over the fields __match_args__ names, in order, and an
    AttributeError on assigning or deleting a field. A subclass lists its
    fields in __slots__ and __match_args__ and sets them in __init__, in
    that order, with _set. No dataclasses: it imports inspect, ast and more,
    and writes each class's methods at import time."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses.
        return self.__class__, self._values()


class Condition(_Value):
    """Conjunction of subset predicates; absent fields impose nothing.

    gap_parity constrains every consecutive gap; forced_max, when present,
    requires the subset to contain exactly that maximum. The int fields
    take ints only: not a bool, a float or an int-like.

    The gap clause is read as least_gap, the least g >= beta (1 when unset)
    in the parity's class r mod q, and gap_step, its stride q (1, or 2
    under a gap parity): the allowed gaps are least_gap + gap_step * t for
    t >= 0. Both are worked out once, here, as _passes reads them for
    every subset it tests; they are not fields.
    """

    __match_args__ = ("alpha", "beta", "gap_parity", "min_size", "forced_max")
    __slots__ = (*__match_args__, "least_gap", "gap_step")

    def __init__(
        self,
        alpha: int | None = None,
        beta: int | None = None,
        gap_parity: str = GAP_ANY,
        min_size: int = 0,
        forced_max: int | None = None,
    ) -> None:
        for name, value in (("alpha", alpha), ("beta", beta), ("forced_max", forced_max)):
            if value is not None:
                _need_int(name, value, 1)
        _need_int("min_size", min_size, 0)
        if gap_parity not in _GAP_CLASSES:
            raise ValueError(f"gap_parity must be one of {tuple(_GAP_CLASSES)}")
        self._set(alpha, beta, gap_parity, min_size, forced_max)
        q, r = _GAP_CLASSES[gap_parity]
        object.__setattr__(self, "least_gap", (beta or 1) + (r - (beta or 1)) % q)
        object.__setattr__(self, "gap_step", q)


def _passes(elems: tuple, cond: Condition) -> bool:
    # The membership test of a sorted tuple; the walk needs none.
    k = len(elems)
    if k < cond.min_size:
        return False
    if cond.forced_max is not None and (k == 0 or elems[-1] != cond.forced_max):
        return False
    if cond.alpha is not None and k > 0 and elems[0] < cond.alpha * k:
        return False
    # The allowed gaps are least_gap + gap_step * t, t >= 0: every gap of a
    # strictly increasing tuple when both are 1, so then none is read.
    if k >= 2 and (cond.least_gap > 1 or cond.gap_step > 1):
        for low, high in zip(elems, elems[1:]):
            if high - low < cond.least_gap or (high - low - cond.least_gap) % cond.gap_step:
                return False
    return True


def _check_enum_bounds(n: int, cond: Condition, limit: int) -> None:
    _need_int("n", n, 0)
    _need_int("limit", limit, 0)
    if cond.forced_max is not None and cond.forced_max > n:
        raise ValueError(f"forced_max {cond.forced_max} exceeds n={n}")
    if n > limit:
        raise EnumerationLimitError(
            f"n={n} exceeds the exhaustive-enumeration limit {limit}"
        )


def _search(n: int, cond: Condition) -> Iterator[tuple[int, ...]]:
    # Every matching subset of {1..n} as a sorted tuple, in characteristic-
    # vector order. The walk is a preorder over subsets built from the top
    # down: a node is yielded first, then extended by each next-lower
    # element in ascending order. Extending a node adds only bits below
    # its minimum, so a node precedes its subtree and the subtree of a
    # smaller extension precedes that of a larger one.
    #
    # Pruning is sound because the alpha and gap clauses survive dropping
    # the minimum: if S passes them, so does S less min(S) (its minimum
    # grows, its size shrinks and its gaps are a subset of S's). Every
    # descendant of a node has the node as its top part, so a node that
    # fails one of those clauses has no matching descendant. Hence a node
    # with minimum m and size k is only extended by an e that keeps them:
    # m - e = least_gap + gap_step * t for some t >= 0 (the stride is the
    # gap clause's), and e >= alpha * (k + 1); the top element is at least
    # alpha, and is forced_max when one is given.
    #
    # The extension rule is each clause's only check, so the nodes are
    # exactly the nonempty subsets that meet every clause but min_size,
    # which is not pruned on: a node is yielded when it has at least
    # min_size elements. The frame being walked (node, extensions, and
    # size, which is its children's) is held in locals. A node costs O(1)
    # interpreted steps and a copy of its tuple.
    alpha, min_size, forced = cond.alpha or 0, cond.min_size, cond.forced_max
    gap, step = cond.least_gap, cond.gap_step
    if min_size == 0 and forced is None:
        yield ()
    low, high = (1, n) if forced is None else (forced, forced)
    node, extensions, size = (), iter(range(max(alpha, low), high + 1)), 1
    stack = []
    while True:
        for e in extensions:
            child = (e,) + node
            if size >= min_size:
                yield child
            floor = alpha * (size + 1) or 1
            if e - gap >= floor:
                stack.append((node, extensions, size))
                node, extensions, size = child, reversed(range(e - gap, floor - 1, -step)), size + 1
                break
        else:
            if not stack:
                return
            node, extensions, size = stack.pop()


def _counts_upto(n_max: int, cond: Condition, limit: int = DEFAULT_ENUM_LIMIT) -> list[BigCount]:
    # count_subsets(n, cond) for every n = 0..n_max, from one search of
    # {1..n_max}. Whether a subset matches does not depend on n, so the
    # matches in {1..n} are those with maximum <= n. Below a forced_max the
    # entries are 0.
    _check_enum_bounds(n_max, cond, limit)
    return _counts_by_max(_search(n_max, cond), n_max)


def _counts_by_max(found: Iterable[tuple[int, ...]], n_max: int) -> list[int]:
    # Entry m is how many of the sorted tuples found have maximum <= m (the
    # empty tuple's is 0), for m = 0..n_max. Found in characteristic-vector
    # order, which sorts by maximum, those are the first entry m of them.
    by_max = [0] * (n_max + 1)
    for elems in found:
        by_max[elems[-1] if elems else 0] += 1
    return list(accumulate(by_max))


def count_subsets(n: int, cond: Condition, limit: int = DEFAULT_ENUM_LIMIT) -> BigCount:
    """Exact number of subsets of {1..n} satisfying cond, by exhaustive search.

    Counts what `enumerate_subsets` would yield; refuses n > limit because
    the walk visits each nonempty subset that meets every clause but
    min_size, up to 2**n - 1, at O(1) steps and a tuple copy each.
    """
    return _counts_upto(n, cond, limit)[-1]


def enumerate_subsets(
    n: int, cond: Condition, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[tuple[int, ...]]:
    """Lazily yield each matching subset of {1..n} exactly once, as the
    sorted tuple of its elements.

    Order is by characteristic vector read as an n-bit integer (bit i-1 set
    iff element i present), in increasing numeric order, so output is
    reproducible byte for byte. The bounds are checked before the first
    subset is asked for.
    """
    _check_enum_bounds(n, cond, limit)
    return _search(n, cond)
