"""Subset domain types, gap predicates, and the exhaustive enumeration oracle.

Everything here is pure and exact: subsets are immutable, counts are plain
Python ints (arbitrary precision), and enumeration order is deterministic.
The exhaustive search is the ground truth that every closed form and
recurrence in the rest of the package is tested against. It walks the
subsets of {1..n} from the top element down and skips only branches that
provably hold no match, so it costs O(n) per subset that passes every
clause except min_size instead of scanning all 2**n subsets; every subset
it yields is still checked against the clauses' definitions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

# Counts are exact and unbounded; Python ints never saturate or wrap.
BigCount = int

GAP_ANY = "any"
GAP_ALL_ODD = "all_odd"
GAP_ALL_EVEN = "all_even"
GAP_PARITIES = (GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN)

# 2**n work beyond this is refused unless the caller raises the limit.
DEFAULT_ENUM_LIMIT = 30


class EnumerationLimitError(ValueError):
    """An exhaustive 2**n scan would exceed the configured limit."""


class _Value:
    """Base of the package's immutable value classes, which behave as frozen
    dataclasses would: equality between instances of one class, hash and
    repr over the fields __match_args__ names, in order, and an
    AttributeError on assigning or deleting a field. A subclass lists its
    fields in __slots__ and __match_args__ and sets them in __init__ with
    object.__setattr__. No dataclasses: it imports inspect, ast and more,
    and writes each class's methods at import time."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

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


class Subset(_Value):
    """A finite set of naturals >= 1, stored strictly increasing."""

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        elems = tuple(sorted(elements))
        for e in elems:
            if e < 1:
                raise ValueError(f"subset elements must be >= 1, got {e!r}")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a} in subset")
        object.__setattr__(self, "elements", elems)

    # The bijection check compares every subset it enumerates, so these two
    # skip _Value's loop over the fields.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: object) -> bool:
        return value in self.elements

    @property
    def minimum(self) -> int | None:
        return self.elements[0] if self.elements else None

    @property
    def maximum(self) -> int | None:
        return self.elements[-1] if self.elements else None


def _trusted_subset(elems: tuple[int, ...]) -> Subset:
    # A Subset of a tuple already strictly increasing and >= 1, such as the
    # search yields, without the public constructor's sort and checks.
    subset = object.__new__(Subset)
    object.__setattr__(subset, "elements", elems)
    return subset


class Condition(_Value):
    """Conjunction of subset predicates; absent fields impose nothing.

    gap_parity constrains every consecutive gap; forced_max, when present,
    requires the subset to contain exactly that maximum. The int fields
    take ints only: not a bool, a float or an int-like.
    """

    __slots__ = __match_args__ = ("alpha", "beta", "gap_parity", "min_size", "forced_max")

    def __init__(
        self,
        alpha: int | None = None,
        beta: int | None = None,
        gap_parity: str = GAP_ANY,
        min_size: int = 0,
        forced_max: int | None = None,
    ) -> None:
        for name, value in (("alpha", alpha), ("beta", beta), ("forced_max", forced_max)):
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an int, got {type(value).__name__}")
        if type(min_size) is not int:
            raise ValueError(f"min_size must be an int, got {type(min_size).__name__}")
        if alpha is not None and alpha < 1:
            raise ValueError("alpha must be >= 1 when present")
        if beta is not None and beta < 1:
            raise ValueError("beta must be >= 1 when present")
        if gap_parity not in GAP_PARITIES:
            raise ValueError(f"gap_parity must be one of {GAP_PARITIES}")
        if min_size < 0:
            raise ValueError("min_size must be >= 0")
        if forced_max is not None and forced_max < 1:
            raise ValueError("forced_max must be >= 1 when present")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gap_parity", gap_parity)
        object.__setattr__(self, "min_size", min_size)
        object.__setattr__(self, "forced_max", forced_max)

    @property
    def least_gap(self) -> int:
        """Smallest consecutive gap the condition allows: beta (1 when
        unset), raised by one when the gap parity rules that value out."""
        gap = self.beta or 1
        if self.gap_parity != GAP_ANY and gap % 2 != (self.gap_parity == GAP_ALL_ODD):
            gap += 1
        return gap


def difference_set(s: Subset) -> tuple[int, ...]:
    """Consecutive gaps of s, in order; empty when s has <= 1 element."""
    e = s.elements
    return tuple(b - a for a, b in zip(e, e[1:]))


def is_alpha_schreier(s: Subset, alpha: int) -> bool:
    """True iff s is empty or min(s) >= alpha * |s|.

    Pure integer comparison, equivalent to the rational test
    min(s) / alpha >= |s|.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return not s.elements or s.elements[0] >= alpha * len(s.elements)


def is_beta_zeckendorf(s: Subset, beta: int) -> bool:
    """True iff every consecutive gap of s is >= beta.

    Subsets with at most one element satisfy this vacuously.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    gaps = difference_set(s)
    return not gaps or min(gaps) >= beta


def _passes(elems: tuple, cond: Condition) -> bool:
    # Hot path shared by count and enumerate; elems must be sorted.
    k = len(elems)
    if k < cond.min_size:
        return False
    if cond.forced_max is not None and (k == 0 or elems[-1] != cond.forced_max):
        return False
    if cond.alpha is not None and k > 0 and elems[0] < cond.alpha * k:
        return False
    beta = cond.beta
    parity = cond.gap_parity
    if k >= 2 and (beta is not None or parity != GAP_ANY):
        want = 1 if parity == GAP_ALL_ODD else 0 if parity == GAP_ALL_EVEN else None
        prev = elems[0]
        for e in elems[1:]:
            g = e - prev
            prev = e
            if beta is not None and g < beta:
                return False
            if want is not None and g & 1 != want:
                return False
    return True


def _check_enum_bounds(n: int, cond: Condition, limit: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if cond.forced_max is not None and cond.forced_max > n:
        raise ValueError(f"malformed query: forced_max {cond.forced_max} exceeds n={n}")
    check_enum_limit(n, limit)


def check_enum_limit(n: int, limit: int) -> None:
    """Refuse an exhaustive scan of {1..n} past the limit. A caller that
    will scan up to n calls this first, so it fails before doing any work."""
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
    # Pruning is sound because the alpha, beta and parity clauses survive
    # dropping the minimum: if S passes them, so does S less min(S) (its
    # minimum grows, its size shrinks and its gaps are a subset of S's).
    # Every descendant of a node has the node as its top part, so a node
    # that fails one of those clauses has no matching descendant. Hence a
    # node with minimum m and size k is only extended by an e that keeps
    # them: m - e >= beta (>= 1 unset), m - e of the parity (stride 2,
    # aligned), and e >= alpha * (k + 1); the top element must be
    # forced_max when one is given. min_size is not pruned on. Every tuple
    # still goes through _passes, so what is yielded is matched by
    # definition; the cost is O(n) per subset that passes every clause
    # except min_size.
    alpha = cond.alpha or 0
    step = 1 if cond.gap_parity == GAP_ANY else 2
    gap = cond.least_gap
    if _passes((), cond):
        yield ()
    tops = range(1, n + 1) if cond.forced_max is None else (cond.forced_max,)
    stack = [((), iter(tops))]
    while stack:
        node, extensions = stack[-1]
        for e in extensions:
            child = (e,) + node
            if _passes(child, cond):
                yield child
            floor = alpha * (len(child) + 1) or 1
            if e - gap >= floor:
                stack.append((child, reversed(range(e - gap, floor - 1, -step))))
                break
        else:
            stack.pop()


def count_subsets(n: int, cond: Condition, limit: int = DEFAULT_ENUM_LIMIT) -> BigCount:
    """Exact number of subsets of {1..n} satisfying cond, by exhaustive search.

    Counts what `enumerate_subsets` would yield; refuses n > limit because
    the work can reach O(2**n * n).
    """
    _check_enum_bounds(n, cond, limit)
    return sum(1 for _ in _search(n, cond))


def enumerate_subsets(
    n: int, cond: Condition, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[Subset]:
    """Lazily yield each matching subset of {1..n} exactly once.

    Order is by characteristic vector read as an n-bit integer (bit i-1 set
    iff element i present), in increasing numeric order, so output is
    reproducible byte for byte. The bounds are checked before the first
    subset is asked for.
    """
    _check_enum_bounds(n, cond, limit)
    return map(_trusted_subset, _search(n, cond))
