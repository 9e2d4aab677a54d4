"""seqforge: exact subset counting, integer sequences, and recurrence tools.

The subsets module holds the domain types and the exhaustive search oracle,
a walk that skips only branches holding no match; recurrences holds the
rational generating function that counts every condition without
enumerating, and the named sequences as series of such functions; fasteval
evaluates arbitrary linear recurrences in O(k^2 log n); discovery recovers
minimal recurrences from prefixes; identities machine-checks the identities
and the counting bijection; cli fronts everything.

The top level exports the names below; everything else is imported from its
submodule.
"""

from .discovery import berlekamp_massey
from .fasteval import EvalMode, LinearRecurrence, eval_fast
from .identities import check_fib_h
from .recurrences import (
    condition_count,
    condition_gf,
    even_gap_family_size,
    fibonacci,
    min_size_odd_gap_count,
    min_size_odd_gap_seq,
    schreier_zeckendorf_count,
    tail_recurrence_of,
    window,
)
from .subsets import Condition, count_subsets

__version__ = "1.0.0"

__all__ = [
    "Condition",
    "count_subsets",
    "condition_count",
    "condition_gf",
    "fibonacci",
    "even_gap_family_size",
    "min_size_odd_gap_count",
    "min_size_odd_gap_seq",
    "window",
    "LinearRecurrence",
    "EvalMode",
    "eval_fast",
    "schreier_zeckendorf_count",
    "tail_recurrence_of",
    "berlekamp_massey",
    "check_fib_h",
]
