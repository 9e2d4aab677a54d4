"""seqforge: exact subset counting, integer sequences, and recurrence tools.

The subsets module holds the domain types and the exhaustive search oracle,
a walk that skips only branches holding no match; recurrences holds the
rational generating function that counts every condition without
enumerating, and the named sequences as series of such functions; fasteval
evaluates a linear recurrence of order k at index n by square-and-shift, one
squaring per bit of n; discovery recovers minimal recurrences from
prefixes; identities machine-checks the identities and the counting
bijection; formats renders; cli fronts everything.

The top level exports the names below; everything else is imported from its
submodule. The exports of fasteval, discovery and identities, and those
modules themselves, are imported on first use (PEP 562), so that a command
imports only the modules it runs.
"""

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

# The exports imported on first use, by the submodule that defines them,
# and the submodules that `import seqforge` does not import.
_LAZY = {
    "LinearRecurrence": "fasteval",
    "EvalMode": "fasteval",
    "eval_fast": "fasteval",
    "berlekamp_massey": "discovery",
    "check_fib_h": "identities",
}
_SUBMODULES = ("fasteval", "discovery", "identities", "formats", "cli")


def __getattr__(name: str):
    # Called only for a name not bound here yet. An import binds its
    # submodule here, and an export is bound once read.
    module = _LAZY.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name in _LAZY:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
