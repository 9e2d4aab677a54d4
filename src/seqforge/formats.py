"""Render and parse sequence windows: b-file, CSV, JSON, and a human table.

b-file is the primary interchange format (one ``index value`` pair per
line, no header); emitting and re-parsing a window is byte-exact. All
numbers render in full decimal, never scientific notation.
"""

from __future__ import annotations

import json
from typing import Iterator

from .fasteval import _exact_context
from .recurrences import SequenceWindow

FORMATS = ("table", "csv", "json", "bfile")

# Builtin str() takes time quadratic in the digit count, and by default the
# interpreter refuses it past 4300 digits (about 14,284 bits), so str() is
# used only below that cap. Measured with CPython 3.11 on a 2-vCPU x86-64
# machine, divide and conquer against str(): 0.39 vs 0.32 ms at 4300
# digits, 1.35 vs 1.65 ms at 10,000, 2.1 vs 3.7 ms at 15,000; at 10^5 digits
# str() takes about 4x as long, at 3*10^5 digits about 15x.
STR_MAX_BITS = 14_000
# Pieces of at most this many bits convert to Decimal directly.
_LEAF_BITS = 1024


def render_int(value: int) -> str:
    """Decimal digits of value, the same text as str(value).

    Up to STR_MAX_BITS bits this is str(value). Bigger values are split in
    halves at power-of-two bit widths, 2^w for w = _LEAF_BITS * 2^i; each
    half becomes an exact decimal.Decimal recursively, and the halves join
    as hi * 2^w + lo. The C decimal module multiplies big operands by
    number-theoretic transform, so the time is O(M(n) log n) rather than
    O(n^2), and memory stays linear in the output size.
    """
    if value.bit_length() <= STR_MAX_BITS:
        return str(value)
    if value < 0:
        return "-" + render_int(-value)
    import decimal  # only big values need it

    exact = _exact_context().copy()
    levels = ((value.bit_length() - 1) // _LEAF_BITS).bit_length()
    # powers[i] = 2^(_LEAF_BITS * 2^i), by repeated squaring
    powers = [decimal.Decimal(1 << _LEAF_BITS)]
    for _ in range(levels - 1):
        powers.append(exact.multiply(powers[-1], powers[-1]))

    def convert(v: int, level: int):
        # v < 2^(_LEAF_BITS * 2^level)
        if level == 0:
            return decimal.Decimal(v)
        width = _LEAF_BITS << (level - 1)
        hi = v >> width
        lo = v - (hi << width)
        if not hi:
            return convert(lo, level - 1)
        return exact.fma(convert(hi, level - 1), powers[level - 1], convert(lo, level - 1))

    return str(convert(value, levels))


def _rows(window: SequenceWindow) -> Iterator[tuple[int, str]]:
    # (index, decimal digits) per term. One choice per window: builtin str()
    # unless some int term is big enough for render_int to take another
    # path. A window read in integral Decimals, as the CLI reads every one
    # (its last term is one; see recurrences._decimal_window), prints by
    # str() in linear time.
    terms = window.terms
    carried = bool(terms) and not isinstance(terms[-1], int)
    big = not carried and max(map(int.bit_length, terms), default=0) > STR_MAX_BITS
    return enumerate(map(render_int if big else str, terms), window.offset)


def format_bfile(window: SequenceWindow) -> str:
    return "".join(f"{i} {d}\n" for i, d in _rows(window))


def parse_bfile(text: str, name: str = "bfile") -> SequenceWindow:
    """Inverse of format_bfile; indices must be contiguous and ascending."""
    offset = None
    expected = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        index, value = int(parts[0]), int(parts[1])
        if offset is None:
            offset = expected = index
        if index != expected:
            raise ValueError(f"line {lineno}: expected index {expected}, got {index}")
        terms.append(value)
        expected += 1
    if offset is None:
        raise ValueError("empty b-file")
    return SequenceWindow(name, offset, tuple(terms))


def format_csv(window: SequenceWindow) -> str:
    return "index,value\n" + "".join(f"{i},{d}\n" for i, d in _rows(window))


def format_json(window: SequenceWindow) -> str:
    # The text of json.dumps(payload, indent=2) for payload {"schema",
    # "family", "offset", "terms"}. The header goes through json.dumps, which
    # escapes the name. The terms are digit strings that need no escaping,
    # so they are joined here, in about half the encoder's time: the header
    # and the closing brackets go onto the first and last term, and one join
    # copies the text once.
    head = json.dumps({"schema": 1, "family": window.name, "offset": window.offset}, indent=2)
    head = head[:-2] + ',\n  "terms": '  # without the closing "\n}"
    digits = [d for _, d in _rows(window)]
    if not digits:
        return head + "[]\n}\n"
    digits[0] = head + '[\n    "' + digits[0]
    digits[-1] += '"\n  ]\n}\n'
    return '",\n    "'.join(digits)


def format_table(window: SequenceWindow) -> str:
    # The indices run from offset to last_index, so the widest is one of them.
    width = max(len(str(window.offset)), len(str(window.last_index)))
    lines = [f"{window.name}  (indices {window.offset}..{window.last_index})"]
    lines += [f"{i:>{width}}  {d}" for i, d in _rows(window)]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def format_window(window: SequenceWindow, fmt: str) -> str:
    if fmt == "bfile":
        return format_bfile(window)
    if fmt == "csv":
        return format_csv(window)
    if fmt == "json":
        return format_json(window)
    if fmt == "table":
        return format_table(window)
    raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")
