"""Render and parse sequence windows: b-file, CSV, JSON, and a human table.

b-file is the primary interchange format (one ``index value`` pair per
line, no header); emitting and re-parsing a window is byte-exact. All
numbers render in full decimal, never scientific notation. Every format
is written by one chunked writer (_write_window), which the CLI feeds a
term at a time.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import count, islice

from .recurrences import SequenceWindow, _exact_context
from .subsets import _need_int

FORMATS = ("table", "csv", "json", "bfile")

# Builtin str() takes time quadratic in the digit count, and by default the
# interpreter refuses it past 4300 digits (about 14,284 bits), so
# render_int calls str() only up to this width. Measured with
# CPython 3.11 on a 2-vCPU x86-64 machine, divide and conquer against
# str(): 0.39 vs 0.32 ms at 4300 digits, 1.35 vs 1.65 ms at 10,000, 2.1
# vs 3.7 ms at 15,000; at 10^5 digits str() takes about 4x as long, at
# 3*10^5 digits about 15x.
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
    O(n^2), and memory stays linear in the output size. Anything but an
    int, a bool included, is a ValueError.
    """
    _need_int("value", value)
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


# The least digit cap the interpreter accepts (sys.int_info's
# str_digits_check_threshold): int() reads this many digits under any cap.
_PIECE_DIGITS = 640


def _parse_int(text: str) -> int:
    """int(text), past the interpreter's digit cap too. A wider token of the
    form int() reads, blanks, a sign, then digits with single underscores
    between them, is read in halves joined as hi * 10^len(lo) + lo, down to
    pieces that int() reads under any cap."""
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    if not re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
        raise ValueError(f"invalid literal for int() with base 10: {text[:200]!r}")
    value = _join_digits(re.sub(r"\D", "", text))
    return -value if "-" in text else value


def _join_digits(digits: str) -> int:
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    cut = len(digits) // 2
    return _join_digits(digits[:-cut]) * 10**cut + _join_digits(digits[-cut:])


def parse_bfile(text: str, name: str = "bfile") -> SequenceWindow:
    """Inverse of the b-file that _write_window writes, for terms of any
    width; indices must be contiguous and ascending."""
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
        index, value = int(parts[0]), _parse_int(parts[1])
        if offset is None:
            offset = expected = index
        if index != expected:
            raise ValueError(f"line {lineno}: expected index {expected}, got {index}")
        terms.append(value)
        expected += 1
    if offset is None:
        raise ValueError("empty b-file")
    return SequenceWindow(name, offset, tuple(terms))


def _write_window(write, fmt: str, name: str, offset: int, last: int, digits: Iterable[str]) -> None:
    """Write the text of the window offset..last of the sequence name in
    format fmt through write, digits yielding each term's decimal digits in
    turn, in chunks (_write_chunked): the rows are formatted as they are
    read, and no more than a chunk and a batch of text are held at once.
    """
    # Each batch takes its indices from one counter; zip reads the batch
    # first, so it takes no index past the batch's end.
    indices, tail = count(offset), ""
    if fmt == "bfile":
        head, rows = "", lambda batch: [f"{i} {d}\n" for d, i in zip(batch, indices)]
    elif fmt == "csv":
        head, rows = "index,value\n", lambda batch: [f"{i},{d}\n" for d, i in zip(batch, indices)]
    elif fmt == "table":
        # The indices run from offset to last, so the widest is one of them.
        width = max(len(str(offset)), len(str(last)))
        head = f"{name}  (indices {offset}..{last})\n"
        rows = lambda batch: [f"{i:>{width}}  {d}\n" for d, i in zip(batch, indices)]
    elif fmt == "json":
        # The text of json.dumps(payload, indent=2) for payload {"schema",
        # "family", "offset", "terms"}. The header goes through json.dumps,
        # which escapes the name. The terms are digit strings that need no
        # escaping, so they are written here, in about half the encoder's
        # time: the header and the opening bracket go onto the first term.
        import json  # only this format needs it

        head = json.dumps({"schema": 1, "family": name, "offset": offset}, indent=2)
        head = head[:-2] + ',\n  "terms": '  # without the closing "\n}"
        digits = iter(digits)
        first = next(digits, None)
        if first is None:
            head += "[]\n}\n"
        else:
            head, tail = head + '[\n    "' + first, '"\n  ]\n}\n'
        rows = lambda batch: [f'",\n    "{d}' for d in batch]
    else:
        raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")
    _write_chunked(write, digits, rows, head, tail)


# A chunk holds at most this many characters of text: 64 KiB of ASCII,
# under the 128 KiB from which glibc's malloc maps a block of fresh pages
# of its own, so a chunk and its encoded copy reuse the heap's free memory.
# 1 MiB chunks took 2.5 times the page faults of printing a whole
# window at once and cost about 10% of the series benchmark's throughput.
_CHUNK_CHARS = 1 << 16


def _write_chunked(write, items: Iterable, rows, head: str = "", tail: str = "") -> None:
    """Write head, the rows of items in turn and tail through write, joined
    into chunks of at most _CHUNK_CHARS characters, or one row wider than
    that. rows maps a list of items to their rows' texts, one each. Text
    that fits in one chunk is one write.

    Items are read in batches, so that a narrow row costs no Python step of
    its own: 64 items first, then at most twice the last batch and about a
    quarter of a chunk of text as judged by the last batch. A batch that
    would overflow the chunk starts the next one, and a batch wider than a
    chunk is split.
    """
    items, final = iter(items), [tail]
    chunk, size, take = [head], len(head), 64
    while True:
        batch = rows(list(islice(items, take))) or final
        width = sum(map(len, batch))
        take = max(1, min(2 * take, (_CHUNK_CHARS >> 2) * len(batch) // (width + 1)))
        if size and size + width > _CHUNK_CHARS:
            write("".join(chunk))
            chunk, size = [], 0
        if width <= _CHUNK_CHARS:
            chunk += batch
            size += width
        else:
            for text in batch:
                if size and size + len(text) > _CHUNK_CHARS:
                    write("".join(chunk))
                    chunk, size = [], 0
                chunk.append(text)
                size += len(text)
        if batch is final:
            break
    text = "".join(chunk)
    if text:
        write(text)
