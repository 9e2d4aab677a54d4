import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import formats
from seqforge.formats import (
    STR_MAX_BITS,
    format_bfile,
    format_csv,
    format_json,
    format_table,
    format_window,
    parse_bfile,
    render_int,
)
from seqforge.recurrences import SequenceWindow, h_seq

from helpers import window_text

WINDOW = SequenceWindow("demo", 2, (4, 9, 25))


class TestBfile:
    def test_shape(self):
        assert format_bfile(WINDOW) == "2 4\n3 9\n4 25\n"

    def test_round_trip_golden(self):
        assert parse_bfile(format_bfile(WINDOW), name="demo") == WINDOW

    def test_round_trip_large_window(self):
        window = h_seq(300)
        assert parse_bfile(format_bfile(window), name="H") == window

    def test_blank_lines_are_skipped(self):
        assert parse_bfile("2 4\n\n3 9\n", name="demo").terms == (4, 9)

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_bfile("2 4 9\n")
        with pytest.raises(ValueError):
            parse_bfile("two four\n")

    def test_rejects_index_gap(self):
        with pytest.raises(ValueError):
            parse_bfile("2 4\n4 25\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_bfile("\n\n")

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-5, max_value=10),
        st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=20),
    )
    def test_round_trip_property(self, offset, terms):
        window = SequenceWindow("w", offset, tuple(terms))
        assert parse_bfile(format_bfile(window), name="w") == window


class TestOtherFormats:
    def test_csv(self):
        assert format_csv(WINDOW) == "index,value\n2,4\n3,9\n4,25\n"

    def test_json(self):
        payload = json.loads(format_json(WINDOW))
        assert payload == {
            "schema": 1,
            "family": "demo",
            "offset": 2,
            "terms": ["4", "9", "25"],
        }

    def test_table_lists_every_index(self):
        text = format_table(WINDOW)
        lines = text.splitlines()
        assert lines[0].startswith("demo")
        assert lines[1:] == ["2  4", "3  9", "4  25"]

    def test_dispatch_and_unknown(self):
        assert format_window(WINDOW, "bfile") == format_bfile(WINDOW)
        with pytest.raises(ValueError):
            format_window(WINDOW, "yaml")

    @pytest.mark.parametrize("fmt, want", [
        ("table", "x  (indices 3..2)\n"),
        ("csv", "index,value\n"),
        ("json", '{\n  "schema": 1,\n  "family": "x",\n  "offset": 3,\n  "terms": []\n}\n'),
        ("bfile", ""),
    ])
    def test_empty_window(self, fmt, want):
        assert format_window(SequenceWindow("x", 3, ()), fmt) == want

    @pytest.mark.parametrize("window", [
        SequenceWindow("x", 3, ()),
        SequenceWindow("demo", 2, (4,)),
        SequenceWindow('quote " slash \\ é\n', -5, (1, -2, 10**30)),
        h_seq(40),
    ])
    def test_json_is_the_encoders_text(self, window):
        payload = {
            "schema": 1,
            "family": window.name,
            "offset": window.offset,
            "terms": [str(v) for v in window.terms],
        }
        assert format_json(window) == json.dumps(payload, indent=2) + "\n"

    def test_table_pads_to_the_widest_index(self):
        window = SequenceWindow("w", -12, tuple(range(14)))
        lines = format_table(window).splitlines()
        assert lines[1] == "-12  0" and lines[-1] == "  1  13"

    @pytest.mark.parametrize("chunk", [1, 50, 4096, formats._CHUNK_CHARS])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("window", [
        SequenceWindow("x", 3, ()),
        SequenceWindow('quote " é', -5, (1, -2, 10**30)),
        h_seq(700),
    ], ids=["empty", "short", "h700"])
    def test_every_chunk_size_writes_the_whole_text(self, monkeypatch, window, fmt, chunk):
        monkeypatch.setattr(formats, "_CHUNK_CHARS", chunk)
        writes = []
        formats._write_window(writes.append, fmt, window.name, window.offset, window.last_index, map(str, window.terms))
        assert "".join(writes) == format_window(window, fmt) == window_text(window, fmt)

    @settings(max_examples=200)
    @given(
        st.lists(st.text(max_size=12), max_size=300),
        st.text(max_size=12),
        st.text(max_size=12),
        st.integers(1, 40),
    )
    def test_chunks_join_to_the_text(self, rows, head, tail, bound):
        writes = []
        saved, formats._CHUNK_CHARS = formats._CHUNK_CHARS, bound
        try:
            formats._write_chunked(writes.append, rows, list, head, tail)
        finally:
            formats._CHUNK_CHARS = saved
        text = head + "".join(rows) + tail
        assert "".join(writes) == text and "" not in writes
        if len(text) <= bound:
            assert writes == ([text] if text else [])
        # Each write fits the bound, or is one wider row.
        assert all(len(w) <= bound or w in [head, *rows, tail] for w in writes)

    def test_huge_terms_render_in_full_decimal(self):
        window = SequenceWindow("big", 0, (10**50 + 7,))
        digits = str(10**50 + 7)
        for fmt in ("bfile", "csv", "json", "table"):
            assert digits in format_window(window, fmt)


@pytest.fixture
def unlimited_str():
    # Lift the interpreter's int-to-str digit cap so str() can serve as the
    # reference for big values.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


class TestRenderInt:
    def test_powers_of_ten_and_their_neighbours(self, unlimited_str):
        assert render_int(0) == "0"
        for d in (1, 19, 300, 15_000, 15_100, 15_200, 40_000):
            for value in (10**d - 1, 10**d, 10**d + 1):
                assert render_int(value) == str(value), d
                assert render_int(-value) == str(-value), d

    def test_random_values_around_the_threshold(self, unlimited_str):
        rng = random.Random(7)
        for bits in (1, 64, STR_MAX_BITS - 1, STR_MAX_BITS, STR_MAX_BITS + 1, 2 * STR_MAX_BITS + 5):
            for _ in range(3):
                value = rng.getrandbits(bits) | (1 << (bits - 1))
                assert render_int(value) == str(value), bits

    def test_values_under_the_default_digit_cap(self):
        # Below 50,000 bits but above 4300 digits: render_int must not hand
        # these to str() while the interpreter's default cap is in force.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit cap on this interpreter")
        rng = random.Random(11)
        values = [rng.getrandbits(bits) | (1 << (bits - 1)) for bits in (20_000, 49_000)]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        expected = [str(v) for v in values]
        sys.set_int_max_str_digits(4300)
        try:
            assert [render_int(v) for v in values] == expected
            assert [render_int(-v) for v in values] == ["-" + e for e in expected]
        finally:
            sys.set_int_max_str_digits(saved)

    def test_million_bit_value(self):
        # 30104 repeats of a ten-digit block: just over 10^6 bits, with a
        # decimal expansion known without calling str() on it.
        m = 30_104
        value = 1234567890 * (10 ** (10 * m) - 1) // (10**10 - 1)
        assert value.bit_length() > 10**6
        assert render_int(value) == "1234567890" * m
        assert render_int(value + 1) == "1234567890" * (m - 1) + "1234567891"

    def test_wide_int_windows_under_the_default_digit_cap(self):
        # A library window with a 15,000-digit int renders in every format while
        # the interpreter refuses str() past 4300 digits.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit cap on this interpreter")
        m = 1_500
        big = 1234567890 * (10 ** (10 * m) - 1) // (10**10 - 1)
        window = SequenceWindow("big", 7, (5, big))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            texts = {fmt: format_window(window, fmt) for fmt in ("table", "csv", "json", "bfile")}
        finally:
            sys.set_int_max_str_digits(saved)
        assert texts["bfile"] == "7 5\n8 " + "1234567890" * m + "\n"
        for text in texts.values():
            assert "1234567890" * m in text

    def test_windows_with_big_terms(self, unlimited_str):
        big = 3**40_000
        window = SequenceWindow("big", 5, (1, big, -big))
        expected = "".join(f"{i} {v}\n" for i, v in window.items())
        assert format_bfile(window) == expected
        assert json.loads(format_json(window))["terms"] == ["1", str(big), str(-big)]
