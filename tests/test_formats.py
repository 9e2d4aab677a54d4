import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import formats
from seqforge.formats import STR_MAX_BITS, parse_bfile, render_int
from seqforge.recurrences import SequenceWindow, window

from helpers import format_window, last_index, window_text

WINDOW = SequenceWindow("demo", 2, (4, 9, 25))


class TestBfile:
    def test_shape(self):
        assert format_window(WINDOW, "bfile") == "2 4\n3 9\n4 25\n"

    def test_round_trip_golden(self):
        assert parse_bfile(format_window(WINDOW, "bfile"), name="demo") == WINDOW

    def test_round_trip_large_window(self):
        h = window("H", 300)
        assert parse_bfile(format_window(h, "bfile"), name="H") == h

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

    @settings(max_examples=300)
    @given(
        st.sampled_from(["", "+", "-", " ", "_", "-_"]),
        st.text("0123456789", min_size=641, max_size=700),
        st.lists(st.tuples(st.integers(0, 700), st.sampled_from("_+- \n.a\u0663\u3000")), max_size=3),
    )
    def test_wide_tokens_read_as_int_does(self, head, digits, inserts):
        # Tokens past the 640 digits that int() reads under any cap, but below
        # the default cap: the piecewise reader takes and refuses what int() does.
        token = head + digits
        for at, char in inserts:
            token = token[:at] + char + token[at:]
        try:
            want = int(token)
        except ValueError:
            with pytest.raises(ValueError):
                formats._parse_int(token)
        else:
            assert formats._parse_int(token) == want

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-5, max_value=10),
        st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=20),
    )
    def test_round_trip_property(self, offset, terms):
        window = SequenceWindow("w", offset, tuple(terms))
        assert parse_bfile(format_window(window, "bfile"), name="w") == window


class TestOtherFormats:
    def test_csv(self):
        assert format_window(WINDOW, "csv") == "index,value\n2,4\n3,9\n4,25\n"

    def test_json(self):
        payload = json.loads(format_window(WINDOW, "json"))
        assert payload == {
            "schema": 1,
            "family": "demo",
            "offset": 2,
            "terms": ["4", "9", "25"],
        }

    def test_table_lists_every_index(self):
        text = format_window(WINDOW, "table")
        lines = text.splitlines()
        assert lines[0].startswith("demo")
        assert lines[1:] == ["2  4", "3  9", "4  25"]

    def test_dispatch_and_unknown(self):
        assert format_window(WINDOW, "bfile") == "2 4\n3 9\n4 25\n"
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
        window("H", 40),
    ])
    def test_json_is_the_encoders_text(self, window):
        payload = {
            "schema": 1,
            "family": window.name,
            "offset": window.offset,
            "terms": [str(v) for v in window.terms],
        }
        assert format_window(window, "json") == json.dumps(payload, indent=2) + "\n"

    def test_table_pads_to_the_widest_index(self):
        window = SequenceWindow("w", -12, tuple(range(14)))
        lines = format_window(window, "table").splitlines()
        assert lines[1] == "-12  0" and lines[-1] == "  1  13"

    @pytest.mark.parametrize("chunk", [1, 50, 4096, formats._CHUNK_CHARS])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("window", [
        SequenceWindow("x", 3, ()),
        SequenceWindow('quote " é', -5, (1, -2, 10**30)),
        window("H", 700),
    ], ids=["empty", "short", "h700"])
    def test_every_chunk_size_writes_the_whole_text(self, monkeypatch, window, fmt, chunk):
        monkeypatch.setattr(formats, "_CHUNK_CHARS", chunk)
        writes = []
        formats._write_window(writes.append, fmt, window.name, window.offset, last_index(window), map(str, window.terms))
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
        # A library window with a 15,000-digit int renders in every format, and
        # its b-file reads back, while the interpreter refuses str() and int()
        # past 4300 digits.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit cap on this interpreter")
        m = 1_500
        big = 1234567890 * (10 ** (10 * m) - 1) // (10**10 - 1)
        window = SequenceWindow("big", 7, (5, big))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            texts = {fmt: format_window(window, fmt) for fmt in ("table", "csv", "json", "bfile")}
            parsed = parse_bfile(texts["bfile"], name="big")
        finally:
            sys.set_int_max_str_digits(saved)
        assert texts["bfile"] == "7 5\n8 " + "1234567890" * m + "\n"
        assert parsed == window
        for text in texts.values():
            assert "1234567890" * m in text

    def test_windows_with_big_terms(self, unlimited_str):
        big = 3**40_000
        window = SequenceWindow("big", 5, (1, big, -big))
        expected = "".join(f"{i} {v}\n" for i, v in enumerate(window.terms, window.offset))
        assert format_window(window, "bfile") == expected
        assert json.loads(format_window(window, "json"))["terms"] == ["1", str(big), str(-big)]
