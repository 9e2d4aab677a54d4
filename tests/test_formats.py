import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_million_bit_value(self):
        # 30104 repeats of a ten-digit block: just over 10^6 bits, with a
        # decimal expansion known without calling str() on it.
        m = 30_104
        value = 1234567890 * (10 ** (10 * m) - 1) // (10**10 - 1)
        assert value.bit_length() > 10**6
        assert render_int(value) == "1234567890" * m
        assert render_int(value + 1) == "1234567890" * (m - 1) + "1234567891"

    def test_windows_with_big_terms(self, unlimited_str):
        big = 3**40_000
        window = SequenceWindow("big", 5, (1, big, -big))
        expected = "".join(f"{i} {v}\n" for i, v in window.items())
        assert format_bfile(window) == expected
        assert json.loads(format_json(window))["terms"] == ["1", str(big), str(-big)]
