import contextlib
import decimal
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqforge import cli, formats, identities, recurrences, subsets
from seqforge.cli import build_parser, main
from seqforge.discovery import berlekamp_massey, verify_recurrence
from seqforge.formats import parse_bfile
from seqforge.recurrences import (
    SequenceWindow,
    condition_count,
    min_size_odd_gap_count,
    min_size_odd_gap_seq,
    window,
)
from seqforge.subsets import GAP_ALL_EVEN, GAP_ALL_ODD, GAP_ANY, Condition, count_subsets, enumerate_subsets

from helpers import (
    enumerate_text,
    family_oracle,
    fib_list,
    format_window,
    iter_subsets_raw,
    last_index,
    matches,
    ratio_report,
    schreier_zeckendorf_seq,
    sz_list,
    term,
    window_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error_line(err):
    # Every refusal, argparse's too, is one stderr line, with no usage block.
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class CountingSink:
    """Stand-in for stdout that counts what is written, and keeps each
    write only if asked to."""

    def __init__(self, record=False):
        self.chars = self.lines = 0
        self.writes = [] if record else None

    def write(self, text):
        self.chars += len(text)
        self.lines += text.count("\n")
        if self.writes is not None:
            self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def traced_peak(argv, warm_up):
    """(peak traced bytes, stdout) of one successful run of argv, after one
    run of warm_up to build the parser and finish lazy imports."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(warm_up)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.getvalue()


class TestCount:
    def test_spec_examples(self, capsys):
        assert run_cli(capsys, "count", "--n", "5", "--alpha", "2", "--beta", "1") == (0, "6\n", "")
        assert run_cli(capsys, "count", "--n", "0") == (0, "1\n", "")
        code, out, err = run_cli(
            capsys, "count", "--n", "4", "--gap-parity", "odd", "--min-size", "2"
        )
        assert (code, out) == (0, "7\n")

    def test_exit_3_without_engine(self, capsys):
        # Every shape has an engine now: --beta 2 alone, which exited 3
        # beyond the enumeration limit, counts the subsets with gaps >= 2,
        # F_{n+2}.
        for n in range(13):
            code, out, err = run_cli(capsys, "count", "--n", str(n), "--beta", "2")
            assert (code, int(out), err) == (0, count_subsets(n, Condition(beta=2)), "")
        series = [1, 2]  # a(n) = a(n-1) + a(n-2): the largest element is n or not
        while len(series) <= 40:
            series.append(series[-1] + series[-2])
        assert series[40] == fib_list(42)[42]
        assert run_cli(capsys, "count", "--n", "40", "--beta", "2") == (0, f"{series[40]}\n", "")

    def test_forced_oracle_beyond_limit_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--n", "35", "--alpha", "1", "--beta", "1",
            "--engine", "oracle",
        )
        assert code == 3 and "limit" in err

    def test_recurrence_engine_agrees_with_oracle(self, capsys):
        shapes = [
            ["--alpha", "2", "--beta", "1"],
            ["--alpha", "1", "--beta", "3"],
            ["--gap-parity", "odd", "--min-size", "3"],
            ["--gap-parity", "odd", "--min-size", "0"],
            ["--gap-parity", "even"],
        ]
        for shape in shapes:
            for n in (1, 2, 5, 9, 12):
                fast = run_cli(capsys, "count", "--n", str(n), *shape, "--engine", "recurrence")
                slow = run_cli(capsys, "count", "--n", str(n), *shape, "--engine", "oracle")
                assert fast[0] == slow[0] == 0
                assert fast[1] == slow[1]

    def test_recurrence_engine_contain_n_families(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "10", "--gap-parity", "odd",
            "--forced-max", "10", "--engine", "recurrence",
        )
        assert (code, out) == (0, "89\n")
        code, out, _ = run_cli(
            capsys, "count", "--n", "9", "--gap-parity", "even",
            "--forced-max", "9", "--engine", "recurrence",
        )
        assert (code, out) == (0, "16\n")

    def test_large_n_via_recurrence(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "40", "--alpha", "2", "--beta", "1")
        assert code == 0
        assert int(out) == term(schreier_zeckendorf_seq(2, 1, 40), 40)
        code, out, _ = run_cli(
            capsys, "count", "--n", "200", "--gap-parity", "odd", "--min-size", "3"
        )
        assert code == 0 and int(out) == min_size_odd_gap_count(200, 3)

    def test_alpha_alone_is_beta_one(self, capsys):
        for alpha in (1, 2, 3):
            for n in range(1, 19):
                code, out, _ = run_cli(
                    capsys, "count", "--n", str(n), "--alpha", str(alpha), "--engine", "recurrence"
                )
                assert (code, int(out)) == (0, count_subsets(n, Condition(alpha=alpha)))
        code, out, _ = run_cli(capsys, "count", "--n", "60", "--alpha", "2")
        assert (code, int(out)) == (0, term(schreier_zeckendorf_seq(2, 1, 60), 60))

    def test_parity_shapes_with_size_bound_and_forced_max(self, capsys):
        for parity, flag in ((GAP_ALL_ODD, "odd"), (GAP_ALL_EVEN, "even")):
            for min_size in (1, 2, 4):
                for n in (1, 6, 11):
                    for forced in (None, n, (n + 1) // 2):
                        extra = () if forced is None else ("--forced-max", str(forced))
                        code, out, _ = run_cli(
                            capsys, "count", "--n", str(n), "--gap-parity", flag,
                            "--min-size", str(min_size), *extra, "--engine", "recurrence",
                        )
                        cond = Condition(gap_parity=parity, min_size=min_size, forced_max=forced)
                        assert (code, int(out)) == (0, count_subsets(n, cond)), (flag, min_size, n, forced)
        code, _, _ = run_cli(
            capsys, "count", "--n", "40", "--gap-parity", "even", "--min-size", "2",
            "--forced-max", "40",
        )
        assert code == 0

    def test_empty_ambient_set(self, capsys):
        for shape in ([], ["--alpha", "2"], ["--gap-parity", "odd"], ["--gap-parity", "even"]):
            assert run_cli(capsys, "count", "--n", "0", *shape, "--engine", "recurrence") == (0, "1\n", "")
            assert run_cli(
                capsys, "count", "--n", "0", *shape, "--min-size", "1", "--engine", "recurrence"
            )[:2] == (0, "0\n")

    def test_uncovered_shape_within_the_limit(self, capsys):
        # The shapes the closed forms left uncovered, through the engine.
        shapes = [
            ["--beta", "2"],
            ["--alpha", "2", "--gap-parity", "odd"],
            ["--alpha", "2", "--min-size", "3"],
            ["--beta", "3", "--gap-parity", "even", "--min-size", "2"],
            ["--alpha", "1", "--beta", "2", "--gap-parity", "odd", "--min-size", "1"],
        ]
        for shape in shapes:
            for n in range(13):
                fast = run_cli(capsys, "count", "--n", str(n), *shape, "--engine", "recurrence")
                slow = run_cli(capsys, "count", "--n", str(n), *shape, "--engine", "oracle")
                assert fast == slow and fast[0] == 0, (shape, n)
        # Bounds far beyond n leave the empty set and the singletons.
        for shape, want in ((["--alpha", "1000000000"], "1\n"), (["--beta", "1000000000"], "11\n")):
            assert run_cli(capsys, "count", "--n", "10", *shape) == (0, want, "")
            assert run_cli(capsys, "count", "--n", "10", *shape, "--engine", "oracle") == (0, want, "")
        code, _, err = run_cli(capsys, "count", "--n", "-1", "--alpha", "2", "--engine", "recurrence")
        assert code == 2 and "n must be >= 0" in err

    @staticmethod
    def count_peak(argv):
        """(peak traced bytes, stdout) of one `count` run."""
        return traced_peak(argv, argv[:2] + ["5"] + argv[3:])

    def test_odd_gap_count_memory_is_linear_in_the_output(self):
        argv = ["count", "--n", "300000", "--gap-parity", "odd", "--engine", "recurrence"]
        peak, out = self.count_peak(argv)
        # The count has 62,698 digits. An O(n*k) DP over Fibonacci windows
        # held Theta(n^2) bits here and ran out of memory.
        assert peak <= 6 * len(out)

    def test_generating_function_count_memory_is_linear_in_the_output(self):
        peak, out = self.count_peak(["count", "--n", "300000", "--beta", "2"])
        assert len(out) == 62_698  # F_300002, with its newline
        assert peak <= 6 * len(out)

    def test_env_var_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQFORGE_ENUM_LIMIT", "10")
        code, _, err = run_cli(capsys, "count", "--n", "12", "--engine", "oracle")
        assert code == 3 and "limit 10" in err
        # an explicit flag takes precedence over the environment
        code, out, _ = run_cli(capsys, "count", "--n", "12", "--enum-limit", "12", "--engine", "oracle")
        assert (code, out) == (0, "4096\n")
        # the engine does not enumerate, so the limit does not bind it
        assert run_cli(capsys, "count", "--n", "12") == (0, "4096\n", "")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "0"],
        ["count", "--n", "0", "--engine", "oracle"],
        ["count", "--n", "3"],  # reads no limit, yet refuses a bad one
        ["verify", "--id", "fib-h"],
    ])
    def test_negative_limit_is_usage_error(self, capsys, monkeypatch, argv):
        refused = (2, "", "error: limit must be >= 0\n")
        assert run_cli(capsys, *argv, "--enum-limit", "-1") == refused
        monkeypatch.setenv("SEQFORGE_ENUM_LIMIT", "-1")
        assert run_cli(capsys, *argv) == refused

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQFORGE_ENUM_LIMIT", "lots")
        code, _, err = run_cli(capsys, "count", "--n", "3")
        assert code == 2 and "SEQFORGE_ENUM_LIMIT" in err

    def test_missing_n_is_usage_error(self, capsys):
        assert run_cli(capsys, "count") == (2, "", "error: missing required flag --n\n")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_count_argv(self, data):
        # --enum-limit stays at most 14, so no oracle scan passes 2**14.
        n = data.draw(st.integers(-2, 40), label="n")
        argv = ["count", "--n", str(n), "--enum-limit", str(data.draw(st.integers(-1, 14)))]
        for flag, values in (
            ("--alpha", st.integers(-1, 5)),
            ("--beta", st.integers(-1, 5)),
            ("--gap-parity", st.sampled_from(["any", "odd", "even"])),
            ("--min-size", st.integers(-1, 6)),
            ("--forced-max", st.integers(-1, 42)),
            ("--engine", st.sampled_from(["auto", "oracle", "recurrence"])),
        ):
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                argv += [flag, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = err.getvalue()
        assert code in (0, 2, 3), (argv, errors)
        assert errors.count("error:") <= 1 and "Traceback" not in errors, argv
        assert (code == 0) == (errors == ""), argv
        if code == 0 and n <= 12:
            oracle = io.StringIO()
            with contextlib.redirect_stdout(oracle):
                assert main([*argv, "--engine", "oracle", "--enum-limit", "12"]) == 0
            assert out.getvalue() == oracle.getvalue(), argv


class TestDecimalCount:
    """Past the switch `count` computes in exact decimal and prints str() of
    an integral Decimal: the same text as the library's int."""

    @staticmethod
    def printed(capsys, monkeypatch, argv):
        """(stdout, the value cli._recurrence_count returned) of argv."""
        returned = []
        real = cli._recurrence_count

        def spy(n, cond):
            returned.append(real(n, cond))
            return returned[-1]

        monkeypatch.setattr(cli, "_recurrence_count", spy)
        code, out, err = run_cli(capsys, "count", *argv, "--engine", "recurrence")
        assert (code, err) == (0, "")
        (value,) = returned
        return out, value

    @pytest.mark.parametrize("shape", [
        # Toom orders 3 to 8, nonnegative taps
        ("--alpha", "1", "--beta", "2"),
        ("--alpha", "2", "--beta", "2"),
        ("--alpha", "2", "--beta", "3"),
        ("--alpha", "3", "--beta", "3"),
        ("--alpha", "3", "--beta", "4"),
        ("--alpha", "4", "--beta", "4"),
        # under a parity E = 1 - x^2 - x^h, order 2 to 5
        ("--alpha", "1", "--gap-parity", "odd"),
        ("--alpha", "2", "--gap-parity", "odd"),
        ("--alpha", "2", "--gap-parity", "even"),
        ("--alpha", "3", "--gap-parity", "even"),
        # order 2
        ("--beta", "2"),
        ("--alpha", "1", "--beta", "1"),
        # size classes off the total, and a difference of two counts
        ("--alpha", "2", "--min-size", "3"),
        ("--beta", "3", "--gap-parity", "even", "--min-size", "2"),
        ("--alpha", "2", "--beta", "2", "--forced-max", "79000"),
    ])
    def test_carried_powers(self, capsys, monkeypatch, shape):
        # A lowered width, so that powers of 20,000 bits and more carry.
        from decimal import Decimal

        from seqforge import fasteval

        monkeypatch.setattr(fasteval, "_CARRY_WIDTH", 8192)
        n = 80_000
        out, value = self.printed(capsys, monkeypatch, ("--n", str(n), *shape))
        assert isinstance(value, Decimal) and value.as_tuple().exponent == 0
        args = build_parser().parse_args(["count", "--n", str(n), *shape])
        assert out == str(condition_count(n, cli._build_condition(args))) + "\n"

    @pytest.mark.parametrize("argv", [
        ("--n", "50000", "--gap-parity", "odd"),
        ("--n", "40000", "--gap-parity", "even"),
        ("--n", "50000", "--gap-parity", "odd", "--min-size", "4"),
        ("--n", "40000", "--gap-parity", "even", "--min-size", "2"),
        ("--n", "50000", "--gap-parity", "odd", "--forced-max", "45000"),
        ("--n", "40000", "--gap-parity", "even", "--min-size", "1", "--forced-max", "39999"),
        ("--n", "250000", "--beta", "2"),
        ("--n", "300000", "--alpha", "1", "--beta", "2"),
        ("--n", "200000", "--gap-parity", "even", "--forced-max", "200000"),
    ])
    def test_past_the_switch(self, capsys, monkeypatch, argv):
        from decimal import Decimal

        out, value = self.printed(capsys, monkeypatch, argv)
        assert isinstance(value, Decimal)
        args = build_parser().parse_args(["count", *argv])
        assert out == str(condition_count(args.n, cli._build_condition(args))) + "\n"

    @pytest.mark.parametrize("argv", [
        ("--n", "20000", "--gap-parity", "odd"),
        ("--n", "150000", "--alpha", "2", "--beta", "4"),
        ("--n", "20000", "--gap-parity", "even", "--forced-max", "20000"),
        ("--n", "12", "--alpha", "2"),
    ])
    def test_below_the_switch_the_count_is_an_int(self, capsys, monkeypatch, argv):
        out, value = self.printed(capsys, monkeypatch, argv)
        assert type(value) is int
        assert out == str(value) + "\n"


class TestEntryPoints:
    @staticmethod
    def env():
        src = Path(cli.__file__).resolve().parents[1]
        return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def python(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=self.env())

    def test_python_dash_m(self):
        done = self.python("-m", "seqforge.cli", "count", "--n", "5", "--alpha", "2", "--beta", "1")
        assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")
        done = self.python("-m", "seqforge.cli", "verify", "--id", "ratio", "--threshold", "1/0")
        assert (done.returncode, done.stdout) == (2, "")
        assert "not an exact rational: '1/0'" in done.stderr

    def test_cold_start_builds_no_decimal_context(self):
        script = (
            "import contextlib, io\n"
            "from seqforge import cli, recurrences\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['count', '--n', '5'])\n"
            "    assert recurrences._exact_context.cache_info().currsize == 0\n"
            "    cli.main(['count', '--n', '100000', '--gap-parity', 'even'])\n"
            "assert recurrences._exact_context.cache_info().currsize == 1\n"
        )
        done = self.python("-c", script)
        assert done.returncode == 0, done.stderr

    def test_cold_start_imports_no_decimal_or_fractions(self):
        # A count, and a discovery whose coefficients are all integral, need
        # neither module.
        script = (
            "import contextlib, io, sys\n"
            "from seqforge import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['count', '--n', '5']) == 0\n"
            "    assert cli.main(['discover', '--alpha', '2', '--beta', '3']) == 0\n"
            "print(sorted({'decimal', 'fractions'} & set(sys.modules)))\n"
        )
        done = self.python("-c", script)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv", [
        ["seq", "--family", "fib", "--to", "20000"],
        ["enumerate", "--n", "20"],
    ])
    def test_closed_stdout_ends_the_output(self, argv):
        # `seqforge ... | head -c 10`: the reader goes after 10 bytes, and
        # the run still exits 0 with nothing on stderr.
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqforge.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), len(head), err) == (0, 10, b"")


class TestSeq:
    def test_bfile_golden(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--family", "H", "--to", "6", "--format", "bfile")
        assert code == 0
        assert out == "0 0\n1 1\n2 3\n3 7\n4 14\n5 26\n6 46\n"

    def test_bfile_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--family", "H", "--to", "100", "--format", "bfile")
        assert code == 0
        assert parse_bfile(out, name="H") == window("H", 100)

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "seq", "--family", "genfib", "--n", "3", "--to", "12", "--format", "bfile")
        second = run_cli(capsys, "seq", "--family", "genfib", "--n", "3", "--to", "12", "--format", "bfile")
        assert first == second and first[0] == 0

    def test_genfib_table_row(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--family", "genfib", "--n", "3", "--to", "12", "--format", "csv")
        values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert values == ["0", "1", "1", "1", "2", "3", "4", "6", "9", "13", "19", "28", "41"]

    def test_minsize_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--family", "minsize-oddgap", "--k", "3", "--to", "12", "--format", "bfile"
        )
        assert code == 0
        got = [int(line.split()[1]) for line in out.splitlines()]
        assert got == [0, 0, 1, 3, 8, 17, 34, 63, 113, 196, 334, 560]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--family", "fib", "--to", "10", "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["family"] == "fib"
        assert payload["offset"] == 0
        assert payload["terms"] == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34", "55"]

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "seq", "--family", "fib", "--to", "2", "--format", "csv")
        assert out == "index,value\n0,0\n1,1\n2,1\n"

    def test_from_clips_window(self, capsys):
        _, out, _ = run_cli(
            capsys, "seq", "--family", "H", "--from", "4", "--to", "6", "--format", "bfile"
        )
        assert out == "4 14\n5 26\n6 46\n"

    def test_schreier_zeckendorf_family(self, capsys):
        _, out, _ = run_cli(
            capsys, "seq", "--family", "schreier-zeckendorf",
            "--alpha", "1", "--beta", "1", "--to", "5", "--format", "bfile",
        )
        assert out == "1 2\n2 3\n3 5\n4 8\n5 13\n"

    @pytest.mark.parametrize("alpha, beta", [(10**9, 1), (1, 10**9)])
    def test_schreier_zeckendorf_huge_bounds(self, capsys, alpha, beta):
        # No term past --to of the generating function's parts is built.
        code, out, err = run_cli(
            capsys, "seq", "--family", "schreier-zeckendorf",
            "--alpha", str(alpha), "--beta", str(beta), "--to", "10", "--format", "bfile",
        )
        want = "".join(f"{n} {v}\n" for n, v in enumerate(sz_list(alpha, beta, 10), 1))
        assert (code, out, err) == (0, want, "")

    def test_minsize_family_large_k(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--family", "minsize-oddgap", "--k", "5000", "--to", "10", "--format", "csv")
        assert (code, out, err) == (0, "index,value\n" + "".join(f"{n},0\n" for n in range(1, 11)), "")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    def test_from_past_the_end_is_usage_error(self, capsys, fmt):
        # --from one past --to would leave an empty window.
        code, out, err = run_cli(capsys, "seq", "--family", "H", "--to", "0", "--from", "1", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: clip start 1 beyond window end 0\n"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_seq_argv(self, data):
        family = data.draw(st.sampled_from([*cli.FAMILIES, "lucas"]), label="family")
        to = data.draw(st.integers(-1, 400), label="to")
        start = data.draw(st.none() | st.integers(-2, to + 2), label="from")
        fmt = data.draw(st.sampled_from(["table", "csv", "json", "bfile"]), label="format")
        argv = ["seq", "--family", family, "--to", str(to), "--format", fmt]
        takes = {name for name, _ in cli.FAMILIES[family].bounds} if family in cli.FAMILIES else set()
        params = {}
        for dest in ("alpha", "beta", "n", "k"):
            # A flag the family does not take is a usage error, so it is
            # drawn for one argv in sixteen, each, and most argv reach the window.
            if dest not in takes and data.draw(st.integers(0, 15), label=f"{dest} drawn") > 0:
                continue
            value = data.draw(st.none() | st.integers(-1, 12), label=dest)
            if value is not None:
                params[dest] = value
                argv += [f"--{dest}", str(value)]
        if start is not None:
            argv += ["--from", str(start)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = err.getvalue()
        assert code in (0, 2), (argv, errors)
        assert "Traceback" not in errors, argv
        assert (code == 0) == (errors == ""), argv
        assert code == 0 or (errors.startswith("error: ") and errors.count("\n") == 1), argv
        assert code == 2 or params.keys() <= takes, argv
        if code == 0:
            bfile = io.StringIO()
            with contextlib.redirect_stdout(bfile):
                assert main([*argv, "--format", "bfile"]) == 0
            offset, terms = family_oracle(family, params, to)
            first = offset if start is None else max(start, offset)
            want = "".join(f"{i} {terms[i - offset]}\n" for i in range(first, to + 1))
            assert want and bfile.getvalue() == want, argv

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--family", "lucas", "--to", "5")
        assert code == 2 and "unknown family" in err

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--family", "genfib", "--to", "5")
        assert code == 2 and "--n" in err

    @pytest.mark.parametrize(
        "family, flags, name",
        [
            ("fib", ["--alpha", "3"], "alpha"),
            ("H", ["--n", "3"], "n"),
            ("genfib", ["--n", "3", "--k", "2"], "k"),
            ("schreier-zeckendorf", ["--alpha", "1", "--beta", "1", "--n", "4"], "n"),
            ("minsize-oddgap", ["--k", "2", "--beta", "1"], "beta"),
        ],
    )
    def test_a_flag_the_family_does_not_take_is_usage_error(self, capsys, family, flags, name):
        # As family_spec refuses the same parameter in the library.
        code, out, err = run_cli(capsys, "seq", "--family", family, *flags, "--to", "5")
        assert (code, out, err) == (2, "", f"error: family {family!r} has no parameter {name!r}\n")

    def test_terms_beyond_interpreter_str_cap_render(self, capsys):
        # Fibonacci near index 21000 tops 4300 digits, the interpreter's
        # default int-to-str cap; output must still be full decimal.
        code, out, _ = run_cli(
            capsys, "seq", "--family", "fib", "--from", "21000", "--to", "21002",
            "--format", "bfile",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        first = lines[0].split()
        assert first[0] == "21000" and len(first[1]) > 4300

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "window.bfile"
        code, out, _ = run_cli(capsys, "seq", "--family", "H", "--to", "20", "--format", "bfile")
        code2, out2, _ = run_cli(
            capsys, "seq", "--family", "H", "--to", "20", "--format", "bfile",
            "--output", str(path),
        )
        assert code == code2 == 0 and out2 == ""
        assert path.read_text() == out


class TestFamilyTable:
    """`seq` and recurrences.window read each family from one row of
    recurrences.FAMILIES."""

    PARAMS = {"alpha": 2, "beta": 3, "n": 3, "k": 3}

    def test_parameters_are_seq_flags(self):
        dests = {spec.get("dest", flag[2:]) for flag, spec in cli.SCHEMA["seq"][1].items()}
        assert {family for family, *_ in CARRIED} == set(cli.FAMILIES)
        for family, row in cli.FAMILIES.items():
            assert {name for name, _ in row.bounds} <= dests, family

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("family", list(recurrences.FAMILIES))
    def test_seq_prints_the_window_function(self, capsys, family, fmt):
        params = {name: self.PARAMS[name] for name, _ in cli.FAMILIES[family].bounds}
        flags = [arg for name, value in params.items() for arg in (f"--{name}", str(value))]
        for to in (1, 7):
            code, out, err = run_cli(capsys, "seq", "--family", family, *flags, "--to", str(to), "--format", fmt)
            assert (code, out, err) == (0, format_window(window(family, to, **params), fmt), "")

    @pytest.mark.parametrize("family, name", [
        (family, name) for family, row in recurrences.FAMILIES.items() for name, _ in row.bounds
    ])
    def test_parameter_past_sys_maxsize(self, capsys, family, name):
        # A lead, lag or run of P that long is cut to sys.maxsize, past which
        # no window reads, so the terms are exact.
        params = {other: least for other, least in cli.FAMILIES[family].bounds}
        params[name] = 10**20
        flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
        to = 12
        code, out, err = run_cli(capsys, "seq", "--family", family, *flags, "--to", str(to), "--format", "bfile")
        assert (code, err) == (0, "")
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
        if family == "schreier-zeckendorf":
            cond = Condition(alpha=params["alpha"], beta=params["beta"])
        elif family == "minsize-oddgap":
            cond = Condition(gap_parity=GAP_ALL_ODD, min_size=params["k"])
        else:  # no window this short tells n from to + 1
            offset, terms = family_oracle(family, {"n": to + 1}, to)
            assert rows == list(enumerate(terms, offset))
            return
        assert rows == [(i, condition_count(i, cond)) for i in range(1, to + 1)]

    @pytest.mark.parametrize("family", list(recurrences.FAMILIES))
    def test_last_index_past_sys_maxsize_is_usage_error(self, capsys, family):
        params = {name: self.PARAMS[name] for name, _ in cli.FAMILIES[family].bounds}
        flags = [arg for name, value in params.items() for arg in (f"--{name}", str(value))]
        code, out, err = run_cli(capsys, "seq", "--family", family, *flags, "--to", str(sys.maxsize))
        assert (code, out) == (2, "")
        assert err == f"error: --to must be < {sys.maxsize}\n"

    @pytest.mark.parametrize("family", list(recurrences.FAMILIES))
    def test_last_index_below_first_is_usage_error(self, capsys, family):
        params = {name: self.PARAMS[name] for name, _ in cli.FAMILIES[family].bounds}
        flags = [arg for name, value in params.items() for arg in (f"--{name}", str(value))]
        first = cli.FAMILIES[family].first
        for to in (first - 1, -5):
            code, out, err = run_cli(capsys, "seq", "--family", family, *flags, "--to", str(to))
            assert (code, out, err) == (2, "", f"error: --to must be >= {first}\n")


# (family, flags, a library window call with the same parameters, --to
# just past the width from which `seq` once read a window again in
# decimal). That width grew with the running sums of the family's
# generating function: none for fib, genfib and schreier-zeckendorf, one for
# genk, two for H and genh, k + k - 2 for minsize-oddgap.
CARRIED = [
    ("fib", (), lambda to: window("fib", to), 3_000),
    ("H", (), lambda to: window("H", to), 3_300),
    ("schreier-zeckendorf", ("--alpha", "2", "--beta", "3"),
     lambda to: schreier_zeckendorf_seq(2, 3, to), 5_200),
    ("genfib", ("--n", "3"), lambda to: window("genfib", to, n=3), 3_700),
    ("genk", ("--n", "4"), lambda to: window("genk", to, n=4), 4_500),
    ("genh", ("--n", "2"), lambda to: window("genh", to, n=2), 3_300),
    ("minsize-oddgap", ("--k", "3"), lambda to: min_size_odd_gap_seq(to, 3), 3_500),
]


def clipped(window, start):
    # The window as `seq --from start` prints it, start >= its offset.
    if start is None:
        return window
    return SequenceWindow(window.name, start, window.terms[start - window.offset :])


class TestSeqCarried:
    """`seq` reads every window in integral Decimals and prints it by str();
    its text must be that of the library's int window."""

    @staticmethod
    def check(out, window, start, fmt, argv):
        # out is the window's text with every term printed by str() of its
        # int. A mismatch names its first line, as a diff of megabytes of
        # text would take minutes.
        want = window_text(clipped(window, start), fmt)
        if out != want:
            lines = zip(out.splitlines(), want.splitlines())
            line = next((i for i, (a, b) in enumerate(lines) if a != b), None)
            pytest.fail(f"{argv}: first difference at line {line}")

    def compare(self, capsys, family, flags, lib, fmt):
        # No --from, one in the head, one in the tail.
        assert all(type(v) is int for v in lib.terms)
        to = last_index(lib)
        for start in (None, lib.offset + 2, to - 3):
            argv = ["seq", "--family", family, *flags, "--to", str(to), "--format", fmt]
            argv += [] if start is None else ["--from", str(start)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            self.check(out, lib, start, fmt, argv)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("family, flags, window, to", CARRIED, ids=[c[0] for c in CARRIED])
    def test_wide_window_matches_the_int_window(self, capsys, family, flags, window, to, fmt):
        self.compare(capsys, family, flags, window(to), fmt)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("family, flags, window, to", CARRIED, ids=[c[0] for c in CARRIED])
    def test_narrow_window_stays_int(self, capsys, family, flags, window, to, fmt):
        # At 3/5 of that index the last term is narrow, and the text is still
        # that of the int window.
        self.compare(capsys, family, flags, window(to * 3 // 5), fmt)

    def test_every_family_is_read_in_integral_decimals(self):
        params = {"alpha": 2, "beta": 3, "n": 3, "k": 3}
        for family, row in cli.FAMILIES.items():
            needs = {dest: params[dest] for dest, _ in row.bounds}
            gf = recurrences.family_spec(family, **needs)[2]
            with decimal.localcontext(recurrences._exact_context()):
                terms = list(islice(gf.series(decimal.Decimal), 61))
            assert isinstance(terms[-1], decimal.Decimal), family
            assert terms[-1].as_tuple().exponent == 0, family

    def test_library_and_context_are_untouched(self, capsys):
        before = decimal.getcontext()
        saved = (before.prec, before.rounding, before.traps.copy(), before.flags.copy())
        for family, flags, window, to in CARRIED:
            assert run_cli(capsys, "seq", "--family", family, *flags, "--to", str(to))[0] == 0
            lib = window(to)
            assert all(type(v) is int for v in lib.terms), family
        after = decimal.getcontext()
        assert after is before
        assert (after.prec, after.rounding, after.traps, after.flags) == saved

    @pytest.mark.parametrize("to", [1, 2, 60, 700])
    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    @pytest.mark.parametrize("family, flags, window, _", CARRIED, ids=[c[0] for c in CARRIED])
    def test_streamed_text_is_the_library_windows(self, capsys, family, flags, window, _, fmt, to):
        lib = window(to)
        for start in (None, min(lib.offset + 2, to), max(to - 3, lib.offset)):
            argv = ["seq", "--family", family, *flags, "--to", str(to), "--format", fmt]
            argv += [] if start is None else ["--from", str(start)]
            code, out, err = run_cli(capsys, *argv)
            want = clipped(lib, start)
            assert (code, err) == (0, ""), argv
            assert out == format_window(want, fmt) == window_text(want, fmt), argv

    WIDE = ["seq", "--family", "fib", "--to", "20000", "--format", "bfile"]
    # Holding the window, its rows and the joined text at once took a 100 MiB
    # traced peak for these 40 MiB of text; streaming them takes under 1 MiB.
    PEAK_BOUND = 2 << 20

    def test_wide_window_memory_is_one_chunk(self):
        sink = CountingSink()
        with contextlib.redirect_stdout(CountingSink()):
            main(["seq", "--family", "fib", "--to", "5"])  # lazy imports
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(self.WIDE) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 40 * 10**6 and sink.lines == 20001
        assert peak < self.PEAK_BOUND, peak

    def test_wide_window_is_written_in_chunks(self):
        sink = CountingSink(record=True)
        with contextlib.redirect_stdout(sink):
            assert main(self.WIDE) == 0
        assert len(sink.writes) > 1
        for text in sink.writes:
            assert len(text) <= formats._CHUNK_CHARS or text.count("\n") == 1, len(text)
        assert "".join(sink.writes) == format_window(window("fib", 20000), "bfile")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
    def test_large_k_prints_at_once(self, capsys, fmt):
        # A thousand-fold running sum over ten zeros.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "seq", "--family", "minsize-oddgap", "--k", "5000", "--to", "10", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == format_window(min_size_odd_gap_seq(10, 5000), fmt)
        assert time.perf_counter() - start < 5


class TestVerify:
    def test_fib_h_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "fib-h", "--to", "200")
        assert code == 0 and "fib-h: PASS" in out

    def test_gen_shift_with_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "gen-shift", "--n", "3", "--to", "300")
        assert code == 0 and "gen-shift[n=3]: PASS" in out

    def test_ratio_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "ratio", "--to", "60", "--threshold", "1e-3"
        )
        assert code == 0 and "ratio: PASS" in out

    @pytest.mark.parametrize("to", [1, 2, 3, 10, 60, 250])
    def test_ratio_line_matches_the_oracle(self, capsys, to):
        code, out, _ = run_cli(capsys, "verify", "--id", "ratio", "--to", str(to), "--threshold", "1")
        assert code == 0
        assert out.splitlines()[-1] == f"  1 - r_{to} = {ratio_report(to).final_gap}  (threshold 1)"

    def test_default_threshold_is_one_in_a_thousand(self, capsys, tmp_path):
        # 1 - r_to is 0 at --to 1 and 2, then drops below 1/1000 for good at
        # --to first. There the check passes, and at the --to before it
        # fails: with no --threshold, with a config null, and with
        # --threshold 1/1000 alike, row for row.
        gaps = [1 - sample.value for sample in ratio_report(60).samples]
        first = 1 + max(to for to, gap in enumerate(gaps, 1) if gap >= Fraction(1, 1000))
        assert first <= 60 and gaps[first - 1] < Fraction(1, 1000)
        cfg = tmp_path / "cfg.json"
        for to, verdict in ((first - 1, 1), (first, 0)):
            cfg.write_text(json.dumps({"identity": "ratio", "to": to, "threshold": None}))
            explicit = run_cli(capsys, "verify", "--id", "ratio", "--to", str(to), "--threshold", "1/1000")
            assert explicit[0] == verdict and explicit[1].endswith("  (threshold 0.001)\n"), explicit
            assert run_cli(capsys, "verify", "--id", "ratio", "--to", str(to)) == explicit
            assert run_cli(capsys, "verify", "--config", str(cfg)) == explicit

    @pytest.mark.parametrize("to", [0, -3])
    def test_ratio_below_one_is_usage_error(self, capsys, to):
        assert run_cli(capsys, "verify", "--id", "ratio", "--to", str(to)) == (2, "", "error: --to must be >= 1\n")

    def test_ratio_impossible_threshold_fails(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--id", "ratio", "--to", "60", "--threshold", "0")
        assert code == 1 and "ratio: FAIL" in out
        assert err == "error: identity check failed: ratio\n"

    def test_zero_denominator_threshold_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"identity": "ratio", "threshold": "1/0"}))
        for argv in (["--id", "ratio", "--threshold", "1/0"], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert (code, out) == (2, ""), argv
            assert err.count("error:") == 1 and "Traceback" not in err, argv
            assert "not an exact rational: '1/0'" in err, argv

    @pytest.mark.parametrize("text", ["1e999999999", "-2.5E-999999999", "1e+0_0_123_456", "3e00012345"])
    def test_wide_exponent_threshold_is_usage_error(self, capsys, tmp_path, text):
        # Fraction would build 10**exponent before returning.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"identity": "ratio", "threshold": text}))
        for argv in (["--id", "ratio", f"--threshold={text}"], ["--config", str(cfg)]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "verify", *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, ""), argv
            assert err.count("error:") == 1 and "Traceback" not in err, argv
            assert f"exponent wider than 4 digits: {text!r}" in err, argv

    @pytest.mark.parametrize("text, shown", [
        ("1e-0009999", "0." + "0" * 9998 + "1"), ("5e3", "5000"), ("1E+0000010", "10000000000"),
    ])
    def test_four_digit_exponent_threshold_is_read(self, capsys, text, shown):
        code, out, err = run_cli(capsys, "verify", "--id", "ratio", "--to", "30", "--threshold", text)
        assert code in (0, 1) and out.splitlines()[-1].endswith(f"(threshold {shown})"), out

    @pytest.mark.parametrize("argv", [
        ["--id", "oddgap-h", "--oracle-to", "40"],
        ["--id", "oddgap-h", "--oracle-to", "13", "--enum-limit", "12"],
        ["--id", "bijection", "--to", "13", "--enum-limit", "12"],
        ["--id", "all", "--enum-limit", "11"],
    ])
    def test_enumerating_checks_refuse_before_any_work(self, capsys, monkeypatch, argv):
        # The largest n a check would scan is tested against the limit before
        # the first scan, so an oracle search here is already too late. The
        # bijection check hands its largest n to enumerate_subsets, whose
        # eager check is that test.
        class Enumerated(BaseException):
            """Escapes main(), which catches only Exception."""

        def spy(*args):
            raise Enumerated(args)

        monkeypatch.setattr(subsets, "_search", spy)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("error: n=") and "exhaustive-enumeration limit" in err
        assert err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_verify_argv(self, data):
        # --enum-limit stays at most 12, so no check scans past 2**12 subsets.
        identity = data.draw(st.sampled_from([*cli.IDENTITIES, "all", "fermat"]), label="id")
        argv = ["verify", "--id", identity, "--enum-limit", str(data.draw(st.integers(-1, 12)))]
        for flag, values in (
            ("--to", st.integers(-3, 40) | st.sampled_from(["", "x", "1e3", "10**6"])),
            ("--n", st.integers(-3, 10)),
            ("--oracle-to", st.integers(-3, 14)),
            ("--threshold", THRESHOLDS),
            ("--format", st.sampled_from(["table", "json", "xml"])),
        ):
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                argv.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = err.getvalue()
        assert code in (0, 1, 2, 3), (argv, errors)
        assert errors.count("error:") <= 1 and "Traceback" not in errors, argv
        assert (code == 0) == (errors == ""), argv

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fuzzed_verify_config(self, data):
        # Each value goes in as a flag, in the config file, or not at all;
        # --enum-limit stays at most 12, so no check scans past 2**12 subsets.
        identity = data.draw(st.sampled_from([*cli.IDENTITIES, "all", "fermat"]), label="id")
        argv, config = ["verify"], {}
        for dest, values in (
            ("identity", st.just(identity)),
            ("n", st.integers(-2, 6)),
            ("to", st.integers(-2, 40)),
            ("oracle_to", st.integers(-2, 10)),
            ("enum_limit", st.integers(-1, 12)),
            ("threshold", st.sampled_from(["1/1000", "1e-3", "0", "-1", "2/3", "1/0", "x", "1e99999"])),
        ):
            value = data.draw(values, label=dest)
            where = data.draw(st.sampled_from(["flag", "config"]), label=f"{dest} in")
            if dest in ("identity", "enum_limit") or data.draw(st.booleans(), label=f"{dest} given"):
                if where == "config":
                    config[dest] = value
                else:
                    flag = "--id" if dest == "identity" else "--" + dest.replace("_", "-")
                    argv.append(f"{flag}={value}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "verify.json"
            path.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(path)])
        errors = err.getvalue()
        assert code in (0, 1, 2, 3), (argv, config, errors)
        assert errors.count("error:") <= 1 and "Traceback" not in errors, (argv, config)
        assert (code == 0) == (errors == ""), (argv, config)

    # gen-sum reads genfib from index n + 1, gen-shift from 2n; "all" stops
    # at gen-sum, the first check given --n.
    @pytest.mark.parametrize("identity, bound", [
        ("gen-sum", f"index {10**20} of genfib[{10**20 - 1}] is past 2000000"),
        ("gen-shift", f"index {2 * 10**20 - 2} of genfib[{10**20 - 1}] is past 2000000"),
        ("all", f"index {10**20} of genfib[{10**20 - 1}] is past 2000000"),
    ], ids=["gen-sum", "gen-shift", "all"])
    def test_order_past_sys_maxsize_is_usage_error(self, capsys, identity, bound):
        code, out, err = run_cli(capsys, "verify", "--id", identity, "--n", "99999999999999999999", "--to", "3")
        assert (code, out, err) == (2, "", f"error: {bound}\n")

    @pytest.mark.parametrize("to", ["1", "-5", "5"])
    def test_bijection_range_below_a_lag_is_usage_error(self, capsys, to):
        # The battery's largest lag is alpha + beta = 6; below it some pairs
        # would have no n to check, yet print PASS.
        code, out, err = run_cli(capsys, "verify", "--id", "bijection", "--to", to)
        assert (code, out) == (2, "")
        assert err.startswith("error: n_max must be >= alpha + beta") and err.count("\n") == 1

    @pytest.mark.parametrize("half", ["drop_max_shift_down", "shift_up_adjoin_max"])
    def test_a_wrong_bijection_half_exits_1(self, capsys, monkeypatch, half):
        # Neither wrong half shifts by alpha; each still makes valid subsets,
        # so the check fails rather than refusing its input.
        wrong = {
            "drop_max_shift_down": lambda s, n, a, b: s[:-1],
            "shift_up_adjoin_max": lambda s, n, a, b: s + (n,),
        }[half]
        monkeypatch.setattr(identities, half, wrong)
        code, out, err = run_cli(capsys, "verify", "--id", "bijection")
        assert code == 1 and out.count("FAIL") == 9
        assert err.startswith("error: identity check failed: bijection[alpha=1,beta=1],")

    def test_a_bijection_half_refusing_a_member_exits_1(self, capsys, monkeypatch):
        # Shifting down by beta, and checking the image as the halves check
        # their input, refuses the element 0 where beta > alpha: a failed
        # check at that n, not a usage error.
        def down_by_beta(s, n, a, b):
            image = tuple(e - b for e in s[:-1])
            identities._require_subset(image)
            return image

        monkeypatch.setattr(identities, "drop_max_shift_down", down_by_beta)
        code, out, err = run_cli(capsys, "verify", "--id", "bijection")
        assert code == 1 and out.count("FAIL") == 6
        assert "bijection[alpha=1,beta=2]: FAIL  range [3, 12]\n  first counterexample at 4: 1 != 0\n" in out
        assert err.startswith("error: identity check failed: bijection[alpha=1,beta=2],")
        code, out, err = run_cli(capsys, "verify", "--id", "bijection", "--to", "5")
        assert (code, out) == (2, "") and err.startswith("error: n_max must be >= alpha + beta")

    @pytest.mark.parametrize("argv", [
        ["verify", "--id", "fib-h", "--to", "30000"],
        ["verify", "--id", "gen-shift", "--n", "3", "--to", "30000"],
        ["verify", "--id", "oddgap-h", "--oracle-to", "8", "--to", "30000"],
    ])
    def test_streaming_checks_hold_a_few_terms(self, argv):
        # The terms near 30000 have about 21,000 bits; whole windows held
        # Theta(n^2) bits, about 100 MB, where the streams hold a few terms.
        peak, out = traced_peak(argv, argv[:-1] + ["5"])
        assert "PASS  range" in out
        assert peak < 2_000_000

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "fermat")
        assert code == 2 and "unknown identity" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "oddgap-h", "--to", "60", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["reports"][0]["id"] == "oddgap-h"
        assert payload["reports"][0]["passed"] is True
        assert payload["reports"][0]["counterexample"] is None

    def test_all_battery(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "all")
        assert code == 0
        for marker in ("fib-h:", "gen-sum[n=2]:", "gen-shift[n=8]:", "oddgap-h:",
                       "bijection[alpha=3,beta=3]:", "ratio:"):
            assert marker in out
        assert "FAIL" not in out

    def test_all_battery_ignores_range_flags(self, capsys):
        # --to retargets only an explicitly selected identity; the battery
        # keeps stock ranges, so a huge --to must not trigger 2**n work.
        code, out, _ = run_cli(capsys, "verify", "--id", "all", "--to", "10**6")
        assert code == 2  # non-integer flag value
        code, out, _ = run_cli(capsys, "verify", "--id", "all", "--to", "100000")
        assert code == 0 and "FAIL" not in out


class TestDiscover:
    def test_expected_order_passes(self, capsys):
        code, out, _ = run_cli(capsys, "discover", "--alpha", "1", "--beta", "1", "--expect-order", "2")
        assert code == 0 and "order: 2" in out and "coeffs: 1 1" in out

    def test_two_three(self, capsys):
        code, out, _ = run_cli(capsys, "discover", "--alpha", "2", "--beta", "3", "--expect-order", "5")
        assert code == 0 and "coeffs: 1 0 0 0 1" in out

    def test_short_probe_is_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "discover", "--alpha", "1", "--beta", "1", "--probe", "3")
        assert code == 4 and "inconclusive" in out
        # The floor is 4 * (alpha + beta) terms: 7 is one short, 8 is enough.
        assert run_cli(capsys, "discover", "--alpha", "1", "--beta", "1", "--probe", "7") == (
            4, "inconclusive: probe of 7 terms is too short (need at least 8)\n", ""
        )
        code, out, _ = run_cli(capsys, "discover", "--alpha", "1", "--beta", "1", "--probe", "8")
        assert code == 0 and out.startswith("order: 2\n")

    def test_expectation_mismatch_fails(self, capsys):
        code, out, err = run_cli(capsys, "discover", "--alpha", "1", "--beta", "1", "--expect-order", "3")
        assert code == 1 and "expected 3" in err

    @pytest.mark.parametrize("alpha", ["99999999999999999999", "1152921504606846976"])
    def test_probe_past_sys_maxsize_is_usage_error(self, capsys, alpha):
        # The stock probe, 8 * (alpha + beta) terms from 2 * alpha + beta on,
        # ends past the last index a window can reach.
        code, out, err = run_cli(capsys, "discover", "--alpha", alpha, "--beta", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: 2*alpha + beta + probe_len - 1 = ") and err.count("\n") == 1
        assert err.endswith(f" must be < {sys.maxsize}\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "discover", "--alpha", "2", "--beta", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["order"] == 4
        assert payload["coeffs"] == ["1", "0", "0", "1"]
        assert payload["minimal"] is True


class TestEnumerate:
    def test_golden_listing(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "3", "--gap-parity", "even", "--forced-max", "3"
        )
        assert code == 0 and out == "{3}\n{1,3}\n"

    def test_empty_set_renders(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "0")
        assert code == 0 and out == "{}\n"

    def test_limit_exit(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "31")
        assert code == 3 and "limit" in err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_enumerate_argv(self, data):
        # --enum-limit stays at most 12, so no scan passes 2**12 subsets.
        flags = ["--n", str(data.draw(st.integers(-2, 14), label="n"))]
        flags += ["--enum-limit", str(data.draw(st.integers(-1, 12), label="limit"))]
        for flag, values in (
            ("--alpha", st.integers(-1, 5)),
            ("--beta", st.integers(-1, 5)),
            ("--gap-parity", st.sampled_from(["any", "odd", "even", "both"])),
            ("--min-size", st.integers(-1, 6)),
            ("--forced-max", st.integers(-1, 16)),
        ):
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                flags += [flag, str(value)]
        runs = []
        for argv in (["enumerate", *flags], ["count", *flags, "--engine", "oracle"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        (code, listing, errors), (count_code, count, _) = runs
        assert code in (0, 1, 2, 3), (flags, errors)
        assert errors.count("error:") <= 1 and "Traceback" not in errors, flags
        assert (code == 0) == (errors == ""), flags
        assert count_code == code, flags
        if code == 0:
            assert listing.count("\n") == int(count), flags
            args = build_parser().parse_args(["enumerate", *flags])
            subsets = enumerate_subsets(args.n, cli._build_condition(args), args.enum_limit)
            assert listing == enumerate_text(subsets), flags

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_matches_by_str(self, data):
        # Every row, the empty one {} included, against the raw bitmask scan
        # filtered by the clauses' definitions and rendered by str(): on
        # stdout and in an --output file alike.
        n = data.draw(st.integers(0, 14), label="n")
        cond = Condition(
            data.draw(st.none() | st.integers(1, 4), label="alpha"),
            data.draw(st.none() | st.integers(1, 4), label="beta"),
            data.draw(st.sampled_from([GAP_ANY, GAP_ALL_ODD, GAP_ALL_EVEN]), label="parity"),
            data.draw(st.integers(0, 4), label="min_size"),
            data.draw(st.none() if n == 0 else st.none() | st.integers(1, n), label="forced_max"),
        )
        parity = {GAP_ANY: "any", GAP_ALL_ODD: "odd", GAP_ALL_EVEN: "even"}[cond.gap_parity]
        argv = ["enumerate", "--n", str(n), "--gap-parity", parity, "--min-size", str(cond.min_size)]
        for flag, value in (("--alpha", cond.alpha), ("--beta", cond.beta), ("--forced-max", cond.forced_max)):
            if value is not None:
                argv += [flag, str(value)]
        expected = enumerate_text(t for t in iter_subsets_raw(n) if matches(t, cond, n))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.txt"
            for to_file in (False, True):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--output", str(path)] if to_file else argv)
                listing = path.read_text() if to_file else out.getvalue()
                assert (code, err.getvalue(), listing) == (0, "", expected), (argv, to_file)
                assert not (to_file and out.getvalue()), argv


class TestPipelines:
    def test_bfile_feeds_discovery(self, capsys, tmp_path):
        # Emit a window to disk, re-parse it, and recover its recurrence:
        # the full export/import/discover loop in one pass.
        path = tmp_path / "window.bfile"
        code, _, _ = run_cli(
            capsys, "seq", "--family", "schreier-zeckendorf",
            "--alpha", "2", "--beta", "2", "--from", "8", "--to", "40",
            "--format", "bfile", "--output", str(path),
        )
        assert code == 0
        window = parse_bfile(path.read_text(), name="sz[2,2]")
        assert window.offset == 8
        report = berlekamp_massey(list(window.terms), start_index=window.offset)
        assert report.found is not None
        assert report.found.order == 4
        assert report.found.coeffs == (1, 0, 0, 1)
        assert verify_recurrence(report.found, list(window.terms), window.offset)

    def test_verify_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--id", "gen-sum", "--n", "4", "--to", "50",
            "--format", "json", "--output", str(path),
        )
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1 and payload["reports"][0]["passed"] is True



class TestErrors:
    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "count", "--n", "5", "--alpha", "2", "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--family", "H", "--to", "5", "--from", "6"],
        ["--family", "lucas", "--to", "5"],
        ["--family", "genfib", "--n", "1", "--to", "5"],
        ["--family", "fib", "--to", "5", "--output", "{tmp}/missing/out.txt"],
        ["--family", "fib", "--to", "5", "--output", "{tmp}"],
    ])
    def test_seq_errors_come_before_the_first_term(self, capsys, monkeypatch, tmp_path, argv):
        def unread(gf, number=int):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(recurrences._GF, "series", unread)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, "seq", *argv, "--format", "bfile")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--from" in argv:
            assert err == "error: clip start 6 beyond window end 5\n"

    def test_output_is_open_before_the_first_term(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "window.bfile"
        opened = []

        real = recurrences._GF.series

        def series(gf, number=int):
            opened.append(path.exists())
            return real(gf, number)

        monkeypatch.setattr(recurrences._GF, "series", series)
        code, out, err = run_cli(capsys, "seq", "--family", "H", "--to", "6", "--output", str(path))
        assert (code, out, err, opened) == (0, "", "", [True])
        assert path.read_text() == format_window(window("H", 6), "table")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("argv", [
        ["seq", "--family", "fib", "--to", "5"],
        ["seq", "--family", "fib", "--to", "20000", "--format", "bfile"],
        ["enumerate", "--n", "4"],
    ])
    def test_failed_write_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1

    def test_internal_error_exits_5_on_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setitem(cli._COMMANDS, "count", broken)
        code, out, err = run_cli(capsys, "count", "--n", "5")
        assert (code, out) == (5, "")
        assert err == "error: internal error: RuntimeError: first line second line\n"
        assert "Traceback" not in err

# --threshold texts: exact rationals, signed, as fractions (zero
# denominators included) and decimals with exponents of up to 12 digits
# (more than cli.MAX_EXPONENT_DIGITS is a usage error), and near misses.
THRESHOLDS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,4}/[+-]?[0-9]{1,3}", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,12})?", fullmatch=True),
    st.sampled_from(["1/0", "-0/0", "1//2", "e3", "1e", "/", "nan", "inf", "0x10"]),
)

CONFIG_NAMES = {
    "gap_parity": ["any", "odd", "even"],
    "engine": ["auto", "oracle", "recurrence"],
    "fmt": ["table", "csv", "json", "bfile"],
    "family": ["fib", "H", "schreier-zeckendorf", "genfib", "genk", "genh", "minsize-oddgap"],
}


def readme_argvs():
    # The argv of each `seqforge ...` line in README's sh blocks, as CI runs them.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line.partition("#")[0])[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        for line in block.splitlines()
        if line.startswith("seqforge ")
    ]


# Argv whose parse main() dispatches; CFG stands for a config file's path.
DISPATCH_CORPUS = [
    *readme_argvs(),
    *[[command, "-h"] for command in cli.SCHEMA],
    ["-h"],
    [],
    ["frobnicate"],
    ["--n", "5", "count"],
    ["count", "--alph", "2"],
    ["count", "--n=5"],
    ["count", "--", "--n", "5"],
    ["count", "--n", "3", "--n", "5"],
    ["count", "--n", "5", "--gamma", "1"],
    ["count", "--config", "CFG", "--n", "4"],
    ["count", "--n=5", "--alpha=2", "--config", "CFG", "--n", "4"],
    ["--", "count", "--config", "CFG"],
]
DISPATCH_WORDS = [
    *cli.SCHEMA, "frobnicate", "--", "-", "-h", "--help", "--he", "--n", "--n=3", "-n", "5", "-1", "x",
    "--alpha", "--alp", "--a", "--beta", "--gap-parity", "odd", "--engine", "oracle", "--e",
    "--family", "fib", "--f", "--to", "--from", "--id", "ratio", "--threshold", "1/0",
    "--format", "json", "--probe", "--enum-limit", "--config", "--output", "--k",
]


def parsed(parse, argv):
    """What one parse of argv gives: ("args", the Namespace's vars), ("error",
    the refusal's text) or ("help", what --help printed)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", vars(parse(argv))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit:
        return "help", out.getvalue()


class TestConfigAndUsage:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "alpha": 2, "beta": 1}))
        code, out, _ = run_cli(capsys, "count", "--config", str(cfg))
        assert (code, out) == (0, "6\n")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "alpha": 2, "beta": 1}))
        code, out, _ = run_cli(capsys, "count", "--config", str(cfg), "--n", "4")
        assert (code, out) == (0, "4\n")
        assert int(out) == count_subsets(4, Condition(alpha=2, beta=1))

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "gamma": 1}))
        result = run_cli(capsys, "count", "--config", str(cfg))
        assert result == (2, "", "error: unknown config keys: gamma\n")

    @pytest.mark.parametrize("text", ["[5]", "5", '"n"', "null"])
    def test_config_that_is_not_an_object_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result = run_cli(capsys, "count", "--n", "3", "--config", str(cfg))
        assert result == (2, "", "error: config file must hold a JSON object\n")

    def test_missing_config_file(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, out, err = run_cli(capsys, "count", "--n", "3", "--config", str(path))
        assert (code, out) == (2, "") and one_error_line(err)
        assert err.startswith(f"error: cannot read config {path}: ")

    # Argparse words its refusals differently from version to version, so
    # only the token refused is read.
    def test_unknown_flag_rejected(self, capsys):
        for argv, token in [
            (["count", "--n", "3", "--frobnicate"], "--frobnicate"),
            (["count", "--n", "abc"], "--n"),
            (["count", "--n", "3", "--gap-parity", "weird"], "--gap-parity"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and one_error_line(err) and token in err, argv

    def test_unknown_subcommand_rejected(self, capsys):
        for argv, token in [(["frobnicate"], "frobnicate"), ([], "command")]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and one_error_line(err) and token in err, argv

    def test_null_means_unset(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "gap_parity": None, "alpha": None}))
        assert run_cli(capsys, "count", "--config", str(cfg)) == (0, "16\n", "")
        cfg.write_text(json.dumps({"n": None}))
        code, _, err = run_cli(capsys, "count", "--config", str(cfg))
        assert code == 2 and "--n" in err

    @pytest.mark.parametrize(
        "command,config",
        [
            ("count", {"n": True}),
            ("count", {"n": 5.0}),
            ("count", {"n": [3]}),
            ("count", {"n": 5, "alpha": 2.5}),
            ("count", {"n": 4, "engine": "fast"}),
            ("verify", {"identity": "fib-h", "fmt": "xml"}),
            ("discover", {"alpha": 1, "beta": 1, "probe": "x"}),
        ],
    )
    def test_config_values_get_the_flags_checks(self, capsys, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "") and one_error_line(err)

    def test_config_string_reads_like_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "5"}))
        assert run_cli(capsys, "count", "--config", str(cfg)) == run_cli(capsys, "count", "--n", "5")

    def test_config_decimal_is_exact(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"identity": "ratio", "to": 60, "threshold": 0.001}')
        from_config = run_cli(capsys, "verify", "--config", str(cfg))
        from_flag = run_cli(capsys, "verify", "--id", "ratio", "--to", "60", "--threshold", "0.001")
        assert from_config == from_flag and from_config[0] == 0

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        # main() parses with one parser per command per process; usage
        # errors, --help and --config between good calls must leave each as
        # a fresh one would be.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "alpha": 2, "beta": 1}))
        calls = [
            ["count", "--n", "14", "--alpha", "1", "--beta", "1"],
            ["count", "--n", "x"],
            ["count", "--config", str(cfg), "--n", "4"],
            ["--help"],
            ["verify", "--id", "ratio", "--to", "60"],
            ["count", "--help"],
            ["discover", "--alpha", "2", "--beta", "3", "--format", "json"],
            ["frobnicate"],
            ["count", "--config", str(cfg)],
            ["seq", "--family", "fib", "--to", "12", "--format", "csv"],
            ["discover", "--alpha", "2"],
            ["count", "--n", "14", "--alpha", "1", "--beta", "1"],
        ]
        assert build_parser() is build_parser()
        assert cli._command_parser("count") is cli._command_parser("count")
        reused = [run_cli(capsys, *argv) for argv in calls + calls]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        monkeypatch.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in calls]
        assert reused == fresh + fresh
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0]

    @pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=repr)
    def test_dispatch_parses_like_the_whole_parser(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "alpha": 2}))
        argv = [str(cfg) if word == "CFG" else word for word in argv]
        assert parsed(cli._parse, argv) == parsed(build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=st.lists(st.sampled_from(DISPATCH_WORDS), max_size=7))
    def test_fuzzed_dispatch_parses_like_the_whole_parser(self, argv):
        assert parsed(cli._parse, argv) == parsed(build_parser().parse_args, argv), argv

    def test_a_command_needs_only_its_own_parser(self, capsys, tmp_path, monkeypatch):
        def whole_parser():
            raise AssertionError("build_parser() called for a command")

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 5, "alpha": 2, "beta": 1}))
        monkeypatch.setattr(cli, "build_parser", whole_parser)
        for argv in (
            ["count", "--n", "5", "--alpha", "2", "--beta", "1"],
            ["count", "--config", str(cfg), "--n", "4"],
            ["seq", "--family", "fib", "--to", "12"],
            ["verify", "--id", "fib-h", "--to", "20"],
            ["discover", "--alpha", "1", "--beta", "1"],
            ["enumerate", "--n", "4", "--gap-parity", "odd"],
        ):
            assert run_cli(capsys, *argv)[0] == 0, argv

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_no_config_ends_in_a_traceback(self, tmp_path_factory, data):
        # Values stay small (ints in [-3, 12], strings without digits), so no
        # oracle scan passes 2**12 and no verify battery runs. Half the
        # examples give every key a value of its flag's kind and add no
        # unknown key.
        command = data.draw(st.sampled_from(["count", "seq", "discover", "enumerate"]))
        keys = sorted(set(vars(build_parser().parse_args([command]))) - {"command", "config", "output"})
        junk = (
            st.none()
            | st.booleans()
            | st.integers(-3, 12)
            | st.text("abdefhiknoqrvyz-", max_size=6)
            | st.lists(st.integers(-3, 12), max_size=2)
        )
        careful = data.draw(st.booleans())
        optional = {} if careful else {"gamma": junk}
        for key in keys:
            plausible = st.sampled_from(CONFIG_NAMES[key]) if key in CONFIG_NAMES else st.integers(-3, 12)
            optional[key] = plausible if careful else plausible | junk
        config = data.draw(st.fixed_dictionaries({}, optional=optional))
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
        assert code in range(5), (command, config)
        assert err.getvalue() == "" or one_error_line(err.getvalue()), (command, config)
