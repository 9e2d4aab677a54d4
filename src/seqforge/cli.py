"""Command-line front end: subset counting, sequence generation, identity
verification, recurrence discovery, and debug enumeration.

`count` answers every condition at every n from its rational generating
function (recurrences.condition_count) unless `--engine oracle` asks for
the exhaustive search. Exit codes: 0 ok, 1 verification failure, 2 usage
error (a flag argparse refuses, or an `--output` path that cannot be
written), 3 the enumeration limit of an exhaustive search (`count --engine
oracle`, `enumerate`, the enumerating `verify` checks), 4 inconclusive, 5
internal error. Every failure prints one `error: ...` line to stderr and
no traceback; a reader that closes stdout early only ends the output
(exit 0). Every command is deterministic: identical invocations produce
byte-identical output.

Each invocation is parsed once, by its command's own parser, built from
SCHEMA only for the command that runs. The whole parser, build_parser(),
parses only an argv that does not start with a command: the top-level
--help, and a missing or unknown command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from itertools import islice

from .formats import FORMATS, _write_chunked, _write_window, render_int
from .recurrences import FAMILIES, _exact_context, condition_count, family_spec
from .subsets import (
    DEFAULT_ENUM_LIMIT,
    GAP_ALL_EVEN,
    GAP_ALL_ODD,
    GAP_ANY,
    Condition,
    EnumerationLimitError,
    _need_int,
    count_subsets,
    enumerate_subsets,
)

OK = 0
VERIFY_FAIL = 1
USAGE = 2
LIMIT = 3
INCONCLUSIVE = 4
INTERNAL = 5

ENUM_LIMIT_ENV = "SEQFORGE_ENUM_LIMIT"

_PARITY_FLAGS = {"any": GAP_ANY, "odd": GAP_ALL_ODD, "even": GAP_ALL_EVEN}


def _ratio_check(ids, to: int, args: argparse.Namespace, limit: int) -> list:
    # 1 - r_to, where r_to is the odd-gap share of the subsets whose gaps are
    # all odd or all even. The two families share only the to + 1 subsets
    # of size <= 1, so the union less the odd-gap family is `even`.
    _need_int("--to", to, 1)
    from fractions import Fraction

    odd = condition_count(to, Condition(gap_parity=GAP_ALL_ODD))
    even = condition_count(to, Condition(gap_parity=GAP_ALL_EVEN)) - (to + 1)
    gap = Fraction(even, odd + even)
    threshold = Fraction(1, 1000) if args.threshold is None else args.threshold
    shown, bound = ids.decimal_string(gap), ids.decimal_string(threshold)
    report = ids.IdentityReport("ratio", (1, to), None if gap < threshold else (to, shown, bound))
    return [report, f"  1 - r_{to} = {shown}  (threshold {bound})"]


# Fraction("1e999999999") builds 10**999999999 before it returns, so an
# exponent wider than this many digits is refused before Fraction sees it.
MAX_EXPONENT_DIGITS = 4
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(text: str):
    # argparse turns a ValueError from a flag's type into a usage error, but
    # not the ZeroDivisionError of Fraction("1/0"). fractions imports
    # decimal, so it is imported only when a rational is read.
    from fractions import Fraction

    exponent = _EXPONENT.search(text)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > MAX_EXPONENT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"exponent wider than {MAX_EXPONENT_DIGITS} digits: {text!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _orders(args: argparse.Namespace):
    return range(2, 9) if args.n is None else [args.n]


# identity -> (stock --to, check). A check takes (ids, to, args, limit),
# ids the identities module, which `verify` imports when it runs, and
# returns its reports, each optionally followed by an extra table row.
# `--id all` runs every check in this order. Checks look their functions
# up on ids at call time, so a wrapper installed on a module function (as
# the benchmark's tracer does) sees every call.
IDENTITIES = {
    "fib-h": (200, lambda ids, to, args, limit: [ids.check_fib_h(to)]),
    "gen-sum": (300, lambda ids, to, args, limit: [ids.check_gen_sum(k, to) for k in _orders(args)]),
    "gen-shift": (300, lambda ids, to, args, limit: [ids.check_gen_shift(k, to) for k in _orders(args)]),
    "oddgap-h": (500, lambda ids, to, args, limit: [ids.check_odd_gap_h(args.oracle_to, to, limit)]),
    "bijection": (
        12,
        lambda ids, to, args, limit: [
            ids.check_bijection_round_trip(alpha, beta, to, limit)
            for alpha in (1, 2, 3)
            for beta in (1, 2, 3)
        ],
    ),
    "ratio": (60, _ratio_check),
}


# The only declaration of every subcommand parameter: command -> (summary,
# flag -> argparse spec). Config-file keys are the flags' dests.
_CONDITION = {
    "--alpha": {"type": int},
    "--beta": {"type": int},
    "--gap-parity": {"choices": sorted(_PARITY_FLAGS), "default": "any"},
    "--min-size": {"type": int, "default": 0},
    "--forced-max": {"type": int},
    "--enum-limit": {"type": int},
}
_REPORT_FORMAT = {"dest": "fmt", "choices": ("table", "json"), "default": "table"}

SCHEMA = {
    "count": ("count subsets of {1..n} under a condition", {
        "--n": {"type": int},
        **_CONDITION,
        "--engine": {"choices": ("auto", "oracle", "recurrence"), "default": "auto"},
    }),
    "seq": ("emit a sequence window", {
        "--family": {"help": f"one of {', '.join(FAMILIES)}"},
        "--alpha": {"type": int},
        "--beta": {"type": int},
        "--n": {"type": int, "help": "order parameter for genfib/genk/genh"},
        "--k": {"type": int, "help": "minimum size for minsize-oddgap"},
        "--from": {"dest": "start", "type": int},
        "--to": {"type": int},
        "--format": {"dest": "fmt", "choices": FORMATS, "default": "table"},
    }),
    "verify": ("run identity checks", {
        "--id": {"dest": "identity", "help": f"one of {', '.join(IDENTITIES)}, or all"},
        "--n": {"type": int, "help": "family order for gen-sum/gen-shift"},
        "--to": {"type": int},
        "--oracle-to": {"type": int, "default": 12},
        "--threshold": {
            "type": _rational,
            "help": "bound on 1 - r_to for the ratio check",
        },
        "--enum-limit": {"type": int},
        "--format": _REPORT_FORMAT,
    }),
    "discover": ("recover a minimal recurrence empirically", {
        "--alpha": {"type": int},
        "--beta": {"type": int},
        "--probe": {"type": int},
        "--expect-order": {"type": int},
        "--format": _REPORT_FORMAT,
    }),
    "enumerate": ("list matching subsets (debug, n <= limit)", {
        "--n": {"type": int},
        **_CONDITION,
    }),
}


def _refuse(message: str):
    # Every parser's error(): a refusal is a ValueError, one error: line in main.
    raise ValueError(message)


@functools.lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    # The parser of one command's flags, built once per process and only
    # for a command that runs; the one place a flag is added.
    parser = argparse.ArgumentParser(prog=f"seqforge {command}")
    parser.error = _refuse
    parser.set_defaults(command=command)
    for flag, spec in SCHEMA[command][1].items():
        parser.add_argument(flag, **spec)
    parser.add_argument("--config", help="JSON file of parameter values; flags win over it")
    parser.add_argument("--output", help="write output to this path instead of stdout")
    return parser


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # The whole command line, for an argv that does not start with a command:
    # the top-level --help, and the refusal of a missing or unknown command.
    parser = argparse.ArgumentParser(
        prog="seqforge",
        description="Exact subset counting, integer sequences, and recurrence tools.",
    )
    parser.error = _refuse
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in SCHEMA.items():
        p = sub.add_parser(command, help=summary, parents=[_command_parser(command)], add_help=False)
        p.error = _refuse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    # One parse per argv: by its command's parser when it starts with one,
    # which gives what build_parser() would, else by build_parser().
    if argv and argv[0] in SCHEMA:
        return _command_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def _config_tokens(command: str, path: str) -> list[str]:
    # The config file's values as --flag=value tokens. Numbers keep their
    # literal text, so the flag's type reads them exactly; null is unset.
    # json is imported only where a command reads or writes it.
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_float=str)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {
        spec.get("dest", flag[2:].replace("-", "_")): flag
        for flag, spec in SCHEMA[command][1].items()
    }
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return [
        f"{flags[key]}={value if isinstance(value, str) else json.dumps(value)}"
        for key, value in config.items()
        if value is not None
    ]


def _require(args: argparse.Namespace, dest: str, flag: str | None = None):
    value = getattr(args, dest)
    if value is None:
        raise ValueError(f"missing required flag {flag or '--' + dest}")
    return value


def _resolve_limit(explicit: int | None) -> int:
    # Checked here, so that a command which never searches refuses it too.
    limit = explicit
    if limit is None:
        env = os.environ.get(ENUM_LIMIT_ENV)
        try:
            limit = DEFAULT_ENUM_LIMIT if env is None else int(env)
        except ValueError as exc:
            raise ValueError(f"{ENUM_LIMIT_ENV} must be an integer, got {env!r}") from exc
    _need_int("limit", limit, 0)
    return limit


def _build_condition(args: argparse.Namespace) -> Condition:
    return Condition(
        alpha=args.alpha,
        beta=args.beta,
        gap_parity=_PARITY_FLAGS[args.gap_parity],
        min_size=args.min_size,
        forced_max=args.forced_max,
    )


@contextlib.contextmanager
def _output(path: str | None):
    """The write method of stdout, or of the file at path, opened at once so
    that a path that cannot be written fails before any work. An OSError
    on the file, then or on a later write, is a usage error."""
    if path is None:
        yield sys.stdout.write
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh.write
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    with _output(output) as write:
        write(text)


def _recurrence_count(n: int, cond: Condition):
    # The count `count` prints unless --engine oracle: an int, or an
    # integral Decimal when it is wide. The benchmark's tracer
    # (bench/tracing.py) captures it by this name to time its rendering.
    return condition_count(n, cond, _decimal=True)


def _cmd_count(args: argparse.Namespace) -> int:
    n = _require(args, "n")
    limit = _resolve_limit(args.enum_limit)
    cond = _build_condition(args)
    if args.engine == "oracle":
        value = count_subsets(n, cond, limit)
    else:
        value = _recurrence_count(n, cond)
    text = render_int(value) if isinstance(value, int) else str(value)
    _emit(text + "\n", args.output)
    return OK


def _cmd_seq(args: argparse.Namespace) -> int:
    family, to = _require(args, "family"), _require(args, "to")
    # family_spec refuses a family it does not know, and a flag it does not take.
    for dest, _ in FAMILIES[family].bounds if family in FAMILIES else ():
        _require(args, dest)
    flags = {dest: getattr(args, dest) for dest in ("alpha", "beta", "n", "k")}
    params = {dest: value for dest, value in flags.items() if value is not None}
    name, offset, gf = family_spec(family, **params)
    _need_int("--to", to, offset, sys.maxsize)  # islice stops at sys.maxsize
    if args.start is not None:
        if args.start > to:
            raise ValueError(f"clip start {args.start} beyond window end {to}")
        offset = max(offset, args.start)
    # The terms are read, printed and written a chunk at a time, all inside
    # the exact context, so only the last few terms and one chunk of text
    # are held at once. decimal is imported here, not at start.
    from decimal import Decimal, localcontext

    with _output(args.output) as write, localcontext(_exact_context()):
        digits = map(str, islice(gf.series(Decimal), offset, to + 1))
        _write_window(write, args.fmt, name, offset, to, digits)
    return OK


def _report_rows(report) -> list[str]:
    # An identities.IdentityReport as table rows.
    lo, hi = report.range_checked
    status = "PASS" if report.passed else "FAIL"
    rows = [f"{report.identity_id}: {status}  range [{lo}, {hi}]"]
    if report.first_counterexample is not None:
        index, lhs, rhs = report.first_counterexample
        rows.append(f"  first counterexample at {index}: {lhs} != {rhs}")
    return rows


def _report_json(report) -> dict:
    ce = report.first_counterexample
    return {
        "id": report.identity_id,
        "range": list(report.range_checked),
        "passed": report.passed,
        "counterexample": None
        if ce is None
        else {"index": ce[0], "lhs": str(ce[1]), "rhs": str(ce[2])},
    }


def _emit_report(args: argparse.Namespace, payload: dict, rows: list[str]) -> None:
    # A verify or discover report: payload as JSON under schema 1 with
    # --format json, else the table rows, one a line.
    if args.fmt == "json":
        import json

        text = json.dumps({"schema": 1, **payload}, indent=2)
    else:
        text = "\n".join(rows)
    _emit(text + "\n", args.output)


def _cmd_verify(args: argparse.Namespace) -> int:
    identity = _require(args, "identity", "--id")
    if identity != "all" and identity not in IDENTITIES:
        known = ", ".join([*IDENTITIES, "all"])
        raise ValueError(f"unknown identity {identity!r}; known: {known}")
    limit = _resolve_limit(args.enum_limit)
    from . import identities

    results = []
    for name in IDENTITIES if identity == "all" else [identity]:
        stock, check = IDENTITIES[name]
        # --to retargets only the identity asked for; the "all" battery
        # keeps every check at its stock range (the bijection check in
        # particular enumerates 2**n subsets per step).
        to = stock if identity == "all" or args.to is None else args.to
        results += check(identities, to, args, limit)
    reports = [r for r in results if not isinstance(r, str)]
    rows = []
    for item in results:
        rows += [item] if isinstance(item, str) else _report_rows(item)
    _emit_report(args, {"reports": [_report_json(r) for r in reports]}, rows)
    failed = [r.identity_id for r in reports if not r.passed]
    if failed:
        print(f"error: identity check failed: {', '.join(failed)}", file=sys.stderr)
        return VERIFY_FAIL
    return OK


def _cmd_discover(args: argparse.Namespace) -> int:
    alpha, beta = _require(args, "alpha"), _require(args, "beta")
    probe = 8 * (alpha + beta) if args.probe is None else args.probe
    from .discovery import discover_order

    report = discover_order(alpha, beta, probe)

    if report.found is None:
        _emit(f"inconclusive: {report.note}\n", args.output)
        return INCONCLUSIVE

    rec = report.found
    fields = {
        "order": rec.order,
        "coeffs": [str(c) for c in rec.coeffs],
        "valid_from": rec.valid_from,
        "verified_upto": report.verified_upto,
        "minimal": report.minimal,
    }
    minimal = "true" if report.minimal else "false"
    shown = {**fields, "coeffs": " ".join(fields["coeffs"]), "minimal": minimal}
    _emit_report(args, fields, [f"{key}: {value}" for key, value in shown.items()])

    if args.expect_order is not None and rec.order != args.expect_order:
        print(
            f"error: discovered order {rec.order}, expected {args.expect_order}",
            file=sys.stderr,
        )
        return VERIFY_FAIL
    return OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = _require(args, "n")
    limit = _resolve_limit(args.enum_limit)
    subsets = enumerate_subsets(n, _build_condition(args), limit)
    # Every element is one of 1..n, so each str() is taken once, not once
    # per row it appears in.
    digits = [str(e) for e in range(n + 1)].__getitem__

    def rows(batch):
        return [f"{{{','.join(map(digits, s))}}}\n" for s in batch]

    with _output(args.output) as write:
        _write_chunked(write, subsets, rows)
    return OK


_COMMANDS = {
    "count": _cmd_count,
    "seq": _cmd_seq,
    "verify": _cmd_verify,
    "discover": _cmd_discover,
    "enumerate": _cmd_enumerate,
}


def main(argv: list[str] | None = None) -> int:
    # Terms routinely exceed the interpreter's default int-to-str conversion
    # cap (4300 digits); full decimal rendering is part of the contract.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args.config is not None:
            # Config values go in as flags ahead of the real ones, so one
            # parser checks both and a real flag wins.
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.command, args.config)
            args = _parse(argv[:at] + tokens + argv[at:])
        return _COMMANDS[args.command](args)
    except SystemExit:  # argparse exits only after printing --help
        return OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return LIMIT if isinstance(exc, EnumerationLimitError) else USAGE
    except BrokenPipeError:
        # The reader closed stdout (`seqforge seq ... | head`): the end of
        # output, not a failure. What is still buffered goes to os.devnull,
        # so the flush at shutdown does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK
    except Exception as exc:
        # Anything else is a defect; report it on one line, not as a traceback.
        detail = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
