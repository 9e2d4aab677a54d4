"""Command-line front end: subset counting, sequence generation, identity
verification, recurrence discovery, and debug enumeration.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource limit,
4 inconclusive. Every command is deterministic: identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .discovery import discover_order
from .fasteval import schreier_zeckendorf_count
from .formats import FORMATS, format_window, render_int
from .identities import (
    IdentityReport,
    check_bijection_round_trip,
    check_fib_h,
    check_gen_shift,
    check_gen_sum,
    check_odd_gap_h,
    decimal_string,
    ratio_report,
)
from .recurrences import (
    fibonacci_seq,
    gap_parity_count,
    gen_fib_seq,
    gen_h_seq,
    h_seq,
    k_seq,
    min_size_odd_gap_seq,
    schreier_zeckendorf_seq,
)
from .subsets import (
    DEFAULT_ENUM_LIMIT,
    GAP_ALL_EVEN,
    GAP_ALL_ODD,
    GAP_ANY,
    Condition,
    EnumerationLimitError,
    count_subsets,
    enumerate_subsets,
)

OK = 0
VERIFY_FAIL = 1
USAGE = 2
LIMIT = 3
INCONCLUSIVE = 4

ENUM_LIMIT_ENV = "SEQFORGE_ENUM_LIMIT"

FAMILIES = ("fib", "H", "schreier-zeckendorf", "genfib", "genk", "genh", "minsize-oddgap")
VERIFY_IDS = ("fib-h", "gen-sum", "gen-shift", "oddgap-h", "bijection", "ratio", "all")

_PARITY_FLAGS = {"any": GAP_ANY, "odd": GAP_ALL_ODD, "even": GAP_ALL_EVEN}


class UsageError(Exception):
    """Bad flags, bad config, or an unknown family/identity id."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: subcommand, parameters merged from explicit
    flags over config-file values over hard defaults, and the output sink
    (a path, or stdout when None)."""

    command: str
    params: dict
    output: str | None


_CONDITION_DEFAULTS = {
    "alpha": None,
    "beta": None,
    "gap_parity": "any",
    "min_size": 0,
    "forced_max": None,
    "enum_limit": None,
}

COMMAND_DEFAULTS = {
    "count": {"n": None, "engine": "auto", **_CONDITION_DEFAULTS},
    "seq": {
        "family": None,
        "alpha": None,
        "beta": None,
        "n": None,
        "k": None,
        "start": None,
        "to": None,
        "fmt": "table",
    },
    "verify": {
        "identity": None,
        "n": None,
        "to": None,
        "oracle_to": None,
        "threshold": None,
        "enum_limit": None,
        "fmt": "table",
    },
    "discover": {
        "alpha": None,
        "beta": None,
        "probe": None,
        "expect_order": None,
        "fmt": "table",
    },
    "enumerate": {"n": None, **_CONDITION_DEFAULTS},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqforge",
        description="Exact subset counting, integer sequences, and recurrence tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON file with default parameter values")
        p.add_argument("--output", default=None, help="write output to this path instead of stdout")

    def add_condition_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=int, default=None)
        p.add_argument("--beta", type=int, default=None)
        p.add_argument("--gap-parity", dest="gap_parity", choices=sorted(_PARITY_FLAGS), default=None)
        p.add_argument("--min-size", dest="min_size", type=int, default=None)
        p.add_argument("--forced-max", dest="forced_max", type=int, default=None)
        p.add_argument("--enum-limit", dest="enum_limit", type=int, default=None)

    count = sub.add_parser("count", help="count subsets of {1..n} under a condition")
    count.add_argument("--n", type=int, default=None)
    add_condition_flags(count)
    count.add_argument("--engine", choices=("auto", "oracle", "recurrence"), default=None)
    add_common(count)

    seq = sub.add_parser("seq", help="emit a sequence window")
    seq.add_argument("--family", default=None)
    seq.add_argument("--alpha", type=int, default=None)
    seq.add_argument("--beta", type=int, default=None)
    seq.add_argument("--n", type=int, default=None, help="order parameter for genfib/genk/genh")
    seq.add_argument("--k", type=int, default=None, help="minimum size for minsize-oddgap")
    seq.add_argument("--from", dest="start", type=int, default=None)
    seq.add_argument("--to", type=int, default=None)
    seq.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    add_common(seq)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--id", dest="identity", default=None)
    verify.add_argument("--n", type=int, default=None, help="family order for gen-sum/gen-shift")
    verify.add_argument("--to", type=int, default=None)
    verify.add_argument("--oracle-to", dest="oracle_to", type=int, default=None)
    verify.add_argument("--threshold", default=None, help="bound on 1 - r_to for the ratio check")
    verify.add_argument("--enum-limit", dest="enum_limit", type=int, default=None)
    verify.add_argument("--format", dest="fmt", choices=("table", "json"), default=None)
    add_common(verify)

    discover = sub.add_parser("discover", help="recover a minimal recurrence empirically")
    discover.add_argument("--alpha", type=int, default=None)
    discover.add_argument("--beta", type=int, default=None)
    discover.add_argument("--probe", type=int, default=None)
    discover.add_argument("--expect-order", dest="expect_order", type=int, default=None)
    discover.add_argument("--format", dest="fmt", choices=("table", "json"), default=None)
    add_common(discover)

    enum = sub.add_parser("enumerate", help="list matching subsets (debug, n <= limit)")
    enum.add_argument("--n", type=int, default=None)
    add_condition_flags(enum)
    add_common(enum)

    return parser


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    config = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key, hard_default in defaults.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = hard_default
    return merged


def _require(params: dict, key: str, flag: str):
    if params[key] is None:
        raise UsageError(f"missing required flag {flag}")
    return params[key]


def _resolve_limit(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENUM_LIMIT_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{ENUM_LIMIT_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_ENUM_LIMIT


def _build_condition(params: dict) -> Condition:
    parity = _PARITY_FLAGS.get(params["gap_parity"])
    if parity is None:
        raise UsageError(f"gap-parity must be one of {sorted(_PARITY_FLAGS)}")
    try:
        return Condition(
            alpha=params["alpha"],
            beta=params["beta"],
            gap_parity=parity,
            min_size=params["min_size"],
            forced_max=params["forced_max"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _free_count(n: int, cond: Condition):
    # Count for a condition without forced_max, from the closed forms and
    # fast recurrence evaluation; None means no engine covers its shape.
    if n == 0:
        return int(cond.min_size == 0)  # only the empty set
    if cond.gap_parity == GAP_ANY:
        if cond.alpha is None or cond.min_size:
            return None
        # Every gap is already >= 1, so alpha alone is beta = 1.
        return schreier_zeckendorf_count(cond.alpha, cond.beta or 1, n)
    if cond.alpha is not None or cond.beta is not None:
        return None
    return gap_parity_count(n, cond.gap_parity, cond.min_size)


def _recurrence_count(n: int, cond: Condition):
    # The int `count` prints, or None when no engine covers the shape.
    # Subsets of {1..n} with maximum m are those of {1..m} less those of
    # {1..m-1}.
    if cond.forced_max is None:
        return _free_count(n, cond)
    free = replace(cond, forced_max=None)
    top = _free_count(cond.forced_max, free)
    if top is None:
        return None
    return top - _free_count(cond.forced_max - 1, free)


def _cmd_count(cfg: RunConfig) -> int:
    params = cfg.params
    n = _require(params, "n", "--n")
    if n < 0:
        raise UsageError("n must be >= 0")
    limit = _resolve_limit(params["enum_limit"])
    cond = _build_condition(params)
    if cond.forced_max is not None and cond.forced_max > n:
        raise UsageError(f"forced_max {cond.forced_max} exceeds n={n}")
    engine = params["engine"]
    if engine not in ("auto", "oracle", "recurrence"):
        raise UsageError("engine must be auto, oracle, or recurrence")

    if engine == "oracle" or (engine == "auto" and n <= limit):
        value = count_subsets(n, cond, limit)
    else:
        value = _recurrence_count(n, cond)
        if value is None:
            beyond = f"n={n} exceeds the enumeration limit {limit} and " if n > limit else ""
            print(f"error: {beyond}no recurrence engine covers this condition", file=sys.stderr)
            return LIMIT
    _emit(render_int(value) + "\n", cfg.output)
    return OK


def _family_window(family: str, params: dict):
    to = _require(params, "to", "--to")
    try:
        if family == "fib":
            return fibonacci_seq(to)
        if family == "H":
            return h_seq(to)
        if family == "schreier-zeckendorf":
            alpha = _require(params, "alpha", "--alpha")
            beta = _require(params, "beta", "--beta")
            return schreier_zeckendorf_seq(alpha, beta, to)
        if family == "genfib":
            return gen_fib_seq(_require(params, "n", "--n"), to)
        if family == "genk":
            return k_seq(_require(params, "n", "--n"), to)
        if family == "genh":
            return gen_h_seq(_require(params, "n", "--n"), to)
        if family == "minsize-oddgap":
            return min_size_odd_gap_seq(to, _require(params, "k", "--k"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


def _cmd_seq(cfg: RunConfig) -> int:
    params = cfg.params
    family = _require(params, "family", "--family")
    window = _family_window(family, params)
    if params["start"] is not None:
        try:
            window = window.clip(params["start"])
        except IndexError as exc:
            raise UsageError(str(exc)) from exc
    _emit(format_window(window, params["fmt"]), cfg.output)
    return OK


def _report_rows(report: IdentityReport) -> list[str]:
    lo, hi = report.range_checked
    status = "PASS" if report.passed else "FAIL"
    rows = [f"{report.identity_id}: {status}  range [{lo}, {hi}]"]
    if report.first_counterexample is not None:
        index, lhs, rhs = report.first_counterexample
        rows.append(f"  first counterexample at {index}: {lhs} != {rhs}")
    return rows


def _report_json(report: IdentityReport) -> dict:
    ce = report.first_counterexample
    return {
        "id": report.identity_id,
        "range": list(report.range_checked),
        "passed": report.passed,
        "counterexample": None
        if ce is None
        else {"index": ce[0], "lhs": str(ce[1]), "rhs": str(ce[2])},
    }


def _ratio_as_report(to: int, threshold: Fraction) -> tuple[IdentityReport, str]:
    conv = ratio_report(to)
    gap = conv.final_gap_exact
    if gap < threshold:
        report = IdentityReport("ratio", (1, to), True)
    else:
        report = IdentityReport(
            "ratio", (1, to), False, (to, conv.final_gap, decimal_string(threshold))
        )
    detail = f"  1 - r_{to} = {conv.final_gap}  (threshold {decimal_string(threshold)})"
    return report, detail


def _cmd_verify(cfg: RunConfig) -> int:
    params = cfg.params
    identity = _require(params, "identity", "--id")
    if identity not in VERIFY_IDS:
        raise UsageError(f"unknown identity {identity!r}; known: {', '.join(VERIFY_IDS)}")
    if params["fmt"] not in ("table", "json"):
        raise UsageError("format must be table or json")
    limit = _resolve_limit(params["enum_limit"])
    orders = [params["n"]] if params["n"] is not None else list(range(2, 9))
    try:
        threshold = Fraction(params["threshold"] if params["threshold"] is not None else "1e-3")
    except ValueError as exc:
        raise UsageError(f"bad threshold: {exc}") from exc

    def reach(default: int) -> int:
        # Range flags only retarget the identity they were asked for; the
        # "all" battery keeps every check at its stock range (the bijection
        # check in particular enumerates 2**n subsets per step).
        if identity != "all" and params["to"] is not None:
            return params["to"]
        return default

    reports: list[IdentityReport] = []
    details: dict[str, str] = {}
    if identity in ("fib-h", "all"):
        reports.append(check_fib_h(reach(200)))
    if identity in ("gen-sum", "all"):
        for order in orders:
            reports.append(check_gen_sum(order, reach(300)))
    if identity in ("gen-shift", "all"):
        for order in orders:
            reports.append(check_gen_shift(order, reach(300)))
    if identity in ("oddgap-h", "all"):
        oracle_to = params["oracle_to"] if params["oracle_to"] is not None else 12
        reports.append(check_odd_gap_h(oracle_to, reach(500), limit))
    if identity in ("bijection", "all"):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                reports.append(check_bijection_round_trip(alpha, beta, reach(12), limit))
    if identity in ("ratio", "all"):
        report, detail = _ratio_as_report(reach(60), threshold)
        reports.append(report)
        details[report.identity_id] = detail

    if params["fmt"] == "json":
        payload = {"schema": 1, "reports": [_report_json(r) for r in reports]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = []
        for report in reports:
            rows.extend(_report_rows(report))
            if report.identity_id in details:
                rows.append(details[report.identity_id])
        text = "\n".join(rows) + "\n"
    _emit(text, cfg.output)
    return OK if all(r.passed for r in reports) else VERIFY_FAIL


def _cmd_discover(cfg: RunConfig) -> int:
    params = cfg.params
    alpha = _require(params, "alpha", "--alpha")
    beta = _require(params, "beta", "--beta")
    if params["fmt"] not in ("table", "json"):
        raise UsageError("format must be table or json")
    probe = params["probe"] if params["probe"] is not None else 8 * (alpha + beta)
    try:
        report = discover_order(alpha, beta, probe)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if report.found is None:
        _emit(f"inconclusive: {report.note}\n", cfg.output)
        return INCONCLUSIVE

    rec = report.found
    if params["fmt"] == "json":
        payload = {
            "schema": 1,
            "order": rec.order,
            "coeffs": [str(c) for c in rec.coeffs],
            "valid_from": rec.valid_from,
            "verified_upto": report.verified_upto,
            "minimal": report.minimal,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"order: {rec.order}\n"
            f"coeffs: {' '.join(str(c) for c in rec.coeffs)}\n"
            f"valid_from: {rec.valid_from}\n"
            f"verified_upto: {report.verified_upto}\n"
            f"minimal: {'true' if report.minimal else 'false'}\n"
        )
    _emit(text, cfg.output)

    if params["expect_order"] is not None and rec.order != params["expect_order"]:
        print(
            f"error: discovered order {rec.order}, expected {params['expect_order']}",
            file=sys.stderr,
        )
        return VERIFY_FAIL
    return OK


def _cmd_enumerate(cfg: RunConfig) -> int:
    params = cfg.params
    n = _require(params, "n", "--n")
    limit = _resolve_limit(params["enum_limit"])
    cond = _build_condition(params)
    lines = [
        "{" + ",".join(str(e) for e in s.elements) + "}"
        for s in enumerate_subsets(n, cond, limit)
    ]
    _emit("".join(line + "\n" for line in lines), cfg.output)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        cfg = RunConfig(
            command=args.command,
            params=_merge_config(args, COMMAND_DEFAULTS[args.command]),
            output=args.output,
        )
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def run() -> None:
    sys.exit(main())
