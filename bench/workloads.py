"""Workloads of the seqforge benchmark: the pass of each workload, seeded
orderings of it, and the executor that runs one operation and digests its
output.

A workload is one fixed pass: a list of operations drawn from the
workload's parameter grid, each grid point at most once, so every one has a
committed golden digest (goldens.json, written by make_goldens.py). A run
repeats whole passes, each in a fresh order drawn from --seed. Every pass
and every run therefore does the same work, and a figure taken per pass
differs between passes, and between seeds, only by the machine's noise and
the order of operations.

Where the grid is a cross product too large to run whole (condition shapes
by n, families by --to), a pass takes every value of the first factor once
and cycles the second through its range, so the pass covers both ranges.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from dataclasses import dataclass

MOD_1E9_7 = 10**9 + 7
MOD_M61 = 2**61 - 1

# Shapes of the oracle's `count`/`enumerate` conditions; `{n}` is replaced
# by the operation's n. A scan under a gap-parity condition alone costs
# about three times one under alpha/beta at the same n, so each kind cycles
# through the sizes on its own.
ORACLE_PARITY_SHAPES = (
    [("--gap-parity", p, "--min-size", m) for p in ("odd", "even") for m in range(4)]
    + [("--gap-parity", p, "--forced-max", "{n}") for p in ("odd", "even")]
)
ORACLE_ALPHA_SHAPES = (
    [("--alpha", a, "--beta", b) for a in (1, 2, 3) for b in (1, 2, 3)]
    + [("--alpha", a, "--gap-parity", p) for a in (1, 2, 3) for p in ("odd", "even")]
    + [("--forced-max", "{n}"), ("--alpha", 2, "--beta", 1, "--forced-max", "{n}")]
)

SEQ_FAMILIES = (
    ("fib", ((),)),
    ("H", ((),)),
    ("schreier-zeckendorf", tuple(("--alpha", a, "--beta", b) for a, b in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 4)))),
    ("genfib", tuple(("--n", n) for n in (2, 3, 4, 5))),
    ("genk", tuple(("--n", n) for n in (2, 3, 4, 5))),
    ("genh", tuple(("--n", n) for n in (2, 3, 4, 5))),
    ("minsize-oddgap", tuple(("--k", k) for k in (1, 2, 3, 4))),
)
SEQ_FORMATS = ("table", "csv", "json", "bfile")

# Grid parameters per size. "full" is what the benchmark measures; "smoke"
# runs the same code paths on tiny inputs for the benchmark's own test.
SIZES = {
    "full": {
        "cold_starts": 12,
        "count_n": range(14, 21),
        "enumerate_n": range(10, 16),
        "bijection_to": (11, 12),
        "oddgap_oracle_to": (14, 15, 16),
        "sz_n": (100_000, 150_000, 200_000, 300_000, 500_000, 1_000_000),
        "sz_ab": range(1, 5),
        "even_n": (100_000, 200_000, 500_000, 1_000_000),
        "oddmin_n": (5_000, 10_000, 20_000),
        "oddmin_k": range(2, 7),
        "odd_n": (20_000, 50_000, 100_000),
        "seq_to": (500, 1000, 2000, 3000, 5000),
        "verify_to": (500, 1000, 2000, 3000),
        "ratio_to": (250, 500, 1000, 2000),
        "gen_orders": (2, 3, 4, 5),
        "eval_sz": ((1, 1), (2, 3), (5, 5), (10, 10), (20, 20), (30, 30), (40, 40), (60, 60), (80, 80), (100, 100)),
        "eval_dense_k": (8, 16, 32, 48, 64),
        "eval_n": (10**12, 10**14, 10**16, 10**18),
        "bm_minsize_k": range(8),
        "bm_random_order": (3, 5, 8, 12),
        "discover_ab": range(1, 7),
    },
    "smoke": {
        "cold_starts": 3,
        "count_n": (8, 9),
        "enumerate_n": (6, 7),
        "bijection_to": (6,),
        "oddgap_oracle_to": (8,),
        "sz_n": (1_000, 2_000),
        "sz_ab": (1, 2),
        "even_n": (1_000,),
        "oddmin_n": (500,),
        "oddmin_k": (2, 3),
        "odd_n": (1_000, 2_000),
        "seq_to": (20, 40),
        "verify_to": (20,),
        "ratio_to": (60,),
        "gen_orders": (2,),
        "eval_sz": ((1, 1), (2, 3)),
        "eval_dense_k": (4,),
        "eval_n": (10**6,),
        "bm_minsize_k": (0, 2),
        "bm_random_order": (3,),
        "discover_ab": (1, 2),
    },
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv for `seqforge.cli.main`, or a library call.

    key names the grid point in goldens.json. For CLI operations it is the
    argv joined by spaces; for library calls it starts with "lib".
    """

    key: str
    argv: tuple | None = None
    call: tuple | None = None


def cli(*argv) -> Op:
    argv = tuple(str(a) for a in argv)
    return Op(" ".join(argv), argv=argv)


def lib(*call) -> Op:
    return Op("lib " + " ".join(str(c) for c in call), call=call)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # one pass, each grid point at most once


def cycle(values, over) -> list[tuple]:
    """(item, value) for every item of over, the values taken in turn."""
    values = tuple(values)
    return [(item, values[i % len(values)]) for i, item in enumerate(over)]


def _oracle(g: dict) -> Workload:
    def fill(shape, n):
        return tuple(n if f == "{n}" else f for f in shape)

    ops = []
    for command, sizes in (("count", g["count_n"]), ("enumerate", g["enumerate_n"])):
        for shapes in (ORACLE_PARITY_SHAPES, ORACLE_ALPHA_SHAPES):
            ops += [cli(command, "--n", n, *fill(s, n)) for s, n in cycle(sizes, shapes)]
    ops += [cli("verify", "--id", "bijection", "--to", t) for t in g["bijection_to"]]
    ops += [cli("verify", "--id", "oddgap-h", "--oracle-to", t) for t in g["oddgap_oracle_to"]]
    return Workload("oracle", tuple(ops))


def _bigcount(g: dict) -> Workload:
    rec = ("--engine", "recurrence")
    pairs = [(a, b) for a in g["sz_ab"] for b in g["sz_ab"]]
    # The sizes ascend, so the largest get the fewest pairs.
    ops = [cli("count", "--n", n, "--alpha", a, "--beta", b, *rec) for (a, b), n in cycle(g["sz_n"], pairs)]
    for n in g["even_n"]:
        ops += [cli("count", "--n", n, "--gap-parity", "even", *extra, *rec) for extra in ((), ("--forced-max", n))]
    ops += [
        cli("count", "--n", n, "--gap-parity", "odd", "--min-size", k, *rec)
        for n in g["oddmin_n"] for k in g["oddmin_k"]
    ]
    # Every pass holds the odd-gap total at the top n; it keeps Theta(n^2)
    # bits of terms at once and sets peak_rss_mb.
    for n in g["odd_n"]:
        ops += [cli("count", "--n", n, "--gap-parity", "odd", *extra, *rec) for extra in ((), ("--forced-max", n))]
    return Workload("bigcount", tuple(ops))


def _series(g: dict) -> Workload:
    outputs = [(family, params, fmt) for family, variants in SEQ_FAMILIES for params in variants for fmt in SEQ_FORMATS]
    ops = []
    for i, ((family, params, fmt), to) in enumerate(cycle(g["seq_to"], outputs)):
        start = ("--from", to // 2) if i // len(g["seq_to"]) % 2 else ()
        ops.append(cli("seq", "--family", family, *params, "--to", to, *start, "--format", fmt))
    ops += [cli("verify", "--id", "fib-h", "--to", t) for t in g["verify_to"]]
    for identity in ("gen-sum", "gen-shift"):
        ops += [cli("verify", "--id", identity, "--n", n, "--to", t) for n, t in cycle(g["verify_to"], g["gen_orders"])]
    ops += [cli("verify", "--id", "ratio", "--to", t) for t in g["ratio_to"]]
    return Workload("series", tuple(ops))


def _modeval(g: dict) -> Workload:
    mods = (MOD_1E9_7, MOD_M61)
    sz = [(ab, p) for ab in g["eval_sz"] for p in mods]
    ops = [lib("eval_fast", "sz", a, b, n, p) for ((a, b), p), n in cycle(g["eval_n"], sz)]
    dense = [(k, i, p) for k in g["eval_dense_k"] for i in (0, 1) for p in mods]
    ops += [lib("eval_fast", "dense", k, i, n, p) for (k, i, p), n in cycle(g["eval_n"], dense)]
    ops += [
        lib("berlekamp_massey", "minsize-oddgap", k, length)
        for k in g["bm_minsize_k"] for length in _bm_lengths(3 if k <= 1 else 2 * k)
    ]
    ops += [
        lib("berlekamp_massey", "random", order, i, length)
        for order in g["bm_random_order"] for i in (0, 1) for length in _bm_lengths(order)
    ]
    ops += [cli("discover", "--alpha", a, "--beta", b) for a in g["discover_ab"] for b in g["discover_ab"]]
    return Workload("modeval", tuple(ops))


def _bm_lengths(order: int) -> tuple:
    # One prefix one term short of the 2L + margin that BM needs to conclude,
    # so the inconclusive path runs too, then two conclusive lengths.
    return (2 * order + 1, 3 * order, 5 * order)


BUILDERS = {"oracle": _oracle, "bigcount": _bigcount, "series": _series, "modeval": _modeval}
WORKLOADS = tuple(BUILDERS)


def build(name: str, size: str = "full") -> Workload:
    return BUILDERS[name](SIZES[size])


def passes(workload: Workload, seed: int):
    """Endless passes over the workload, each in a fresh seeded order."""
    rng = random.Random(seed)
    while True:
        ops = list(workload.ops)
        rng.shuffle(ops)
        yield ops


# --- library-call inputs, built once before timing -------------------------

def dense_recurrence(pkg, k: int, i: int):
    """Random order-k recurrence with 61-bit coefficients; reproducible from (k, i)."""
    rng = random.Random(f"dense:{k}:{i}")
    coeffs = [rng.randrange(2**61) for _ in range(k)]
    coeffs[-1] = coeffs[-1] or 1
    initials = tuple(rng.randrange(2**61) for _ in range(k))
    return pkg.LinearRecurrence(coeffs=tuple(coeffs), initials=initials)


def random_recurrence_prefix(order: int, i: int, length: int) -> tuple[tuple, list]:
    """(coeffs, prefix) of a random small-coefficient recurrence; reproducible
    from (order, i). The prefix is built by plain iteration, not the library."""
    rng = random.Random(f"bm:{order}:{i}")
    coeffs = [rng.randint(-9, 9) for _ in range(order)]
    coeffs[-1] = coeffs[-1] or 1
    terms = [rng.randint(-9, 9) for _ in range(order)]
    while len(terms) < length:
        terms.append(sum(c * terms[-1 - t] for t, c in enumerate(coeffs)))
    return tuple(coeffs), terms[:length]


def canonical(result) -> str:
    """Text that a library result's digest is taken over. Messages (the
    report's note) are left out, like stderr for CLI operations."""
    if isinstance(result, int):
        return str(result)
    rec = result.found
    head = "inconclusive" if rec is None else f"{rec.coeffs!r} {rec.initials!r} {rec.valid_from}"
    return f"{head} {result.verified_upto} {result.minimal}"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class _HashSink:
    """Stand-in for sys.stdout: hashes and counts what is written."""

    encoding = "utf-8"

    def __init__(self, keep: bool) -> None:
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.chunks: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.hash.update(data)
        self.bytes += len(data)
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class _Discard:
    encoding = "utf-8"

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Outcome:
    seconds: float
    digest: str  # "<sha256 prefix>:<exit code>"
    out_bytes: int
    value: object  # stdout text (when kept) or the library result


class Executor:
    """Runs operations against one imported seqforge package.

    Functions are looked up on their module at call time, so wrappers that a
    tracer installs take effect without rebuilding the executor.
    """

    def __init__(self, pkg, ops) -> None:
        self.pkg = pkg
        self.inputs = {}
        for op in ops:
            if op.call is not None:
                self.inputs[op.key] = self._prepare(op.call)

    def _prepare(self, call: tuple):
        pkg = self.pkg
        name, kind, *params = call
        if name == "eval_fast":
            *shape, n, p = params
            if kind == "sz":
                rec = pkg.tail_recurrence_of("schreier-zeckendorf", alpha=shape[0], beta=shape[1])
            else:
                rec = dense_recurrence(pkg, *shape)
            return (rec, n, pkg.EvalMode(p))
        if kind == "minsize-oddgap":
            k, length = params
            return (list(pkg.min_size_odd_gap_seq(length, k).terms), 1)
        order, i, length = params
        return (random_recurrence_prefix(order, i, length)[1], 0)

    def run(self, op: Op, keep: bool = False) -> Outcome:
        if op.argv is not None:
            return self._run_cli(op.argv, keep)
        fn = getattr(self.pkg, op.call[0])
        args = self.inputs[op.key]
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation; the run goes on
            end = time.perf_counter()
            return Outcome(end - start, f"raised {type(exc).__name__}", 0, exc)
        end = time.perf_counter()
        return Outcome(end - start, digest(canonical(result).encode()) + ":0", 0, result)

    def _run_cli(self, argv: tuple, keep: bool) -> Outcome:
        sink = _HashSink(keep)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = sink, _Discard()
        start = time.perf_counter()
        try:
            code = self.pkg.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed operation; the run goes on
            end = time.perf_counter()
            sys.stdout, sys.stderr = saved
            return Outcome(end - start, f"raised {type(exc).__name__}", sink.bytes, exc)
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
        text = "".join(sink.chunks) if keep else None
        return Outcome(end - start, f"{sink.hash.hexdigest()[:16]}:{code}", sink.bytes, text)
