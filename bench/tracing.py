"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of seqforge's modules from outside,
in every namespace that looks them up (``cli`` and ``identities`` use
``from ... import``, so their names are wrapped next to the defining
module's). Each call records one span: name, start, end, parent span and
operation id. Spans stay in memory until the caller writes them out.

Work counts are computed from each call's arguments and result, never from
timers, so they repeat exactly across runs with one seed. The time spent
computing them is recorded as a ``trace.bookkeeping`` span beside the call,
so it does not land in the caller's self time.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

MODULES = ("subsets", "recurrences", "fasteval", "discovery", "identities", "formats", "cli")

# Per-subset predicates and the bijection halves run once per enumerated
# subset; a span around each would cost more than the work it measures.
# `run` only wraps `main` and exits.
UNWRAPPED = frozenset({
    "matches", "is_alpha_schreier", "is_beta_zeckendorf", "difference_set",
    "drop_max_shift_down", "shift_up_adjoin_max", "run",
})

BOOKKEEPING = "trace.bookkeeping"

# (metric, unit) emitted by the traced run, in output order.
LAYER_METRICS = (
    ("subsets.count_subsets.ms", "ms"),
    ("subsets.count_subsets.calls", "count"),
    ("subsets.enumerate_subsets.ms", "ms"),
    ("subsets.candidates", "count"),
    ("subsets.matches", "count"),
    ("subsets.match_ratio", "fraction"),
    ("fasteval.eval_fast.exact.ms", "ms"),
    ("fasteval.eval_fast.mod.ms", "ms"),
    ("fasteval.eval_fast.calls", "count"),
    ("fasteval.schreier_zeckendorf_count.ms", "ms"),
    ("fasteval.result_bits", "bits"),
    ("fasteval.poly_mulmods", "count"),
    ("fasteval.coeff_products", "count"),
    ("recurrences.min_size_odd_gap_seq.ms", "ms"),
    ("recurrences.min_size_odd_gap_count.ms", "ms"),
    ("recurrences.odd_gap_counts.ms", "ms"),
    ("recurrences.even_gap_counts.ms", "ms"),
    ("recurrences.fibonacci_seq.ms", "ms"),
    ("recurrences.h_seq.ms", "ms"),
    ("recurrences.schreier_zeckendorf_seq.ms", "ms"),
    ("recurrences.gen_fib_seq.ms", "ms"),
    ("recurrences.k_seq.ms", "ms"),
    ("recurrences.gen_h_seq.ms", "ms"),
    ("recurrences.terms", "count"),
    ("recurrences.term_bits", "bits"),
    ("render.int_to_str.ms", "ms"),
    ("render.digits", "count"),
    ("formats.format_bfile.ms", "ms"),
    ("formats.format_csv.ms", "ms"),
    ("formats.format_json.ms", "ms"),
    ("formats.format_table.ms", "ms"),
    ("formats.bytes_out", "bytes"),
    ("discovery.berlekamp_massey.ms", "ms"),
    ("discovery.discover_order.ms", "ms"),
    ("discovery.prefix_terms", "count"),
    ("discovery.reports", "count"),
    ("discovery.conclusive_ratio", "fraction"),
    ("identities.check_bijection_round_trip.ms", "ms"),
    ("identities.check_odd_gap_h.ms", "ms"),
    ("identities.check_fib_h.ms", "ms"),
    ("identities.check_gen_sum.ms", "ms"),
    ("identities.check_gen_shift.ms", "ms"),
    ("identities.ratio_report.ms", "ms"),
    ("identities.decimal_string.ms", "ms"),
    ("identities.indices_checked", "count"),
    ("cli.main.ms", "ms"),
    ("cli.build_parser.ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.output_bytes", "bytes"),
    ("trace.pass_ops", "count"),
    ("trace.spans", "count"),
    ("trace.span_cost_us", "us"),
    ("trace.est_overhead_ms", "ms"),
    ("trace.untraced_ops_s", "ops/s"),
    ("trace.traced_ops_s", "ops/s"),
    ("trace.overhead_ops_s", "ops/s"),
    ("trace.pass_spread_ops_s", "ops/s"),
)

# Metrics that are counts of work; they must repeat exactly for one seed.
COMPUTED = (
    "subsets.count_subsets.calls", "subsets.candidates", "subsets.matches",
    "fasteval.eval_fast.calls", "fasteval.result_bits", "fasteval.poly_mulmods",
    "fasteval.coeff_products", "recurrences.terms", "recurrences.term_bits",
    "render.digits", "formats.bytes_out", "discovery.prefix_terms", "discovery.reports",
    "identities.indices_checked", "cli.output_bytes", "trace.pass_ops", "trace.spans",
)


class Tracer:
    """Spans and work counts of one traced pass over the operations.

    A span is a list [name, start, end, parent index or -1, operation id].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.rendered_ints: list[int] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent_module(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent < 0 else self.spans[parent][0].split(".", 1)[0]

    def wrap(self, name: str, fn, counter=None, namer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name if namer is None else namer(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                begin = time.perf_counter()
                result = counter(tracer, idx, result, *args, **kwargs)
                tracer.spans.append([BOOKKEEPING, begin, time.perf_counter(), tracer.spans[idx][3], tracer.op])
            return result

        return traced

    def capture(self, fn):
        """fn, with each int it returns kept as one that output renders."""
        tracer = self

        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, int) and not isinstance(result, bool):
                tracer.rendered_ints.append(result)
            return result

        return captured

    def iterate(self, name: str, iterator):
        """Charge the time of every next() on iterator to a span of name."""
        while True:
            idx = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts["subsets.matches"] += 1
            yield item

    # --- installing ------------------------------------------------------

    def install(self, pkg):
        """Wrap every public function of MODULES in all of pkg's namespaces;
        returns a callable that restores the originals."""
        modules = [getattr(pkg, m) for m in MODULES]
        namespaces = [pkg] + modules
        saved = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__ or isinstance(fn, type):
                    continue
                name = f"{short}.{attr}"
                counter, namer = COUNTERS.get(name, (None, None))
                wrapper = self.wrap(name, fn, counter, namer)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)

        # `count` prints the int that cli._recurrence_count, or count_subsets
        # called from cli, returns. The hook opens no span.
        recurrence_count = getattr(pkg.cli, "_recurrence_count", None)
        if recurrence_count is not None:
            saved.append((pkg.cli, "_recurrence_count", recurrence_count))
            pkg.cli._recurrence_count = self.capture(recurrence_count)

        def restore() -> None:
            for ns, key, fn in saved:
                setattr(ns, key, fn)

        return restore

    # --- summarising -----------------------------------------------------

    def take_rendered_ints(self) -> list[int]:
        values, self.rendered_ints = self.rendered_ints, []
        return values

    def layer_ms(self) -> dict:
        """Busy ms per span name, and cli.self_ms.

        A span nested inside a span of the same name is not counted again.
        """
        spans = self.spans
        busy = defaultdict(float)
        calls = Counter()
        children = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
        cli_self = sum(
            end - start - children[i]
            for i, (name, start, end, _, _) in enumerate(spans) if name == "cli.main"
        )
        return {"busy": {k: v * 1000 for k, v in busy.items()}, "calls": calls, "cli_self_ms": cli_self * 1000}


# --- work counters -----------------------------------------------------------
# Each takes (tracer, span index, result, *call arguments) and returns the
# result, which it may wrap.

def _ints_of(result) -> list[int]:
    if isinstance(result, bool):
        return []
    if isinstance(result, int):
        return [result]
    if isinstance(result, tuple) and all(isinstance(v, int) for v in result):
        return list(result)
    return []


def _count_subsets(tracer, idx, result, n, *args, **kwargs):
    tracer.counts["subsets.candidates"] += 1 << n
    tracer.counts["subsets.matches"] += result
    if tracer.parent_module(idx) == "cli":
        tracer.rendered_ints.append(result)
    return result


def _enumerate_subsets(tracer, idx, result, n, *args, **kwargs):
    tracer.counts["subsets.candidates"] += 1 << n
    return tracer.iterate("subsets.enumerate_subsets", result)


def _eval_fast_args(rec, n, mode=None, method="poly"):
    return rec, n, mode, method


def _eval_fast_name(*args, **kwargs):
    mode = _eval_fast_args(*args, **kwargs)[2]
    return "fasteval.eval_fast.exact" if mode is None or mode.modulus is None else "fasteval.eval_fast.mod"


def _eval_fast(tracer, idx, result, *args, **kwargs):
    rec, n, _, method = _eval_fast_args(*args, **kwargs)
    j, k = n - rec.valid_from, rec.order
    if method == "poly" and j >= k:
        # square-and-multiply over the bits of j, one k-by-k product each
        mulmods = j.bit_length() + bin(j).count("1") - 1
        tracer.counts["fasteval.poly_mulmods"] += mulmods
        tracer.counts["fasteval.coeff_products"] += mulmods * k * k
    return _fasteval_result(tracer, idx, result)


def _fasteval_result(tracer, idx, result, *args, **kwargs):
    if tracer.parent_module(idx) != "fasteval":
        tracer.counts["fasteval.result_bits"] += sum(v.bit_length() for v in _ints_of(result))
    return result


def _recurrence_result(tracer, idx, result, *args, **kwargs):
    if tracer.parent_module(idx) != "recurrences":
        terms = getattr(result, "terms", None)
        values = list(terms) if terms is not None else _ints_of(result)
        tracer.counts["recurrences.terms"] += len(values)
        tracer.counts["recurrences.term_bits"] += sum(v.bit_length() for v in values)
    return result


def _format_result(tracer, idx, result, *args, **kwargs):
    tracer.counts["formats.bytes_out"] += len(result.encode())
    return result


def _discovery_report(tracer, idx, result, *args, **kwargs):
    if tracer.parent_module(idx) != "discovery":
        tracer.counts["discovery.reports"] += 1
        tracer.counts["discovery.conclusive"] += result.found is not None
    return result


def _berlekamp_massey(tracer, idx, result, prefix, *args, **kwargs):
    tracer.counts["discovery.prefix_terms"] += len(prefix)
    return _discovery_report(tracer, idx, result)


def _identity_report(tracer, idx, result, *args, **kwargs):
    if tracer.parent_module(idx) != "identities":
        if hasattr(result, "range_checked"):
            lo, hi = result.range_checked
            tracer.counts["identities.indices_checked"] += hi - lo + 1
        else:
            tracer.counts["identities.indices_checked"] += len(result.samples)
    return result


COUNTERS = {
    "subsets.count_subsets": (_count_subsets, None),
    "subsets.enumerate_subsets": (_enumerate_subsets, None),
    "fasteval.eval_fast": (_eval_fast, _eval_fast_name),
    "fasteval.schreier_zeckendorf_count": (_fasteval_result, None),
    "discovery.berlekamp_massey": (_berlekamp_massey, None),
    "discovery.discover_order": (_discovery_report, None),
    **{f"recurrences.{fn}": (_recurrence_result, None) for fn in (
        "fibonacci", "fibonacci_seq", "partial_sum", "h_seq", "schreier_zeckendorf_seq",
        "gen_fib_seq", "k_seq", "gen_h_seq", "odd_gap_counts", "even_gap_counts",
        "min_size_odd_gap_seq", "min_size_odd_gap_count",
    )},
    **{f"formats.format_{fmt}": (_format_result, None) for fmt in ("bfile", "csv", "json", "table")},
    **{f"identities.{fn}": (_identity_report, None) for fn in (
        "check_fib_h", "check_gen_sum", "check_gen_shift", "check_odd_gap_h",
        "check_bijection_round_trip", "ratio_report",
    )},
}


def pass_metrics(tracer: Tracer, render_ms: float, digits: int, output_bytes: int) -> dict:
    """Per-layer values of one traced pass (before the trace.* figures)."""
    ms = tracer.layer_ms()
    busy, calls, counts = ms["busy"], ms["calls"], tracer.counts
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric.endswith(".ms"):
            out[metric] = busy.get(metric[:-3], 0.0)
    out["subsets.count_subsets.calls"] = calls["subsets.count_subsets"]
    out["fasteval.eval_fast.calls"] = calls["fasteval.eval_fast.exact"] + calls["fasteval.eval_fast.mod"]
    for metric in COMPUTED:
        out.setdefault(metric, counts[metric])
    candidates = counts["subsets.candidates"]
    out["subsets.match_ratio"] = counts["subsets.matches"] / candidates if candidates else 0.0
    reports = counts["discovery.reports"]
    out["discovery.conclusive_ratio"] = counts["discovery.conclusive"] / reports if reports else 0.0
    out["render.int_to_str.ms"] = render_ms
    out["render.digits"] = digits
    out["cli.self_ms"] = ms["cli_self_ms"]
    out["cli.output_bytes"] = output_bytes
    out["trace.spans"] = len(tracer.spans)
    return out


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a no-op function timed wrapped and
    bare, median of a few repeats."""
    def noop():
        return None

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("trace.calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)
