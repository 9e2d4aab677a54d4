"""seqforge benchmark: one workload, seeded, closed loop, one client.

    python3 bench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Run from the root of a source checkout; seqforge is imported from ./src.
Each operation is a real argv passed to seqforge.cli.main() with stdout
captured by a hashing sink, or a public library call. Every output is
compared with its committed golden digest (goldens.json).

A run repeats whole passes over the workload's fixed list of operations,
each pass in an order drawn from --seed, so every pass does the same work.
--trace 0 reports the end-to-end metrics: throughput and latency p50/p90
over each operation's median wall time across the passes, scaled to a
reference machine speed by a probe timed after each operation; peak RSS
of this process, which runs only this workload; and setup_s, the median
cold start of a fresh interpreter running one trivial `seqforge count`,
scaled alike.
failed_ratio is printed on the summary line. --trace 1 runs passes
alternately untraced and traced and reports the per-layer metrics of
tracing.LAYER_METRICS plus the tracing overhead. The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Every operation runs at least this many times, so its median is taken over
# several moments of the machine's drift, and the four or more operations
# beyond p90 hold at least ten samples.
MIN_PASSES = 3
# A run short of that stops anyway, after a whole pass, past this many --seconds.
MAX_STRETCH = 3
# Cold starts made after each pass, until the run's quota is met.
COLD_STARTS_PER_PASS = 2
# Steps of the speed probe timed after every operation, and the probe's
# reference time: about its median in the fast state of the machine that
# bench/README.md describes.
PROBE_STEPS = 3000
PROBE_REFERENCE_S = 0.0002

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

COLD_START = (
    "import sys\n"
    "from seqforge.cli import run\n"
    "sys.argv[1:] = ['count', '--n', '5', '--alpha', '2', '--beta', '1']\n"
    "run()\n"
)


def import_program():
    """Import seqforge from this checkout's src/, and nowhere else."""
    if not (SRC / "seqforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqforge
    import seqforge.cli

    if Path(seqforge.__file__).resolve().parent != SRC / "seqforge":
        raise SystemExit(f"error: imported seqforge from {seqforge.__file__}, not {SRC}")
    return seqforge


class Bench:
    def __init__(self, workload_name: str, seed: int, size: str) -> None:
        self.pkg = import_program()
        self.workload = workloads.build(workload_name, size)
        self.size = size
        self.seed = seed
        goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
        self.goldens = goldens[self.workload.name]
        self.executor = workloads.Executor(self.pkg, self.workload.ops)
        self.attempted = 0
        self.failed = 0

    def run_op(self, op, keep=False):
        outcome = self.executor.run(op, keep)
        self.attempted += 1
        if self.goldens.get(op.key) != outcome.digest:
            self.failed += 1
            print(f"mismatch: {op.key}: got {outcome.digest}, want {self.goldens.get(op.key)}", file=sys.stderr)
        return outcome

    # --- end-to-end ------------------------------------------------------

    def cold_start(self) -> float:
        """Seconds from spawn to exit of one trivial `seqforge count`."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if proc.returncode != 0 or proc.stdout != b"6\n":
            self.failed += 1
            print(f"cold start failed: exit {proc.returncode}: {proc.stderr.decode()[-500:]}", file=sys.stderr)
        return elapsed

    def timed_run(self, seconds: float, cold_starts: int) -> dict:
        """Closed loop over whole passes for at least `seconds`.

        The machine's speed drifts by a factor of up to about 1.8 in phases
        of tens of seconds to minutes, longer than a run, and that drift
        would swamp any change in the program. So a fixed probe, code that
        does not touch seqforge, is timed after every operation, and each
        time taken in a pass is scaled by PROBE_REFERENCE_S over the median
        of the pass's probes: it reads as the time at the reference speed.
        An operation's latency is its median scaled time over the run;
        throughput, p50 and p90 are taken over those latencies. Cold
        starts run between passes and are scaled by the pass before them;
        setup_s is their median. The unscaled figures are returned too,
        for the summary line.
        """
        self.cold_start()  # fills the bytecode cache
        samples, setups, speeds = [], [], []  # samples: (operation, seconds, scale)
        start = time.perf_counter()
        for count, ops in enumerate(workloads.passes(self.workload, self.seed), 1):
            times, probes = [], []
            for op in ops:
                times.append(self.run_op(op).seconds)
                probes.append(probe())
            scale = PROBE_REFERENCE_S / statistics.median(probes)
            speeds.append(scale)
            samples += [(op.key, t, scale) for op, t in zip(ops, times)]
            for _ in range(min(COLD_STARTS_PER_PASS, cold_starts - len(setups))):
                setups.append(self.cold_start() * scale)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and count >= MIN_PASSES or elapsed >= MAX_STRETCH * seconds:
                break
        while len(setups) < cold_starts:
            setups.append(self.cold_start() * scale)
        return {
            **figures(samples, scaled=True),
            "setup_s": statistics.median(setups),
            "passes": count,
            "samples": len(samples),
            "speed": (min(speeds), statistics.median(speeds), max(speeds)),
            "unscaled": figures(samples, scaled=False),
        }

    # --- traced ----------------------------------------------------------

    def traced_run(self, seconds: float) -> tuple[dict, list]:
        """Whole passes in the order untraced, traced, traced, untraced,
        repeated until `seconds` have passed, stopping after an even count
        so that drift over the run falls on both kinds alike. Layer figures
        are medians over the traced passes."""
        untraced, traced, per_pass = [], [], []
        spans = []
        start = time.perf_counter()
        for i, ops in enumerate(workloads.passes(self.workload, self.seed)):
            if i % 4 in (0, 3):
                untraced.append(len(ops) / sum(self.run_op(op).seconds for op in ops))
            else:
                figures, spans = self.traced_pass(ops)
                traced.append(len(ops) / figures.pop("busy_s"))
                per_pass.append(figures)
            if i % 2 == 1 and time.perf_counter() - start >= seconds:
                break
        metrics = {}
        for name, _ in tracing.LAYER_METRICS:
            values = [r[name] for r in per_pass if name in r]
            if name in tracing.COMPUTED and len(set(values)) > 1:
                self.failed += 1
                print(f"work count {name} differs between traced passes: {values}", file=sys.stderr)
            if values:
                metrics[name] = statistics.median(values) if name not in tracing.COMPUTED else values[-1]
        cost = tracing.span_cost()
        metrics["trace.pass_ops"] = len(ops)
        metrics["trace.span_cost_us"] = cost * 1e6
        metrics["trace.est_overhead_ms"] = metrics["trace.spans"] * cost * 1000
        metrics["trace.untraced_ops_s"] = statistics.median(untraced)
        metrics["trace.traced_ops_s"] = statistics.median(traced)
        metrics["trace.overhead_ops_s"] = metrics["trace.traced_ops_s"] - metrics["trace.untraced_ops_s"]
        metrics["trace.pass_spread_ops_s"] = max(max(kind) - min(kind) for kind in (untraced, traced))
        return metrics, spans

    def traced_pass(self, ops) -> tuple[dict, list]:
        tracer = tracing.Tracer()
        restore = tracer.install(self.pkg)
        busy = render = 0.0
        digits = output_bytes = 0
        try:
            for op_id, op in enumerate(ops):
                tracer.op = op_id
                outcome = self.run_op(op)
                busy += outcome.seconds
                output_bytes += outcome.out_bytes
                for value in tracer.take_rendered_ints():  # timed outside the span tree
                    t0 = time.perf_counter()
                    text = str(value)
                    render += time.perf_counter() - t0
                    digits += len(text) - (value < 0)
        finally:
            restore()
        figures = tracing.pass_metrics(tracer, render * 1000, digits, output_bytes)
        figures["busy_s"] = busy
        return figures, tracer.spans


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the machine's speed at the
    moment, independent of the program."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def figures(samples: list, scaled: bool) -> dict:
    """Throughput, p50 and p90 of a run's samples, scaled or as measured.

    An operation's latency is its median time over the run's passes; the
    figures are taken over those latencies, one per operation of a pass."""
    by_op = {}
    for key, t, scale in samples:
        by_op.setdefault(key, []).append(t * scale if scaled else t)
    latencies = {key: statistics.median(times) for key, times in by_op.items()}
    p90 = quantile(latencies.values(), 0.9)
    beyond = [key for key, latency in latencies.items() if latency > p90]
    return {
        "throughput_ops_s": len(latencies) / sum(latencies.values()),
        "latency_p50_ms": quantile(latencies.values(), 0.5) * 1000,
        "latency_p90_ms": p90 * 1000,
        "beyond_p90": (len(beyond), sum(len(by_op[key]) for key in beyond)),
    }


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the sorted
    values weighted by the Beta((n+1)p, (n+1)(1-p)) density, taken at each
    rank's midpoint. Where operations of very different cost sit next to
    p, a single order statistic jumps between them from run to run; this
    mean moves smoothly."""
    values = sorted(values)
    n = len(values)
    a, b = (n + 1) * p - 1, (n + 1) * (1 - p) - 1
    logs = [a * math.log((i + 0.5) / n) + b * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    base = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps([name, round((start - base) * 1e6), round((end - base) * 1e6), parent, op]) + "\n")


def result_line(bench: Bench, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_workload(args) -> int:
    bench = Bench(args.workload, args.seed, args.size)
    if args.trace:
        metrics, spans = bench.traced_run(args.seconds)
        write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl", spans)
        units = dict(tracing.LAYER_METRICS)
        for name, unit in tracing.LAYER_METRICS:
            print(f"  {name:42} {metrics[name]:>16.6g} {unit}")
        # Tracing only adds work: a traced pass that looks faster is drift.
        resolved = -metrics["trace.overhead_ops_s"] > metrics["trace.pass_spread_ops_s"]
        print(f"  measured overhead {'resolved' if resolved else 'unresolved: within the drift between passes'}; "
              f"estimated from spans: {metrics['trace.est_overhead_ms']:.4g} ms per pass")
    else:
        run = bench.timed_run(args.seconds, workloads.SIZES[args.size]["cold_starts"])
        # This process ran nothing but this workload; cold starts are children.
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, **run}
        units = dict(END_TO_END)
        print(f"{args.workload}: seed {args.seed}, {run['passes']} passes of {len(bench.workload.ops)} operations, "
              f"{run['samples']} samples; beyond p90: {run['beyond_p90'][0]} operations, {run['beyond_p90'][1]} samples; "
              f"scale min/median/max "
              + "/".join(f"{x:.3f}" for x in run["speed"]))
        unscaled = run["unscaled"]
        print(f"  unscaled: {unscaled['throughput_ops_s']:.6g} ops/s, p50 {unscaled['latency_p50_ms']:.6g} ms, "
              f"p90 {unscaled['latency_p90_ms']:.6g} ms")
        for name, unit in END_TO_END:
            print(f"  {name:18} {metrics[name]:>14.6g} {unit}")
        ratio = bench.failed / bench.attempted
        print(f"  {'failed_ratio':18} {ratio:>14.6g} fraction ({bench.failed}/{bench.attempted})")
    print(result_line(bench, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke runs tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    # Results run to hundreds of thousands of digits; the CLI lifts the
    # interpreter's int-to-str cap, and library results are digested as text.
    sys.set_int_max_str_digits(0)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
