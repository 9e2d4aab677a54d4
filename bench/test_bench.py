"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/test_bench.py
    python3 -m unittest discover -s bench -p 'test_*.py'

Every workload runs tiny, untraced and traced. The tests check that each
metric BENCHMARK.json names is emitted with its unit, that no operation
fails, that work counts repeat exactly for one seed, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    return line


class SmokeTest(unittest.TestCase):
    def check_line(self, line: dict, spec_metrics: list) -> None:
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                line = result(run(workload, 0))
                self.check_line(line, SPEC["end_to_end"])
                for name, metric in line["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_layer_metrics_and_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (result(run(workload, 1)) for _ in range(2))
                self.check_line(first, SPEC["per_layer"])
                values = {name: m["value"] for name, m in first["metrics"].items()}
                again = {name: m["value"] for name, m in second["metrics"].items()}
                for name in tracing.COMPUTED:
                    self.assertEqual(values[name], again[name], name)
                self.assertGreater(values["cli.main.ms"] + values["fasteval.eval_fast.mod.ms"], 0)
                if workload != "oracle":
                    self.assertEqual(values["subsets.count_subsets.calls"], 0)
                if workload != "modeval":
                    self.assertEqual(values["fasteval.eval_fast.mod.ms"], 0)
                if workload == "bigcount":
                    # Every operation is a `count` printing one int and a newline.
                    self.assertEqual(values["render.digits"] + values["trace.pass_ops"], values["cli.output_bytes"])

    def test_refuses_without_program(self):
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
