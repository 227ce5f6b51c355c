#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny n.

    python3 perfbench/selftest.py

Runs perfbench/run.py on shrunken versions of all three workloads
(``--tiny``: n = 16384 for the G(n, 8/n) trial, 8 seeds of n = 2048 for
the Table-1 sweep, 4 seeds of n = 4096 for the fault sweep) and checks
that:
  * untraced and traced runs verify, print every end-to-end and
    per-layer metric, and repeat their digests across rounds, obs on
    and off;
  * on the single-trial workload the layer times plus the unattributed
    row add up to the traced round's wall time;
  * a corrupted output (--corrupt) and a digest that disagrees with the
    seed's stored one are reported as failures with a non-zero exit;
  * without the library sources the benchmark exits non-zero and prints
    no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7
TABLE1 = "table1-64k-sweep"
FAULTS = "faults-128k-sweep"
SINGLE_TRIAL = [w for w in run.WORKLOADS if w not in (TABLE1, FAULTS)]


def bench(
    workload: str,
    *extra: str,
    trace: int = 0,
    seed: int = SEED,
    script: Path = run.BENCH_DIR / "run.py",
) -> tuple[int, list[str]]:
    """Runs the benchmark once at tiny n; returns (exit code, stdout)."""
    command = [sys.executable, str(script), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", "1"]
    command += ["--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600, check=False
    )
    return done.returncode, done.stdout.splitlines()


def result_line(lines: list[str]) -> dict[str, Any]:
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    return line


def saved(workload: str, trace: int) -> dict[str, Any]:
    path = run.BUILD / "results" / f"{workload}-tiny-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class BenchmarkSelfTest(unittest.TestCase):
    def test_untraced_runs_verify_and_report_end_to_end(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload)
                line = result_line(lines)
                self.assertEqual(code, 0)
                self.assertTrue(line["correct"])
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 2)
                units = run.END_TO_END_UNITS
                self.assertEqual(set(line["metrics"]), set(units))
                for name, metric in line["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"], units[name])

    def test_traced_runs_report_every_layer(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, trace=1)
                line = result_line(lines)
                self.assertEqual(code, 0)
                self.assertTrue(line["correct"])
                units = run.PER_LAYER_UNITS
                self.assertEqual(set(line["metrics"]), set(units))
                result = saved(workload, 1)
                kinds = {r["traced"] for r in result["rounds"]}
                self.assertEqual(kinds, {False, True})
                digests = {r["digest"] for r in result["rounds"]}
                self.assertEqual(len(digests), 1, "obs-on and obs-off differ")
                metrics = {k: v["value"] for k, v in line["metrics"].items()}
                self.assertGreater(metrics["graph.from_csr_s"], 0)
                self.assertGreater(metrics["bulk.run_s.sleeping"], 0)
                if workload == TABLE1:
                    self.assertGreater(metrics["bulk.run_s.greedy"], 0)
                if workload == FAULTS:
                    self.assertGreater(metrics["fault.repair_s"], 0)
                    self.assertGreater(metrics["fault.lost_messages"], 0)
                if workload not in SINGLE_TRIAL:
                    continue
                rows = ("graph.gen_s", "bulk.run_s", "analysis.verify_s")
                rows += ("fault.repair_s", "fault.check_alive_s")
                rows += ("obs.unattributed_s",)
                self.assertAlmostEqual(
                    sum(metrics[name] for name in rows),
                    metrics["obs.traced_wall_s"],
                    places=9,
                )

    def test_corrupted_output_fails(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, "--corrupt")
                line = result_line(lines)
                self.assertEqual(code, 1)
                self.assertFalse(line["correct"])
                self.assertGreaterEqual(line["failed"], 1)

    def test_digest_mismatch_fails(self) -> None:
        seed = SEED + 1
        code, _ = bench(SINGLE_TRIAL[0], seed=seed)
        self.assertEqual(code, 0)
        stores = list(run.BUILD.glob(f"digests/*/*-tiny-seed{seed}.json"))
        self.assertTrue(stores)
        for store in stores:
            record = json.loads(store.read_text(encoding="utf-8"))
            record["digest"] = "0" * 16
            store.write_text(json.dumps(record), encoding="utf-8")
        try:
            code, lines = bench(SINGLE_TRIAL[0], seed=seed)
            line = result_line(lines)
            self.assertEqual(code, 1)
            self.assertFalse(line["correct"])
            self.assertEqual(line["failed"], line["attempted"])
        finally:
            for store in stores:
                store.unlink()

    def test_without_sources_exits_nonzero_without_result(self) -> None:
        bare = run.BUILD / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            run.BENCH_DIR,
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            script = bare / "perfbench" / "run.py"
            code, lines = bench(SINGLE_TRIAL[0], script=script)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
