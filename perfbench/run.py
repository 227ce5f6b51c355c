#!/usr/bin/env python3
"""The repository benchmark: G(n, 8/n) MIS workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds T \\
        --trace 0|1

Builds perfbench/driver.cc and the library from ../src into
``.bench_build`` (Release), runs one workload for T seconds in a child
process, checks every output, and prints as its last stdout line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of BENCHMARK.json. Exit code 0 means every trial
verified; 1 means a trial failed or a digest mismatched; 2 means the
benchmark could not run (no sources, build failure, bad arguments), and
then no result is printed.

Correctness gates, all counted in ``failed``:
  * every trial's MIS is verified (check_mis / check_alive_mis);
  * all rounds of a run repeat one seed, so their output digests and
    exact counts must agree, traced rounds (obs on) included;
  * the digest and counts are stored per seed under
    ``.bench_build/digests``; a later run of the same seed on the same
    build must match them.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

import report

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"

WORKLOADS = (
    "gnp8-4m-4lane",
    "table1-64k-sweep",
    "faults-128k-sweep",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "node_avg_awake": "rounds",
}
PER_LAYER_UNITS = {
    "graph.gen_s": "s",
    "graph.gen_ns_per_edge": "ns",
    "graph.degree_pass_s": "s",
    "graph.fill_pass_s": "s",
    "graph.sort_s": "s",
    "graph.offsets_s": "s",
    "graph.unattributed_s": "s",
    "graph.from_csr_s": "s",
    "graph.from_csr_ns_per_edge": "ns",
    "graph.csr_bytes_per_node": "B",
    "bulk.run_s": "s",
    "bulk.ns_per_awake_node_round": "ns",
    "bulk.ns_per_message": "ns",
    "bulk.awake_node_rounds": "count",
    "bulk.messages": "count",
    "bulk.draw_coins_s": "s",
    "bulk.scan_s": "s",
    "bulk.mark_awake_s": "s",
    "bulk.state_bytes_per_node": "B",
    "bulk.run_s.sleeping": "s",
    "bulk.run_s.luby-a": "s",
    "bulk.run_s.luby-b": "s",
    "bulk.run_s.greedy": "s",
    "analysis.verify_s": "s",
    "analysis.verify_ns_per_edge": "ns",
    "analysis.trial_lane_busy_frac": "frac",
    "fault.repair_s": "s",
    "fault.check_alive_s": "s",
    "fault.dynamics_s": "s",
    "fault.repair_rounds": "count",
    "fault.lost_messages": "count",
    "fault.live_leaves": "count",
    "fault.recovered_nodes": "count",
    "util.lane_busy_frac": "frac",
    "util.chunk_imbalance_max": "ratio",
    "util.chunk_imbalance_mean": "ratio",
    "obs.overhead_frac": "frac",
    "obs.traced_wall_s": "s",
    "obs.unattributed_s": "s",
}

# The driver starts no round past ~140 s; this only catches a hang.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --- build -----------------------------------------------------------


def build_driver() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found on PATH")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(
            [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD)]
            + ["-DCMAKE_BUILD_TYPE=Release"]
        )
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append([cmake, "--build", str(BUILD), "-j", jobs])
    build_log = BUILD / "build.log"
    with build_log.open("w", encoding="utf-8") as out:
        for step in steps:
            done = subprocess.run(
                step,
                stdout=out,
                stderr=subprocess.STDOUT,
                timeout=850,
                check=False,
            )
            if done.returncode != 0:
                raise BenchError(f"build failed; see {build_log}")
    if not DRIVER.is_file():
        raise BenchError(f"build produced no {DRIVER}")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# --- host and size record --------------------------------------------


def llc_bytes() -> int:
    """Size of cpu0's highest-level cache, 0 when unknown."""
    best_level, best_size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(
                size[-1:], 1
            )
            value = int(size.rstrip("KMG")) * scale
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, value
    return best_size


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.stdout.strip() or "unknown"


def host_record(summary: dict[str, Any]) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "build_type": summary["build_type"],
        "ndebug": summary["ndebug"],
        "git_rev": git_rev(),
        "driver_sha": file_digest(DRIVER),
    }


def sizes_record(
    rec: dict[str, Any], summary: dict[str, Any], llc: int
) -> dict[str, Any]:
    graphs = rec["trials"] // summary["runs_per_graph"]
    edges = rec["counts"]["edges"] // graphs
    csr = report.csr_bytes(summary["n"], edges)
    return {
        "n": summary["n"],
        "edges_per_graph": edges,
        "graphs_per_round": graphs,
        "lanes": summary["lanes"],
        "csr_bytes": csr,
        "csr_over_llc": csr / llc if llc else None,
    }


# --- driver run ------------------------------------------------------


def run_driver(
    args: argparse.Namespace, out_dir: Path
) -> tuple[list[dict[str, Any]], int]:
    command = [str(DRIVER), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(args.trace), "--out", str(out_dir)]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    try:
        done = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            timeout=DRIVER_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s; killed")
        return [], -1
    records = [
        json.loads(line)
        for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    return records, done.returncode


# --- correctness gates -----------------------------------------------


def identity(rec: dict[str, Any]) -> dict[str, Any]:
    return {"digest": rec["digest"], "counts": rec["counts"]}


def check_digests(
    rounds: list[dict[str, Any]], store: Path, workload: str
) -> list[str]:
    """Marks every round whose digest or counts differ from the seed's
    reference (stored, else this run's first verified round) and
    returns one message per mismatch."""
    reference = None
    if store.is_file():
        reference = json.loads(store.read_text(encoding="utf-8"))
    verified = [r for r in rounds if r["failed"] == 0]
    if reference is None and verified:
        reference = identity(verified[0]) | {"workload": workload}
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference), encoding="utf-8")
        tmp.replace(store)
    if reference is None:
        return []
    problems = []
    for rec in rounds:
        if identity(rec) != identity(reference):
            rec["mismatch"] = True
            problems.append(
                f"round {rec['index']} (traced={rec['traced']}): "
                f"{identity(rec)} != {identity(reference)} "
                f"recorded by {reference['workload']}"
            )
    return problems


# --- metrics ---------------------------------------------------------


def measured(rounds: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The untraced rounds the timings come from: all but the first,
    which warms the caches and the heap, unless it is the only one."""
    plain = [r for r in rounds if not r["traced"]]
    return plain[1:] or plain


def end_to_end(
    rounds: list[dict[str, Any]], summary: dict[str, Any]
) -> dict[str, float]:
    plain = measured(rounds)
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "solve_s": median([r["solve_s"] for r in plain]),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        "node_avg_awake": median([r["node_avg_awake"] for r in plain]),
    }


def per_layer(
    rounds: list[dict[str, Any]],
    probe: dict[str, Any],
    summary: dict[str, Any],
) -> tuple[dict[str, float], report.Trace]:
    """The traced round of median wall time, plus the post-round probe.
    One whole round rather than per-metric medians, so its layer times
    still add up to its wall time."""
    traced = [r for r in rounds if r["traced"]]
    plain = measured(rounds)
    if not traced or not plain or not probe:
        raise BenchError("traced run lacks a traced round or the probe")
    per_round = []
    for rec in traced:
        trace = report.load_trace(Path(rec["jsonl"]))
        per_round.append((report.layer_metrics(trace, rec, summary), trace))
    per_round.sort(key=lambda pair: pair[0]["obs.traced_wall_s"])
    metrics, trace = per_round[(len(per_round) - 1) // 2]
    n = summary["n"]
    metrics["graph.from_csr_s"] = probe["from_csr_s"]
    metrics["graph.from_csr_ns_per_edge"] = (
        probe["from_csr_s"] * 1e9 / probe["edges"]
    )
    # The sweep's trials share the process, so its probe measures one
    # standalone run instead of the traced rounds' run_bulk calls.
    growth_kb = (
        probe["state_kb"]
        if summary["trial_lanes"] > 1
        else median([r["hwm_growth_kb"] for r in traced])
    )
    metrics["bulk.state_bytes_per_node"] = growth_kb * 1024 / n
    metrics["obs.overhead_frac"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in plain])
        - 1
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}, trace


# --- main ------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="slumber benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workloads (self-test)"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="flip one output before verification (self-test)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        build_driver()
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 2
    tag = args.workload + ("-tiny" if args.tiny else "")
    out_dir = BUILD / "runs" / f"{tag}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    records, returncode = run_driver(args, out_dir)
    rounds = [r for r in records if r["type"] == "round"]
    probe = next((r for r in records if r["type"] == "probe"), {})
    summary = next((r for r in records if r["type"] == "summary"), None)

    problems = []
    if summary is None or not rounds or returncode not in (0, 1):
        problems.append(f"driver exited with {returncode} and no summary")
    if summary is not None and rounds:
        family = summary["family"] + ("-tiny" if args.tiny else "")
        store = (
            BUILD
            / "digests"
            / file_digest(DRIVER)
            / f"{family}-seed{args.seed}.json"
        )
        problems += check_digests(rounds, store, args.workload)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: dict[str, float] = {}
    if summary is not None and rounds:
        result: dict[str, Any] = {
            "workload": args.workload,
            "tiny": args.tiny,
            "seed": args.seed,
            "host": host_record(summary),
        }
        host = result["host"]
        result["sizes"] = sizes_record(rounds[0], summary, host["llc_bytes"])
        if host["build_type"] != "Release" or not host["ndebug"]:
            log(
                f"perfbench: WARNING: driver built as "
                f"{host['build_type']!r} (NDEBUG={host['ndebug']}); "
                "these are not Release timings"
            )
        print(f"perfbench {tag} seed={args.seed} trace={args.trace}")
        print(f"host: {json.dumps(host)}")
        print(f"sizes: {json.dumps(result['sizes'])}")
        try:
            if args.trace:
                metrics, trace = per_layer(rounds, probe, summary)
                result["metrics"] = metrics
                print(report.render_table([result]))
                print(report.render_spans(trace))
            else:
                metrics = end_to_end(rounds, summary)
        except (
            BenchError,
            OSError,
            ValueError,
            ArithmeticError,
            LookupError,
        ) as err:
            problems.append(f"metrics: {err!r}")
            metrics = {}
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>16.6g} {units[name]}")
        result["metrics"] = metrics
        result["rounds"] = rounds
        results_dir = BUILD / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{tag}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1), encoding="utf-8"
        )

    attempted = sum(r["trials"] for r in rounds)
    failed = sum(
        r["trials"] if r.get("mismatch") else r["failed"] for r in rounds
    )
    if problems and failed == 0:
        attempted = failed = max(attempted, 1)
    for problem in problems:
        log(f"perfbench: FAILED: {problem}")
    print(
        f"rounds: {len(rounds)} ({sum(r['traced'] for r in rounds)} "
        f"traced), trials: {attempted}, failed_trials: {failed}"
    )
    line = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
