#!/usr/bin/env python3
"""Per-layer report of the repository benchmark's traced runs.

A traced run of perfbench/run.py (``--trace 1``) writes one
``slumber-obs-v1`` JSONL file per traced round. This module turns such
a file into the per-layer metrics of BENCHMARK.json; run.py imports it
for that. Run as a script, it prints the per-layer table of the traced
results saved under ``.bench_build/results``, one row per workload:

    python3 perfbench/report.py              # table over saved results
    python3 perfbench/report.py --spans F    # every span's self time

A span's self time is its duration minus the time its direct child
spans on the same thread cover.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

RESULTS_DIR = (
    Path(__file__).resolve().parent.parent / ".bench_build" / "results"
)

# The sweep's engines in the order of the "bench/bulk" span argument
# (kSweepEngines in driver.cc); the single-trial workloads run engine 0.
SWEEP_ENGINES = ("sleeping", "luby-a", "luby-b", "greedy")


@dataclass
class Trace:
    """One traced round: its spans (with self times) and the footer."""

    spans: list[dict[str, Any]] = field(default_factory=list)
    footer: dict[str, Any] = field(default_factory=dict)

    def total(
        self,
        key: str,
        which: str = "dur",
        parent: str | None = None,
        arg: int | None = None,
    ) -> float:
        """Seconds of duration ("dur") or self time ("self") summed over
        the spans named `key`, optionally only those directly inside a
        span named `parent` or carrying argument `arg`."""
        return (
            sum(
                s[which]
                for s in self.spans
                if s["key"] == key
                and parent in (None, s["parent"])
                and arg in (None, s["arg"])
            )
            / 1e9
        )


def load_trace(path: Path) -> Trace:
    trace = Trace()
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["type"] == "footer":
                trace.footer = event
            elif event["type"] == "span":
                trace.spans.append(
                    {
                        "key": f"{event.get('cat', '')}/{event['name']}",
                        "arg": event["arg"],
                        "tid": event["tid"],
                        "ts": round(event["ts_us"] * 1000),
                        "dur": round(event["dur_us"] * 1000),
                    }
                )
    if not trace.footer:
        raise ValueError(f"{path}: no footer line (truncated export?)")
    _assign_self_times(trace.spans)
    return trace


def _assign_self_times(spans: list[dict[str, Any]]) -> None:
    by_tid: dict[int, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        span["self"] = span["dur"]
        span["parent"] = ""
        by_tid[span["tid"]].append(span)
    for thread_spans in by_tid.values():
        # Parents sort before the children they enclose.
        thread_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: list[dict[str, Any]] = []
        for span in thread_spans:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= span["ts"]:
                stack.pop()
            if stack:
                stack[-1]["self"] -= span["dur"]
                span["parent"] = stack[-1]["key"]
            stack.append(span)


def csr_bytes(n: int, edges: int) -> int:
    """CSR footprint: 8-byte offsets plus 4-byte endpoints, both ways."""
    return 8 * (n + 1) + 8 * edges


def _per(seconds: float, count: float) -> float:
    """Nanoseconds per unit of `count`; 0 when nothing was counted."""
    return seconds * 1e9 / count if count else 0.0


def layer_metrics(
    trace: Trace, rec: dict[str, Any], summary: dict[str, Any]
) -> dict[str, float]:
    """The per-layer metrics of one traced round `rec`."""
    counts = rec["counts"]
    edges = counts["edges"]
    runs_per_graph = summary["runs_per_graph"]
    graphs = rec["trials"] // runs_per_graph
    wall = trace.total("bench/round")
    m: dict[str, float] = {}

    m["graph.gen_s"] = trace.total("bench/graph")
    m["graph.gen_ns_per_edge"] = _per(m["graph.gen_s"], edges)
    m["graph.degree_pass_s"] = trace.total("gen/degree_pass", "self")
    m["graph.fill_pass_s"] = trace.total("gen/fill_pass", "self")
    m["graph.sort_s"] = trace.total("gen/sort_up_halves", "self")
    m["graph.offsets_s"] = trace.total("gen/offsets", "self") + trace.total(
        "gen/cursor_init", "self"
    )
    # Inside the generator but in no gen/* span: Graph::from_csr
    # validation plus the generator's own glue.
    m["graph.unattributed_s"] = trace.total(
        "gen/gnp_sharded_csr", "self"
    ) + trace.total("bench/graph", "self")
    m["graph.csr_bytes_per_node"] = (
        csr_bytes(summary["n"], edges // graphs) / summary["n"]
    )

    m["bulk.run_s"] = trace.total("bench/bulk")
    m["bulk.ns_per_awake_node_round"] = _per(
        m["bulk.run_s"], counts["awake_node_rounds"]
    )
    m["bulk.ns_per_message"] = _per(m["bulk.run_s"], counts["messages"])
    m["bulk.awake_node_rounds"] = float(counts["awake_node_rounds"])
    m["bulk.messages"] = float(counts["messages"])
    # Phase spans whose only children are the pool's chunk spans on the
    # calling lane: their duration is the phase's time. The engine emits
    # scan spans only for awake sets of at least 4096 nodes.
    m["bulk.draw_coins_s"] = trace.total("mis/draw_coins")
    m["bulk.scan_s"] = trace.total("engine/scan", parent="mis/frame")
    m["bulk.mark_awake_s"] = trace.total("engine/mark_awake")
    for index, engine in enumerate(SWEEP_ENGINES):
        m[f"bulk.run_s.{engine}"] = trace.total("bench/bulk", arg=index)

    m["analysis.verify_s"] = trace.total("bench/analysis")
    m["analysis.verify_ns_per_edge"] = _per(
        m["analysis.verify_s"], runs_per_graph * edges
    )
    m["analysis.trial_lane_busy_frac"] = rec["trial_busy_s"] / (
        summary["trial_lanes"] * rec["wall_s"]
    )

    m["fault.repair_s"] = trace.total("bench/fault_repair")
    m["fault.check_alive_s"] = trace.total("bench/fault_check")
    m["fault.dynamics_s"] = trace.total("fault/dynamics")
    m["fault.repair_rounds"] = float(counts["repair_rounds"])
    m["fault.lost_messages"] = float(counts["lost_messages"])
    m["fault.live_leaves"] = float(counts["live_leaves"])
    m["fault.recovered_nodes"] = float(counts["recovered_nodes"])

    lanes = trace.footer["lanes"]
    busy_s = sum(lane["busy_ms"] for lane in lanes) / 1e3
    m["util.lane_busy_frac"] = busy_s / (len(lanes) * wall) if lanes else 0.0
    m["util.chunk_imbalance_max"] = float(trace.footer["chunk_imbalance_max"])
    m["util.chunk_imbalance_mean"] = float(
        trace.footer["chunk_imbalance_mean"]
    )

    layers = (
        m["graph.gen_s"]
        + m["bulk.run_s"]
        + m["analysis.verify_s"]
        + m["fault.repair_s"]
        + m["fault.check_alive_s"]
    )
    m["obs.traced_wall_s"] = wall
    # Lane-seconds of the round outside every layer span: benchmark glue
    # on one lane; on the sweep also idle trial lanes.
    m["obs.unattributed_s"] = summary["trial_lanes"] * wall - layers
    return m


# --- tables ----------------------------------------------------------

TABLE_COLUMNS = (
    ("traced wall s", "obs.traced_wall_s"),
    ("graph s", "graph.gen_s"),
    ("bulk s", "bulk.run_s"),
    ("analysis s", "analysis.verify_s"),
    ("fault s", "fault.repair_s+fault.check_alive_s"),
    ("unattrib s", "obs.unattributed_s"),
    ("gen ns/edge", "graph.gen_ns_per_edge"),
    ("gen unattrib s", "graph.unattributed_s"),
    ("from_csr s", "graph.from_csr_s"),
    ("ns/awake-node-rd", "bulk.ns_per_awake_node_round"),
    ("ns/msg", "bulk.ns_per_message"),
    ("verify ns/edge", "analysis.verify_ns_per_edge"),
    ("state B/node", "bulk.state_bytes_per_node"),
    ("overhead", "obs.overhead_frac"),
)


def _cell(metrics: dict[str, float], spec: str) -> float:
    return sum(metrics[part] for part in spec.split("+"))


def render_table(results: list[dict[str, Any]]) -> str:
    """One row per saved traced result."""
    rows = [["workload"] + [name for name, _ in TABLE_COLUMNS]]
    for result in results:
        label = result["workload"] + (" (tiny)" if result.get("tiny") else "")
        rows.append(
            [label]
            + [
                f"{_cell(result['metrics'], spec):.4g}"
                for _, spec in TABLE_COLUMNS
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_spans(trace: Trace) -> str:
    """Self and inclusive time per span name, largest self time first."""
    rows: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for span in trace.spans:
        row = rows[span["key"]]
        row[0] += span["self"] / 1e9
        row[1] += span["dur"] / 1e9
        row[2] += 1
    lines = [f"{'span':<28}{'self s':>12}{'incl s':>12}{'count':>8}"]
    for key, (self_s, incl_s, count) in sorted(
        rows.items(), key=lambda item: -item[1][0]
    ):
        lines.append(f"{key:<28}{self_s:>12.4f}{incl_s:>12.4f}{count:>8.0f}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", type=Path, help="a traced round's JSONL")
    args = parser.parse_args(argv)
    if args.spans is not None:
        print(render_spans(load_trace(args.spans)))
        return 0
    results = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(RESULTS_DIR.glob("*-trace1.json"))
    ]
    if not results:
        print(
            f"no traced results under {RESULTS_DIR}; run "
            "python3 perfbench/run.py --workload NAME ... --trace 1 first",
            file=sys.stderr,
        )
        return 1
    print(render_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
