#!/usr/bin/env python3
"""Mutation test for the slumber-lint v2 dataflow analyzer.

Plants known determinism bugs into copies of the real tree -- the bug
classes D5-D8 exist to catch, at the exact call sites that motivated
them -- and asserts that tools/lint/ast_checks.py flags each plant with
the expected rule. A final run on the unmutated copy must be clean, so
the test also pins "zero findings on the real tree" as a regression
gate.

The copies live in a temp directory; the repo itself is never touched.
Runs the structural engine so the gate holds in containers without
libclang; pass --engine ast to exercise the AST engine where available.

Exit status: 0 all plants flagged + clean tree clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
AST_CHECKS = os.path.join(HERE, "ast_checks.py")

# (id, repo-relative file, exact original text, mutated text, rule that
# must fire). Originals are exact substrings of the current tree; the
# test fails loudly if drift makes one unmatchable, which is the signal
# to re-aim the plant rather than let the gate rot.
PLANTS = [
    (
        "d5-engine-mark-awake",
        "src/bulk/engine.cc",
        "awake_epoch_[awake[i]] = epoch;",
        "awake_epoch_[0] = epoch;",
        "slumber-d5",
    ),
    (
        "d5-churn-leave-counter",
        "src/fault/churn.cc",
        "++leave_parts[c];",
        "++leave_parts[0];",
        "slumber-d5",
    ),
    (
        # The serial G(n, p) path bumps up[u] with a plain increment;
        # the same increment on the sharded path is a race.
        "d5-gnp-sharded-plain-up-increment",
        "src/graph/sharded_gnp.cc",
        "std::atomic_ref<std::uint32_t>(up[u]).fetch_add(\n"
        "              1, std::memory_order_relaxed);",
        "++up[u];",
        "slumber-d5",
    ),
    (
        "d5-gnp-sharded-plain-slot-claim",
        "src/graph/sharded_gnp.cc",
        "return std::atomic_ref<CsrOffset>(cursor[u]).fetch_add(\n"
        "              1, std::memory_order_relaxed);",
        "return cursor[u]++;",
        "slumber-d5",
    ),
    (
        "d6-registry-high32-collision",
        "src/util/stream_tags.h",
        "0xC4A54AD0'5EED'0002ULL",
        "0x10557AD0'5EED'0002ULL",
        "slumber-d6",
    ),
    (
        "d6-churn-unregistered-stream",
        "src/fault/churn.cc",
        "util::stream_tags::kChurnTag ^ static_cast<VertexId>(v)",
        "0x99990000ULL ^ static_cast<VertexId>(v)",
        "slumber-d6",
    ),
    (
        "d6-live-churn-unregistered-stream",
        "src/fault/fault.h",
        "util::stream_tags::kLiveChurnTag ^ v",
        "0xBADC0DE5EEDULL ^ v",
        "slumber-d6",
    ),
    (
        "d6-burst-unregistered-stream",
        "src/fault/fault.h",
        "util::stream_tags::kBurstTag ^ edge",
        "0xFEED5EEDULL ^ edge",
        "slumber-d6",
    ),
    (
        # The protocols' coins key through util::coin; a bare literal in
        # place of the registered tag is an unregistered stream.
        "d6-coin-unregistered-stream",
        "src/util/stream_rng.h",
        "stream_key(stream_key(stream_tags::kCoinTag, v), k)",
        "stream_key(stream_key(0xC0125AD0ULL, v), k)",
        "slumber-d6",
    ),
    (
        "d7-engine-truncated-makespan",
        "src/bulk/engine.cc",
        "metrics_.makespan = saturate_round(virtual_makespan_);",
        "metrics_.makespan = "
        "static_cast<std::uint64_t>(virtual_makespan_);",
        "slumber-d7",
    ),
]


def run_linter(root: str, engine: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, AST_CHECKS, "--root", root, "--engine", engine,
         "--no-cache"],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def copy_src(dest_root: str) -> None:
    shutil.copytree(os.path.join(REPO, "src"),
                    os.path.join(dest_root, "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", default="structural",
                        choices=("ast", "structural"))
    args = parser.parse_args()

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="slumber-mutation-") as tmp:
        clean_root = os.path.join(tmp, "clean")
        copy_src(clean_root)
        code, out = run_linter(clean_root, args.engine)
        if code != 0:
            failures.append(
                f"clean tree: expected exit 0, got {code}\n{out}")
        else:
            print(f"mutation_test: clean tree OK (engine={args.engine})")

        for plant_id, relpath, original, mutated, rule in PLANTS:
            root = os.path.join(tmp, plant_id)
            copy_src(root)
            target = os.path.join(root, relpath)
            with open(target, "r", encoding="utf-8") as fh:
                text = fh.read()
            if original not in text:
                failures.append(
                    f"{plant_id}: plant text not found in {relpath}; "
                    f"the tree drifted -- re-aim this plant")
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(original, mutated, 1))
            code, out = run_linter(root, args.engine)
            if code != 1:
                failures.append(
                    f"{plant_id}: expected exit 1, got {code}\n{out}")
            elif rule not in out:
                failures.append(
                    f"{plant_id}: flagged, but not with {rule}:\n{out}")
            else:
                print(f"mutation_test: {plant_id} caught ({rule})")

    if failures:
        print(f"mutation_test: FAIL ({len(failures)} problems)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"mutation_test: OK ({len(PLANTS)} plants caught, "
          f"clean tree clean, engine={args.engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
