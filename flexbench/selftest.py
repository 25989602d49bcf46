#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 flexbench/selftest.py [--seconds 3]

For every workload: a clean run must report correct=true with 0 failed
operations (untraced and traced) and exactly the metrics, with the units,
that BENCHMARK.json lists (end_to_end untraced, per_layer traced), and a run with --corrupt, which damages
one verified result before its oracle runs, must report correct=false with
at least one failed operation. Finally a copy of the benchmark alone
(BENCHMARK.json plus flexbench/, no stack sources) must exit non-zero
without printing a result. Exits 1 on the first violated expectation.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["htap", "bi", "analytics"]


def run(cwd, workload, seconds, trace=0, corrupt=False):
    cmd = [sys.executable, "flexbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    for w in WORKLOADS:
        for trace in (0, 1):
            code, result = run(ROOT, w, args.seconds, trace=trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{w} trace={trace}: clean run verifies "
                   f"({result and result['attempted']} ops)")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared[trace],
                   f"{w} trace={trace}: prints the metrics BENCHMARK.json "
                   f"declares ({len(printed)})")
        code, result = run(ROOT, w, args.seconds, corrupt=True)
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: corrupted result counted as failed "
               f"({result and result['failed']} failed)")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "flexbench", bare / "flexbench")
    try:
        code, result = run(bare, "bi", args.seconds)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           f"benchmark alone exits {code} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
