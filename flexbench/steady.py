#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric repeatable within its bound?

    python3 flexbench/steady.py [--runs 10] [--workloads htap,bi,analytics]
                                [--seconds S] [--first-seed 1] [--same-seed]
                                [--trace]

Runs each workload --runs times, every run a fresh process with its own
seed (or, with --same-seed, all with --first-seed, which isolates host
noise from input variance), alternating the workload order between
rounds. For every metric of BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
next to the metric's bound, and fails (exit 1) if a run is incorrect, a
metric is missing or has the wrong unit, or a spread exceeds its bound.
The last column is the correlation of each metric with the single-thread
spin time every run measures at start, which shows how much of a spread
is host drift.

With --trace the runs are traced and the per-layer metrics are printed
(no bounds apply to them).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "flexbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    host = next((json.loads(line[len("host: "):]) for line in lines
                 if line.startswith("host: ")), {})
    return json.loads(lines[-1]), host


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads.split(",")
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    spin = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.first_seed + (0 if args.same_seed else i)
            result, host = run_once(w, seed, args.seconds, args.trace)
            spin[w].append(host.get("spin_ns", 0.0))
            if not result["correct"] or result["failed"] != 0:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                ok = False
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print(f"{w} seed {seed}: metric {m['name']} missing or "
                          f"wrong unit: {got}")
                    ok = False
                    continue
                values[w][m["name"]].append(got["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed} "
                  f"spin_ns={host.get('spin_ns')}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)

    print(f"\n{'workload':10} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'r(spin)':>8}")
    for w in workloads:
        for m in metrics:
            vals = values[w][m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  TOO NOISY"
                ok = False
            # Correlation with the host's single-thread spin time at run
            # start: near +-1 means the spread is host speed, not the stack.
            try:
                r = f"{statistics.correlation(spin[w], vals):8.2f}"
            except statistics.StatisticsError:
                r = f"{'-':>8}"
            print(f"{w:10} {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6} {r}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
