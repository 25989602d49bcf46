#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 flexbench/run.py --workload htap|bi|analytics --seed N \
        --seconds S --trace 0|1 [--corrupt]

Run from the root of a checkout. Builds flexbench/ (and the stack sources
it links from src/) into .bench_build/flexbench with CMake on first use,
then runs one workload in a fresh process and passes its output through:
host fingerprint, sample counts, oracle results, per-layer table (traced
runs) and, as the last line, the JSON result. Build logs go to stderr.

Exits non-zero without printing a result when the build or the run fails,
for example in a directory that holds only the benchmark.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "flexbench"
RUNS_DIR = ROOT / ".bench_build" / "flexbench-runs"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "flexbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return BUILD_DIR / "flexbench"


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds (checkouts without git still differ)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()[:12]
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["htap", "bi", "analytics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage one verified result")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("flexbench: no stack sources next to the benchmark",
              file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        print("flexbench: build failed", file=sys.stderr)
        return 1

    work_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--source-id", source_id()]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(line + "\n" for line in lines
                                 if not line.startswith("{")))
        print(f"flexbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
