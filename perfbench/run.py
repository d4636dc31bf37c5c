#!/usr/bin/env python3
"""End-to-end benchmark of the nalq engine.

Usage, from the repository root:

    python3 perfbench/run.py --workload unnested-serial --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and with it the library) in Release mode into
.bench_build/, prepares the workload's inputs from the seed in
.bench_work/, runs it, and prints as the last line of standard output one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
separately traced run. The lines before it name the configuration and the
deterministic per-kind fingerprint. Workloads and metrics are described in
perfbench/README.md and listed in BENCHMARK.json.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
BINARY = BUILD / "nalq_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; incremental after the
    first run."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "nalq_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)


def pinned_env(tmp):
    """The caller's environment without any NALQ_* engine knob, with spill
    files kept inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NALQ_")}
    cleared = sorted(set(os.environ) - set(env))
    if cleared:
        log("cleared " + ", ".join(cleared))
    env["TMPDIR"] = str(tmp)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", args.workload):
        ap.error("malformed workload name")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = pinned_env(work / "tmp")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(work)]
    try:
        subprocess.run([str(BINARY), "prep"] + common, check=True, env=env,
                       stdout=sys.stderr, timeout=150)
        run = subprocess.run(
            [str(BINARY), "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-file", str(WORK / f"trace-{args.workload}.json")],
            check=True, env=env, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("perfbench: malformed result line")
    for line in lines:
        print(line, flush=True)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"failed: {e}")
        sys.exit(1)
