#!/usr/bin/env python3
"""Fast self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json twice for a short window, once with
--trace 0 and once with --trace 1, and asserts that:

- every end-to-end and per-layer metric is present with its unit;
- no request failed and the outputs were correct;
- both runs print the same deterministic fingerprint.

Exits non-zero on the first violation.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 1


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    fingerprint = next(line["fingerprint"] for line in lines
                       if "fingerprint" in line)
    return lines[-1], fingerprint


def check_metrics(result, expected, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(got) == set(want), \
        f"{label}: metrics differ: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(got[name]["value"], (int, float)), \
            f"{label}: {name} value"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        e2e, print0 = run(workload, 0)
        layers, print1 = run(workload, 1)
        for result, label in ((e2e, "trace 0"), (layers, "trace 1")):
            assert result["correct"], f"{workload} {label}: incorrect output"
            assert result["attempted"] >= 1, f"{workload} {label}: no request"
            assert result["failed"] == 0, f"{workload} {label}: failures"
        check_metrics(e2e, spec["end_to_end"], f"{workload} trace 0")
        check_metrics(layers, spec["per_layer"], f"{workload} trace 1")
        assert e2e["metrics"]["verified_share"]["value"] == 1, \
            f"{workload}: verified_share below 1"
        assert print0 == print1, f"{workload}: fingerprint differs"
        print(f"ok {workload}: {e2e['attempted']}+{layers['attempted']} "
              "requests verified, fingerprint stable", flush=True)


if __name__ == "__main__":
    main()
