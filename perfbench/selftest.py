"""Self-test of the benchmark: tiny-scale runs of every workload, two seeds, and a traced run.

Checks that each run exits 0 with a correct result whose metrics are
exactly the ones ``BENCHMARK.json`` names, each with its declared unit.
Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
TIMEOUT_S = 300


def run(workload: str, seed: int, trace: int) -> "dict[str, object]":
    """One tiny-scale run; returns its parsed result line."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{workload} seed {seed}: {result}")
    return result


def check_metrics(result, declared, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS  # every workload run.py accepts, gated or not

    for workload in WORKLOADS:
        for seed in SEEDS:
            check_metrics(run(workload, seed, 0), SPEC["end_to_end"], f"{workload}/{seed}")
            print(f"ok  {workload} seed {seed}", flush=True)
    check_metrics(run(SPEC["workloads"][0]["name"], SEEDS[0], 1),
                  SPEC["per_layer"], "traced run")
    print("ok  traced run", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
