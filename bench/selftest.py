"""Self-test of the benchmark: exact counts repeat across seeds and runs.

    python3 bench/selftest.py

For each workload it runs three traced passes, with seed 1, seed 1 again
and seed 2, and checks that every output check passed and that every
exact count the tracer reports is identical in the three passes.  It
also checks that the seed does change the catalog-sweep operation order,
and that BENCHMARK.json declares the metrics run.py reports.
Exit code 0 when all of that holds.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from run import E2E_UNITS, PER_LAYER_UNITS, ROOT, spawn_pass

SEEDS = (1, 1, 2)


def main() -> int:
    problems = []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    expected = workloads.load_expected()
    a, b = (workloads.operations("catalog-sweep", s, expected) for s in (1, 2))
    if a == b or sorted(a, key=str) != sorted(b, key=str):
        problems.append("catalog-sweep: seeds 1 and 2 should permute the "
                        "same operations differently")

    for name in workloads.WORKLOADS:
        counts = []
        for seed in SEEDS:
            p, stderr = spawn_pass(name, seed, time.monotonic() + 170, trace=True)
            if p is None:
                problems.append(f"{name} seed {seed}: pass failed: {stderr[-300:]}")
                continue
            if p["failed"]:
                problems.append(f"{name} seed {seed}: {p['failures']}")
            counts.append(p["trace"]["counts"])
        for other in counts[1:]:
            for key in counts[0]:
                if other[key] != counts[0][key]:
                    problems.append(f"{name}: {key} is {counts[0][key]} in one "
                                    f"pass and {other[key]} in another")
        print(f"{name}: {len(counts)} traced passes, counts "
              + ("identical" if len(counts) == len(SEEDS) and not any(
                  p.startswith(name + ":") for p in problems) else "DIFFER"))
    for p in problems:
        print("FAILED:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
