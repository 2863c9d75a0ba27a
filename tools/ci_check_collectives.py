#!/usr/bin/env python3
"""CI smoke check for BENCH_collectives.json.

Hard-fails when the tree-scheme series are missing (the bench must sweep
both routing schemes); the 32- and 64-rank tree-vs-linear throughput
comparisons are soft checks — shared CI runners are too noisy for a hard
perf gate, so a shortfall only prints a warning and exits 0 (`--quick`
sweeps stop at 32 ranks; the 64-rank rows then read "skipping").
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_collectives.json"
REQUIRED = ["bcast_task_linear", "bcast_task_tree", "reduce_task_linear", "reduce_task_tree"]
HEADLINE_RANKS = (32, 64)
TARGET = 2.0  # ISSUE 4 acceptance: tree >= 2x linear at 32 ranks

with open(PATH) as f:
    data = json.load(f)
points = data["points"]
series = {p["series"] for p in points}

missing = [s for s in REQUIRED if s not in series]
if missing:
    print(f"ERROR: {PATH} is missing required series: {missing}")
    sys.exit(1)
print(f"ok: all scheme series present in {PATH}")


def rate(name, ranks):
    for p in points:
        if p["series"] == name and p["ranks"] == ranks:
            return p["melem_per_s"]
    return None


status = 0
for coll in ("bcast", "reduce"):
    for ranks in HEADLINE_RANKS:
        lin = rate(f"{coll}_task_linear", ranks)
        tree = rate(f"{coll}_task_tree", ranks)
        if lin is None or tree is None:
            print(f"note: no {ranks}-rank points for {coll}; skipping comparison")
            continue
        speedup = tree / lin
        verdict = "ok" if speedup >= TARGET else "WARNING (soft check, not failing the build)"
        print(f"{coll} @ {ranks} ranks: tree {tree:.2f} vs linear {lin:.2f} Melem/s "
              f"-> {speedup:.2f}x ({verdict})")
        if speedup < 1.0:
            print(f"WARNING: tree is slower than linear for {coll} — investigate before relying on it")
sys.exit(status)
