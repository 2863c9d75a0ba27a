#!/usr/bin/env python3
"""CI check for BENCH_scaling.json (executor scaling acceptance).

Hard checks (fail the build):
  * The worker-sweep series (`task_bulk_sweep`) must be present, with a
    1-worker point for every swept rank count.
  * The skewed-cluster series (`skewed_steal`) must be present at 1 worker.
  * The 2-worker `skewed_steal` point (present when the runner has >1
    cores) must carry its `steals` counter; the value is printed.

Soft checks (warn only — shared CI runners may expose a single core, so
multi-worker speedups are not reliably measurable there):
  * With >1 available cores: multi-worker throughput should not fall
    below the 1-worker run; on the skewed workload the idle worker should
    steal (`steals` > 0) and two workers should not lose to one.
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_scaling.json"
SWEEP_RANKS = [8, 64, 256]

with open(PATH) as f:
    data = json.load(f)
points = data["points"]
ap = data.get("available_parallelism", 1)
series = {p["series"] for p in points}

required = ["task_bulk_sweep", "skewed_steal"]
missing = [s for s in required if s not in series]
if missing:
    print(f"ERROR: {PATH} is missing required series: {missing}")
    sys.exit(1)
print(f"ok: all executor series present in {PATH} (available_parallelism={ap})")


def point(name, ranks, workers):
    for p in points:
        if p["series"] == name and p["ranks"] == ranks and p["workers"] == workers:
            return p
    return None


def rate(name, ranks, workers):
    p = point(name, ranks, workers)
    return p["melem_per_s"] if p else None


status = 0

# --- hard: a 1-worker point for every swept rank count, and the skewed one ---
for ranks in SWEEP_RANKS:
    if rate("task_bulk_sweep", ranks, 1) is None:
        print(f"ERROR: missing 1-worker sweep point at {ranks} ranks")
        status = 1
sk_steal = rate("skewed_steal", 64, 1)
if sk_steal is None:
    print("ERROR: missing 1-worker skewed point")
    status = 1

# --- hard: the skewed 2-worker point reports its steals ---
mw_point = point("skewed_steal", 64, 2)
if mw_point is None and ap > 1:
    print("ERROR: missing 2-worker skewed_steal point on a multi-core runner")
    status = 1
elif mw_point is not None and "steals" not in mw_point:
    print("ERROR: 2-worker skewed_steal point has no 'steals' field")
    status = 1
elif mw_point is not None:
    print(f"skewed_steal at 2 workers: steals={mw_point['steals']} "
          f"parks={mw_point.get('parks')} ({mw_point['melem_per_s']:.2f} Melem/s)")

# --- soft: multi-worker behaviour (only measurable with >1 cores) ---
if ap > 1:
    for ranks in SWEEP_RANKS:
        base = rate("task_bulk_sweep", ranks, 1)
        best_w, best = max(
            ((p["workers"], p["melem_per_s"]) for p in points
             if p["series"] == "task_bulk_sweep" and p["ranks"] == ranks),
            key=lambda t: t[1],
        )
        if base and best < base:
            print(f"WARNING: no multi-worker gain at {ranks} ranks "
                  f"(best {best:.2f} Melem/s at {best_w} workers vs {base:.2f} at 1)")
        elif base:
            print(f"ok: {ranks} ranks peak {best:.2f} Melem/s at {best_w} workers "
                  f"({best / base:.2f}x over 1 worker)")
    mw_steal = rate("skewed_steal", 64, 2)
    if mw_point is not None and mw_point.get("steals") == 0:
        print("WARNING: the idle worker never stole on the skewed workload (steals=0)")
    if mw_steal is not None and sk_steal is not None and mw_steal < sk_steal:
        print(f"WARNING: skewed stealing loses to one worker at 2 workers "
              f"({mw_steal:.2f} vs {sk_steal:.2f} Melem/s)")
    elif mw_steal is not None and sk_steal is not None:
        print(f"ok: skewed stealing at 2 workers holds against 1 worker "
              f"({mw_steal:.2f} vs {sk_steal:.2f} Melem/s)")
else:
    print("note: single-core runner — multi-worker speedup checks skipped")

sys.exit(status)
