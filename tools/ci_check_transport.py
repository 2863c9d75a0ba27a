#!/usr/bin/env python3
"""CI smoke check for BENCH_transport.json.

Hard-fails when any backend series is missing: the bench must sweep the
in-memory, Unix-domain-socket and TCP transports for every workload. The
socket-vs-inmem slowdown is a soft check — shared CI runners are too noisy
for wall-time ratios — and only prints warnings.
"""

import json
import sys

PATH = sys.argv[1] if len(sys.argv) > 1 else "BENCH_transport.json"
WORKLOADS = ["p2p", "bcast", "reduce"]
BACKENDS = ["inmem", "uds", "tcp"]
REQUIRED = [f"{w}_{b}" for w in WORKLOADS for b in BACKENDS]
# Soft floor: sockets within this factor of the in-memory fast path.
SLOWDOWN_BUDGET = 20.0

with open(PATH) as f:
    data = json.load(f)
points = data["points"]
series = {p["series"] for p in points}

missing = [s for s in REQUIRED if s not in series]
if missing:
    print(f"ERROR: {PATH} is missing required series: {missing}")
    sys.exit(1)
print(f"ok: all {len(REQUIRED)} backend series present in {PATH}")


def rate(name):
    for p in points:
        if p["series"] == name:
            return p["melem_per_s"]
    return None


for w in WORKLOADS:
    base = rate(f"{w}_inmem")
    if not base:
        print(f"WARNING: no in-memory baseline rate for {w}; skipping comparison")
        continue
    for b in ("uds", "tcp"):
        got = rate(f"{w}_{b}")
        if not got:
            print(f"WARNING: zero/missing rate for {w}_{b}; skipping comparison")
            continue
        slowdown = base / got
        verdict = (
            "ok"
            if slowdown <= SLOWDOWN_BUDGET
            else "WARNING (soft check, not failing the build)"
        )
        print(
            f"{w}: {b} {got:.2f} vs inmem {base:.2f} Melem/s "
            f"-> {slowdown:.2f}x slowdown ({verdict})"
        )
sys.exit(0)
