#!/usr/bin/env python3
"""Diff freshly produced BENCH_*.json files against the committed copies.

Only machine-independent fields are compared: digests, gate booleans,
convergence/round counts, and fixed benchmark dimensions. Wall-clock
numbers, per-second throughputs, and host properties are excluded —
shared CI runners are far too noisy for hard thresholds, and those
fields are tracked via uploaded artifacts instead.

Usage: bench_regression.py BENCH_engine.json BENCH_datacenter.json ...

Each argument names a fresh file in the working tree; the baseline is
read from `git show HEAD:<name>` so the script works both locally
(where the bench overwrote the committed copy in place) and in CI.
Files without a committed baseline are skipped with a warning so a new
benchmark can land before its baseline does.
"""

import json
import subprocess
import sys

# name -> list of dotted key paths that must match the committed copy
# exactly. Keep every entry machine-independent: anything influenced by
# core count, wall clock, or allocator jitter does not belong here.
WHITELIST = {
    "BENCH_engine.json": [
        "campaign.runs",
        "determinism.checked",
        "determinism.bit_identical",
        "mpc_hot_path.channels",
        "mpc_hot_path.periods",
    ],
    "BENCH_datacenter.json": [
        "racks",
        "secs",
        "digest",
        "market_rounds",
        "peak_feeder_w",
        "feeder_trip_periods",
        "conserved",
    ],
    "BENCH_grid.json": [
        "seed",
        "secs",
        "separation.sprintcon_p99_s",
        "separation.sgct_p99_s",
    ],
    "BENCH_tail_latency.json": [
        "seed",
        "secs",
        "determinism",
        "separation",
    ]
    + [
        f"policies.{i}.{field}"
        for i in range(3)
        for field in ("policy", "request_p99_s", "drop_fraction")
    ],
}


def lookup(doc, path):
    """Walk a dotted path; integer parts index into lists."""
    node = doc
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return ("missing", None)
    return ("ok", node)


def committed(name):
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def main(names):
    if not names:
        print("usage: bench_regression.py BENCH_foo.json ...", file=sys.stderr)
        return 2
    failures = []
    for name in names:
        keys = WHITELIST.get(name)
        if keys is None:
            print(f"error: no whitelist for {name}", file=sys.stderr)
            return 2
        base = committed(name)
        if base is None:
            print(f"warning: {name} has no committed baseline, skipping")
            continue
        try:
            with open(name, encoding="utf-8") as f:
                fresh = json.load(f)
        except OSError as e:
            failures.append(f"{name}: fresh copy unreadable: {e}")
            continue
        for key in keys:
            bstat, bval = lookup(base, key)
            fstat, fval = lookup(fresh, key)
            if (bstat, bval) != (fstat, fval):
                failures.append(
                    f"{name}: {key}: committed {bstat}/{bval!r} "
                    f"!= fresh {fstat}/{fval!r}"
                )
        print(f"{name}: {len(keys)} machine-independent fields checked")
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("bench regression: all baselines match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
