#!/usr/bin/env python3
"""Byte and round regression gate for bench_trajectory snapshots.

Compares the deterministic fields of a fresh `bench_trajectory` output
against a pinned BENCH_*.json (by default the newest one in the repo root)
and fails on any difference. Compared exactly:

  * per workload: read_bytes, write_bytes, rounds, iterations;
  * every semi_external cell (all non-time fields) and the compressed cell;
  * parallel_compute: read_bytes, write_bytes and bytes_identical per cell;
  * ssd_scheduling: the per-round model strings of every cell;
  * service: the failed-query count of every cell.

Wall and modeled times are not compared. Of the service section only the
failure counts are: its batch formation, and so its bytes and engine runs,
depends on thread timing, but every query must still succeed.

Usage: tools/bench_gate.py NEW.json [BASELINE.json]
"""
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD_FIELDS = ("read_bytes", "write_bytes", "rounds", "iterations")
PARALLEL_FIELDS = ("read_bytes", "write_bytes", "bytes_identical")
SSD_FIELDS = ("models_hdd", "models_ssd", "models_ssd_semi")


def newest_bench():
    def number(path):
        match = re.search(r"BENCH_(\d+)\.json$", path)
        return int(match.group(1)) if match else -1
    paths = [p for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
             if number(p) >= 0]
    if not paths:
        sys.exit("bench_gate: no BENCH_<n>.json in " + ROOT)
    return max(paths, key=number)


def untimed(cell):
    return {k: v for k, v in cell.items() if not k.endswith("_seconds")}


def pick(cell, fields):
    return {k: cell.get(k) for k in fields}


def deterministic_view(doc):
    """Flattens a snapshot into {label: value} over the gated fields."""
    view = {}

    def add_cells(section, cells, key_fields, project):
        for cell in cells:
            label = section + "[" + "/".join(
                str(cell.get(k)) for k in key_fields) + "]"
            for field, value in project(cell).items():
                view[label + "." + field] = value

    add_cells("workloads", doc.get("workloads", []), ("dataset", "algo"),
              lambda c: pick(c, WORKLOAD_FIELDS))
    semi = doc.get("semi_external", {})
    add_cells("semi_external", semi.get("cells", []), ("dataset", "algo"),
              untimed)
    for field, value in semi.get("compressed_cell", {}).items():
        view["semi_external.compressed_cell." + field] = value
    add_cells("parallel_compute",
              doc.get("parallel_compute", {}).get("cells", []), ("dataset",),
              lambda c: pick(c, PARALLEL_FIELDS))
    add_cells("ssd_scheduling",
              doc.get("ssd_scheduling", {}).get("cells", []), ("dataset",),
              lambda c: pick(c, SSD_FIELDS))
    add_cells("service", doc.get("service", {}).get("cells", []),
              ("sharing", "batching"), lambda c: pick(c, ("failures",)))
    return view


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    baseline_path = argv[2] if len(argv) == 3 else newest_bench()
    with open(argv[1]) as f:
        fresh = deterministic_view(json.load(f))
    with open(baseline_path) as f:
        pinned = deterministic_view(json.load(f))
    diffs = []
    for label in sorted(set(fresh) | set(pinned)):
        want = pinned.get(label, "<missing>")
        got = fresh.get(label, "<missing>")
        if want != got:
            diffs.append("  %s: pinned %r, got %r" % (label, want, got))
    name = os.path.basename(baseline_path)
    if diffs:
        print("bench gate: %d of %d fields differ from %s:" %
              (len(diffs), len(pinned), name))
        print("\n".join(diffs))
        return 1
    print("bench gate: %d fields match %s" % (len(pinned), name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
