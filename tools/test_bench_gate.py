"""Tests of the bench_trajectory regression gate (bench_gate.py).

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

BASELINE = {
    "workloads": [
        {"dataset": "web", "algo": "PR", "wall_seconds": 0.5,
         "total_seconds": 1.25, "read_bytes": 4096, "write_bytes": 512,
         "rounds": 3, "iterations": 5},
    ],
    "semi_external": {
        "cells": [
            {"dataset": "web", "algo": "SSSP", "semi_bytes": 2048,
             "semi_rounds": 7, "semi_total_seconds": 0.25},
        ],
        "compressed_cell": {"frame_hits": 4},
    },
    "parallel_compute": {
        "cells": [{"dataset": "web", "read_bytes": 4096, "write_bytes": 512,
                   "bytes_identical": True, "speedup": 1.1}],
    },
    "ssd_scheduling": {
        "cells": [{"dataset": "grid", "models_hdd": "SSF",
                   "models_ssd": "SSS", "models_ssd_semi": "MMM"}],
    },
    "service": {
        "cells": [{"sharing": True, "batching": True, "failures": 0,
                   "read_bytes": 100, "wall_seconds": 2.0}],
    },
}


class BenchGateTest(unittest.TestCase):
    def gate(self, fresh):
        """Runs the gate on `fresh` against BASELINE; returns its exit code."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("fresh.json", fresh), ("BENCH_1.json",
                                                      BASELINE)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            with contextlib.redirect_stdout(io.StringIO()):
                return bench_gate.main(["bench_gate.py"] + paths)

    def test_identical_snapshot_passes(self):
        self.assertEqual(self.gate(copy.deepcopy(BASELINE)), 0)

    def test_changed_read_bytes_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"][0]["read_bytes"] += 1
        self.assertEqual(self.gate(fresh), 1)

    def test_changed_seconds_pass(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"][0]["wall_seconds"] *= 3
        fresh["workloads"][0]["total_seconds"] *= 3
        fresh["semi_external"]["cells"][0]["semi_total_seconds"] *= 3
        fresh["service"]["cells"][0]["wall_seconds"] *= 3
        self.assertEqual(self.gate(fresh), 0)

    def test_service_failures_fail(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["service"]["cells"][0]["failures"] = 1
        self.assertEqual(self.gate(fresh), 1)

    def test_field_missing_from_one_side_fails(self):
        dropped = copy.deepcopy(BASELINE)
        del dropped["semi_external"]["cells"][0]["semi_rounds"]
        self.assertEqual(self.gate(dropped), 1)
        added = copy.deepcopy(BASELINE)
        added["semi_external"]["cells"][0]["blocks_skipped"] = 3
        self.assertEqual(self.gate(added), 1)


if __name__ == "__main__":
    unittest.main()
