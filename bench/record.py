#!/usr/bin/env python3
"""Record references.json: the outputs and counters of every workload at the default seed.

    python3 bench/record.py

Run it only at a commit whose outputs are known good; the benchmark
then fails any sample at the default seed whose outputs differ.  Each
workload runs once traced, which gives both its output digest and its
counters; the counters are kept for comparison, not as a gate.
"""

from __future__ import annotations

import json
import sys

import run
import spans
import workloads


def main() -> int:
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        sample = run.run_sample(name, workloads.DEFAULT_SEED, "record", True, timeout=600.0)
        if "error" in sample or sample["status"] != workloads.EXPECTED_STATUS:
            print(f"{name}: {sample.get('error') or sample['status']}", file=sys.stderr)
            return 1
        doc["workloads"][name] = {
            "digest": sample["digest"],
            "counts": {c: sample["counts"].get(c, 0) for c in spans.COUNTERS},
        }
        print(f"{name}: recorded", file=sys.stderr)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
