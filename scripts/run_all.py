#!/usr/bin/env python3
"""Run every example config under scripts/configs and summarize.

Each config is executed with its output redirected below a common
root (default runs/), so repeated invocations are self-contained and
the per-experiment report.json and CSV tables land side by side.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from reclab.experiments import ExperimentConfig, ExperimentError, run_experiment

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="runs", help="output root directory")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="config stems to run (default: all of scripts/configs)",
    )
    args = parser.parse_args()

    paths = sorted(CONFIG_DIR.glob("*.json"))
    if args.only is not None:
        wanted = set(args.only)
        paths = [p for p in paths if p.stem in wanted]
        missing = wanted - {p.stem for p in paths}
        if missing:
            parser.error(f"unknown config stems: {sorted(missing)}")

    rows = []
    failed = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = ExperimentConfig.from_json(json.load(fh))
            config.out_dir = str(Path(args.root) / path.stem)
            report = run_experiment(config)
        except (OSError, json.JSONDecodeError, ExperimentError) as exc:
            rows.append((path.stem, f"ERROR {exc}", 0.0))
            failed += 1
            continue
        rows.append((path.stem, report.status, report.wall_clock_seconds))
        failed += report.status == "REFUTED"
        for line in report.lines:
            print(f"  {path.stem}: {line}")

    width = max((len(name) for name, _, _ in rows), default=0)
    print()
    for name, status, secs in rows:
        print(f"{name:<{width}}  {status}  ({secs * 1000:.0f} ms)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
