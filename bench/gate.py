"""Output-correctness gate: what of a run must repeat exactly.

A run's digest keeps the report's ``status``, ``metrics`` and ``lines``
and the SHA-256 of every CSV table and of ``certificate.json`` /
``shift_base.json``.  It leaves out ``wall_clock_seconds``, the config
echo and the artifact list, which are bookkeeping rather than results,
and any other file written beside the report.
"""

from __future__ import annotations

import hashlib
import json
import os

REPORT_KEYS = ("status", "metrics", "lines")
PINNED_FILES = ("certificate.json", "shift_base.json")


def digest(out_dir: str) -> dict:
    """The exact results a run left in ``out_dir``."""
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    out = {key: report[key] for key in REPORT_KEYS}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name in PINNED_FILES:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    out["files"] = files
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """Where two digests differ, one line per differing item; empty if equal."""
    out = []
    for key in REPORT_KEYS:
        if got.get(key) != want.get(key):
            out.append(f"report {key} differs")
    got_files, want_files = got.get("files", {}), want.get("files", {})
    for name in sorted(set(got_files) | set(want_files)):
        if name not in got_files:
            out.append(f"{name} missing")
        elif name not in want_files:
            out.append(f"{name} unexpected")
        elif got_files[name] != want_files[name]:
            out.append(f"{name} bytes differ")
    return out
