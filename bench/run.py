#!/usr/bin/env python3
"""The reclab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its ``src/``.  Each sample is one ``run_experiment`` call in a fresh
process (``child.py``), so every sample pays set-up the way ``lab run``
does.  ``LAB_THREADS`` is removed from the child environment, so the
thread pools stay off, which is the default users get.

``--trace 0`` measures the end-to-end metrics with tracing off: samples
run back to back while a typical sample still ends within ``--seconds``
of the start, and at least two, so every run repeats the workload and
can compare outputs.  ``--trace 1`` runs one untraced and two traced
samples and reports the per-layer metrics (``spans.PER_LAYER``) as the
median of the traced two;
``trace.overhead_s`` is traced minus untraced ``run_s``.

A sample fails on an exception, a verdict other than PASS, outputs that
differ from the run's first sample, or, at the default seed, outputs
that differ from ``references.json``.  The last line of standard output
is the result; the line before it, also written to ``.bench_results/``,
holds every sample, the environment and the trace breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
RESULTS = ROOT / ".bench_results"
REFERENCES = BENCH / "references.json"

#: set-up-only processes per run, besides the set-up every sample pays
SETUP_PROBES = 3
#: untraced samples per end-to-end run, at least
MIN_SAMPLES = 2
#: past this many seconds a run starts no sample beyond the minimum
DEADLINE_S = 150.0
#: a sample still running this many seconds into the run is killed and fails
HARD_STOP_S = 175.0


class BenchError(RuntimeError):
    """The benchmark cannot run here at all (no program, bad arguments)."""


# ---- one process ----


def child_env() -> tuple[dict, str | None]:
    """The child environment, and the LAB_THREADS value it removed."""
    env = dict(os.environ)
    removed = env.pop("LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env, removed


def spawn(doc: dict, sample_dir: Path, flags: list[str], timeout: float) -> dict:
    """Run child.py on one config; its result, or ``{"error": ...}``."""
    sample_dir.mkdir(parents=True, exist_ok=True)
    config_path, result_path = sample_dir / "config.json", sample_dir / "result.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "child.py"), str(config_path), str(result_path), *flags]
    env, _ = child_env()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: " + proc.stderr.strip()[-2000:]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["reclab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"reclab was imported from {result['reclab_file']}, not {SRC}")
    result["setup_s"] = result.pop("setup_end") - started
    return result


def run_sample(name: str, seed: int, label: str, trace: bool, timeout: float,
               smoke: bool = False) -> dict:
    """One run_experiment call in a fresh process, with the digest of its outputs."""
    sample_dir = WORK / f"{name}-{seed}-{os.getpid()}-{label}"
    shutil.rmtree(sample_dir, ignore_errors=True)
    out_dir = sample_dir / "out"
    doc = workloads.config(name, seed, str(out_dir), smoke=smoke)
    flags = ["--trace", f"{name}-{seed}-{label}"] if trace else []
    try:
        result = spawn(doc, sample_dir, flags, timeout)
        if "error" not in result:
            result["digest"] = gate.digest(str(out_dir))
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    result["traced"] = trace
    return result


def setup_probe(name: str, seed: int, label: str) -> float:
    sample_dir = WORK / f"{name}-{seed}-{os.getpid()}-{label}"
    try:
        doc = workloads.config(name, seed, str(sample_dir / "out"))
        result = spawn(doc, sample_dir, ["--setup-only"], timeout=60.0)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    if "error" in result:
        raise BenchError(f"set-up failed: {result['error']}")
    return result["setup_s"]


# ---- checks ----


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def judge(name: str, seed: int, samples: list[dict], references: dict | None) -> None:
    """Set ``failure`` on every sample that does not repeat the expected output.

    At the default seed each sample is compared with the reference;
    otherwise with the run's first sample that completed.
    """
    want = None
    if seed == workloads.DEFAULT_SEED and references is not None:
        want = references["workloads"][name]["digest"]
    for sample in samples:
        if "error" in sample:
            sample["failure"] = sample["error"]
            continue
        if sample["status"] != workloads.EXPECTED_STATUS:
            sample["failure"] = f"verdict {sample['status']}, expected {workloads.EXPECTED_STATUS}"
            continue
        if want is None:
            want = sample["digest"]
            continue
        diff = gate.mismatches(sample["digest"], want)
        if diff:
            sample["failure"] = "outputs differ: " + "; ".join(diff[:5])
    traced = [s for s in samples if s.get("traced") and "failure" not in s]
    for sample in traced[1:]:
        if sample["counts"] != traced[0]["counts"]:
            sample["failure"] = "counters differ between traced samples"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


# ---- environment ----


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    """Cache sizes of the first CPU as the kernel reports them, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    _, removed = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "lab_threads": "unset" if removed is None else f"removed from the child environment (was {removed!r})",
    }


# ---- one benchmark run ----


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            references: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    start = time.monotonic()
    deadline, hard_stop = start + DEADLINE_S, start + HARD_STOP_S
    setup_probe(name, seed, "warmup")  # writes bytecode caches, as a first `lab run` would
    setups = [setup_probe(name, seed, f"setup{i}") for i in range(SETUP_PROBES)]

    samples: list[dict] = []
    spent: list[float] = []  # wall seconds of each sample, process start to exit

    def add(traced: bool) -> None:
        began = time.monotonic()
        timeout = hard_stop - began
        samples.append(run_sample(name, seed, f"s{len(samples)}", traced, timeout, smoke))
        spent.append(time.monotonic() - began)

    if trace:
        for traced in (False, True, True):
            add(traced)
    else:
        # Start another sample only if a typical one still ends inside the
        # window, which opens with the set-up probes, so a whole run takes
        # about ``seconds`` and no more.
        while len(samples) < MIN_SAMPLES or (
            time.monotonic() + statistics.median(spent) - start <= seconds
            and time.monotonic() + 1.5 * statistics.median(spent) < deadline
        ):
            add(False)

    judge(name, seed, samples, references)
    # Timings come from every sample that ran; wrong outputs show in ``failed``.
    completed = [s for s in samples if "run_s" in s]
    untraced = [s for s in completed if not s["traced"]]
    setups += [s["setup_s"] for s in untraced]

    detail: dict = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "environment": environment(seed),
        "samples": [
            {k: s.get(k) for k in ("traced", "run_s", "setup_s", "peak_rss_mb", "status", "failure")}
            for s in samples
        ],
    }
    metrics: dict = {}
    if not trace:
        series = {
            "setup_s": (setups, "s"),
            "run_s": ([s["run_s"] for s in untraced], "s"),
            "peak_rss_mb": ([s["peak_rss_mb"] for s in untraced], "MiB"),
        }
        for metric, (values, unit) in series.items():
            if values:
                metrics[metric] = _metric(statistics.median(values), unit)
            detail[metric] = {"n": len(values), "quartiles": quartiles(values), "values": values}
    else:
        traced = [s for s in completed if s["traced"]]
        if traced and untraced:
            metrics, detail["trace"] = trace_metrics(name, seed, traced, untraced[0], references)
    detail["wall_s"] = time.monotonic() - start
    failed = sum(1 for s in samples if "failure" in s)
    line = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    return line, detail


# The layer metrics each workload is predicted to spend the majority of
# its traced run_s in.
DOMINANCE = {
    "grid_large_q": ("weyl.pullback.busy_s",),
    "trig_window": ("weyl.weighted_average.self_s", "experiments.self_s"),
    "cert_stage": ("certificates.verify.busy_s",),
}


def dominance(name: str, per_layer: dict, run_s: float) -> dict:
    """Whether the predicted dominant layer of workload ``name`` dominated, as measured."""
    targets = DOMINANCE[name]
    seconds = sum(per_layer[m] for m in targets)
    return {"claim": f"{' + '.join(targets)}: majority", "holds": seconds > run_s / 2,
            "seconds": seconds, "share_of_run_s": seconds / run_s}


def trace_metrics(name: str, seed: int, traced: list[dict], untraced: dict,
                  references: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics and the trace breakdown.

    Times are medians over the traced samples; counters are exact and
    ``judge`` has checked they repeat, so the first sample's are reported.
    """
    summaries = [spans.summarize(s["spans"], s["counts"]) for s in traced]
    per_layer = {
        m: statistics.median(x[m] for x in summaries) if spans.unit(m) == "s" else v
        for m, v in summaries[0].items()
    }
    traced_run_s = statistics.median(s["run_s"] for s in traced)
    per_layer["trace.overhead_s"] = traced_run_s - untraced["run_s"]
    metrics = {m: _metric(v, spans.unit(m)) for m, v in per_layer.items()}

    stages = spans.stage_busy(traced[0]["spans"])
    counts = {c: per_layer[c] for c in spans.COUNTERS}
    detail = {
        "traced_run_s": traced_run_s,
        "untraced_run_s": untraced["run_s"],
        "stages_busy_s": stages,
        "dominance": dominance(name, per_layer, traced_run_s),
        "computed_counters": list(spans.COMPUTED),
        "counters_repeat": all(s["counts"] == traced[0]["counts"] for s in traced),
    }
    if seed == workloads.DEFAULT_SEED and references is not None:
        want = references["workloads"][name].get("counts", {})
        detail["counters_vs_reference"] = sorted(c for c in want if want[c] != counts.get(c))
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}.spans.json", "w", encoding="utf-8") as fh:
        json.dump([s["spans"] for s in traced], fh)
    return metrics, detail


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_seed, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reclab" / "experiments.py").is_file():
        print(f"error: no reclab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        line, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               references=load_references())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": line, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
