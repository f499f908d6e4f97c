"""Self-tests of the benchmark: span arithmetic, patch hygiene, gate, smoke runs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "synthetic"]


def test_self_time_of_a_nested_span_tree():
    tree = [
        _span("experiments", 0.0, 10.0),
        _span("weyl.weighted_average", 1.0, 6.0, 0),
        _span("weyl.pullback", 2.0, 3.0, 1),
        _span("weyl.pullback", 3.5, 5.0, 1),
        _span("roth.form_exact", 7.0, 9.0, 0),
        _span("harmonic.spectrum", 8.0, 9.5, 0),  # overlaps its sibling
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.5, 1.0, 1.5, 2.0, 1.5])
    assert spans.busy_time(tree, ("weyl.pullback",)) == pytest.approx(2.5)
    assert spans.busy_time(tree, ("roth.form_exact", "harmonic.spectrum")) == pytest.approx(2.5)
    summary = spans.summarize(tree, {"weyl.pullback.calls": 2})
    assert summary["weyl.weighted_average.self_s"] == pytest.approx(2.5)
    assert summary["weyl.self_s"] == pytest.approx(5.0)
    assert summary["experiments.self_s"] == pytest.approx(2.5)
    assert summary["weyl.pullback.calls"] == 2
    assert spans.stage_busy(tree)["weyl.weighted_average"] == pytest.approx(5.0)


def test_tracer_records_parents_and_durations():
    ticks = iter(range(100))
    tracer = spans.Tracer("t", clock=lambda: float(next(ticks)))
    outer = tracer.begin("experiments")
    inner = tracer.begin("weyl.pullback")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans == [
        ["experiments", 0.0, 3.0, None, "t"],
        ["weyl.pullback", 1.0, 2.0, 0, "t"],
    ]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def _namespaces():
    """Every (owner, attribute) a probe patches, with its current value."""
    import reclab.cli  # noqa: F401  (imports every layer, as a run does)

    found = {}
    for probe in spans.PROBES:
        module = sys.modules[probe.module]
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "reclab" and hasattr(mod, attr):
                found[(mod, attr)] = getattr(mod, attr)
    return found


def test_traced_run_restores_every_patched_attribute(tmp_path):
    from reclab import experiments

    before = _namespaces()
    config = experiments.ExperimentConfig.from_json(
        workloads.config("grid_large_q", 3, str(tmp_path / "traced"), smoke=True)
    )
    with spans.Tracer("t") as tracer:
        assert experiments.triple_integrals is not before[(experiments, "triple_integrals")]
        experiments.run_experiment(config)
    recorded = len(tracer.spans)
    assert recorded and tracer.counts["weyl.pullback.calls"] > 0
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    config.out_dir = str(tmp_path / "plain")
    experiments.run_experiment(config)
    assert len(tracer.spans) == recorded
    assert gate.digest(str(tmp_path / "traced")) == gate.digest(str(tmp_path / "plain"))


def test_gate_fails_on_a_tampered_csv_byte(tmp_path):
    from reclab import experiments

    out = tmp_path / "out"
    doc = workloads.config("trig_window", 5, str(out), smoke=True)
    experiments.run_experiment(experiments.ExperimentConfig.from_json(doc))
    reference = gate.digest(str(out))
    assert gate.mismatches(gate.digest(str(out)), reference) == []

    path = out / "battery.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    tampered = gate.digest(str(out))
    assert gate.mismatches(tampered, reference) == ["battery.csv bytes differ"]

    sample = {"traced": False, "status": "PASS", "digest": tampered}
    run.judge("trig_window", 5, [{"traced": False, "status": "PASS", "digest": reference}, sample],
              references=None)
    assert sample["failure"].startswith("outputs differ")


def test_judge_fails_an_unexpected_verdict():
    samples = [{"traced": False, "status": "INCONCLUSIVE", "digest": {}}]
    run.judge("trig_window", 5, samples, references=None)
    assert samples[0]["failure"].startswith("verdict INCONCLUSIVE")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_size_of_each_workload_runs_in_seconds(name, monkeypatch):
    monkeypatch.setenv("LAB_THREADS", "2")
    assert "LAB_THREADS" not in run.child_env()[0]
    start = time.monotonic()
    line, detail = run.measure(name, 3, 0.1, trace=False, smoke=True)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_SAMPLES
    assert set(line["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert detail["environment"]["lab_threads"].startswith("removed")

    line, detail = run.measure(name, 3, 0.1, trace=True, smoke=True)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in _benchmark()["per_layer"]]
    assert detail["trace"]["counters_repeat"]
    assert time.monotonic() - start < 60.0


def test_trig_window_never_draws_an_inconclusive_polynomial():
    for seed in range(2000):
        config_seed = workloads.config_seed("trig_window", seed)
        assert not {config_seed, config_seed + 1} & workloads.TRIG_INCONCLUSIVE_TABLES
    assert workloads.config_seed("trig_window", workloads.DEFAULT_SEED) == workloads.DEFAULT_SEED


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_units_match_the_emitted_metrics():
    doc = _benchmark()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    for metric in doc["per_layer"]:
        assert metric["unit"] == spans.unit(metric["name"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cert_stage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
