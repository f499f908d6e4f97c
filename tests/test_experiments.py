"""End-to-end tests of the experiment pipelines and their reports."""

import csv
import importlib.util
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reclab import bohr, certificates, experiments
from reclab.certificates import load_certificate, verify_certificate
from reclab.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    EQUI_COST_CAP,
    ExperimentError,
    GRID_CELL_NS,
    GRID_COST_CAP,
    INCONCLUSIVE,
    JOINING_MODULUS_CAP,
    LADDER_MODULUS_CAP,
    LADDER_TERM_NS,
    PASS,
    TRIG_COST_CAP,
    TRIG_HORIZON_CAP,
    TRIG_MODES_CAP,
    _REQUIRED,
    _SCHEMA,
    _build_mask,
    _mask_measure,
    _parse_params,
    _phase_masses,
    _random_trig_table,
    list_experiments,
    run_experiment,
)
from reclab.torus import fraction_str
from reclab.weyl import kronecker_projection, trig_progression_form

from oracles import Averaged, reach_the_average

REPO = Path(__file__).parents[1]


def run(tmp_path, experiment, params, seed=0, **kw):
    config = ExperimentConfig(
        experiment=experiment, params=params, out_dir=str(tmp_path), seed=seed, **kw
    )
    return run_experiment(config)


def battery_rows(tmp_path):
    with open(tmp_path / "battery.csv", newline="") as fh:
        return {row["label"]: row for row in csv.DictReader(fh)}


INDEPENDENT = {
    "q": 135, "alpha": "2/135", "r": 5, "k": 4, "eps": "1/8",
    "t0": "1/7", "battery": 2,
}
JOINT = dict(INDEPENDENT, beta=["1/3", "2/3", "1/5", "2/5", "1/9"])


# ---------------------------------------------------------------------------
# config plumbing


def test_registry_and_listing_agree():
    names = [name for name, _ in list_experiments()]
    assert names == sorted(EXPERIMENTS)
    assert all(summary for _, summary in list_experiments())


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "does_not_exist", {})
    assert err.value.stage == "config"


def test_unknown_config_key_rejected():
    with pytest.raises(ExperimentError) as err:
        ExperimentConfig.from_json({"experiment": "equidistribution", "horizon": 5})
    assert err.value.stage == "config"


def test_unknown_param_rejected(tmp_path):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "equidistribution", {"laddr": [100]})
    assert err.value.stage == "config"


def test_config_json_roundtrip():
    config = ExperimentConfig(
        experiment="sqrt_recurrence", params={"N": 10}, out_dir="x", seed=3
    )
    assert ExperimentConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("seed", ["abc", "3", 2.7, True, None, -1])
def test_seed_must_be_a_nonnegative_json_integer(seed):
    with pytest.raises(ExperimentError) as err:
        ExperimentConfig.from_json({"experiment": "equidistribution", "seed": seed})
    assert err.value.stage == "config"


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("main_inequality", {"battery": True}),
        ("sqrt_recurrence", {"q": 256, "N": 2.7}),
        ("sqrt_recurrence", {"q": 256, "N": "300"}),
        ("equidistribution", {"ladder": "123"}),
        ("equidistribution", {"ladder": [1000.0]}),
        ("main_inequality", {"model": "trig", "beta": "12345", "N": 1000}),
        ("theorem_stage", {"frequencies": 5}),
        ("theorem_stage", {"contrast_q": "abc"}),
        ("theorem_stage", {"contrast_density": "-3"}),
        ("sqrt_recurrence", {"eps": "3"}),
        ("equidistribution", {"cases": 5}),
        ("equidistribution", {"cases": [{"label": 5}]}),
        ("sqrt_recurrence", {"model": "weyl", "q": 2048, "step": [1, 1, 1]}),
        ("equidistribution", {"ladder": []}),
        ("sqrt_recurrence", {"q": 2049, "step": [1, 1]}),
    ],
)
def test_config_params_are_not_coerced(tmp_path, experiment, params):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, experiment, params)
    assert err.value.stage == "config"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "path", sorted((REPO / "scripts" / "configs").glob("*.json")), ids=lambda path: path.stem
)
def test_example_configs_match_their_schema(path):
    # parsing only, so a config that drifts from its table fails without a run
    with open(path, encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    assert config.experiment in EXPERIMENTS
    _parse_params(config)


def _readme_type(param) -> str:
    if param.kind == "list":
        return "list of " + _readme_type(param.of)
    if param.kind == "table":
        return f"`{param.of}` object"
    if param.kind == "string" and param.of:
        return "one of " + ", ".join(f"`{choice}`" for choice in param.of)
    return {"value": "rational or convergent"}.get(param.kind, param.kind)


def _readme_row(param) -> str:
    bounds = param.bounds or (param.of.bounds if param.kind == "list" else "")
    if param.default is _REQUIRED:
        default = "required"
    elif param.default is None:
        default = "derived"
    else:
        text = json.dumps(param.default)
        default = f"`{text}`" if len(text) <= 40 else "see below"
    return f"| `{param.name}` | {_readme_type(param)} | {bounds or '-'} | {default} |"


@pytest.mark.parametrize("name", sorted(_SCHEMA))
def test_readme_lists_every_schema_entry(name):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    sections = re.split(r"^#### ", readme, flags=re.M)
    section = next((s for s in sections if s.startswith(f"{name}\n")), None)
    assert section is not None, f"README has no '#### {name}' section"
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == [_readme_row(param) for param in _SCHEMA[name]]


@pytest.mark.parametrize(
    "params",
    [
        {"model": "trig", "q": 7, "N": 1000, "battery": 1},
        {"model": "trig", "t0": "1/3", "N": 1000, "battery": 1},
        {"model": "trig", "n_max": 1000, "N": 1000, "battery": 1},
        dict(INDEPENDENT, N=1000),
        dict(INDEPENDENT, modes=3),
        dict(INDEPENDENT, tolerance="0"),
    ],
)
def test_main_inequality_rejects_the_other_backends_keys(tmp_path, params):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", params)
    assert err.value.stage == "config" and "unknown parameters" in str(err.value)
    assert not (tmp_path / "report.json").exists()


def test_trig_alpha_is_used_as_given(tmp_path):
    base = {"model": "trig", "N": 1000, "battery": 1, "modes": 3}
    given_alpha = run(tmp_path / "given", "main_inequality", dict(base, alpha="2/135"))
    default = run(tmp_path / "default", "main_inequality", base)
    sqrt2 = run(tmp_path / "sqrt2", "main_inequality", dict(base, alpha={"convergent": "sqrt2"}))
    assert given_alpha.config["params"]["alpha"] == "2/135"
    assert default.config["params"]["alpha"] == "768398401/543339720"
    assert default.tables == sqrt2.tables
    assert given_alpha.tables["battery.csv"] != default.tables["battery.csv"]


def test_trig_modes_cap_is_every_conjugate_pair_of_the_frequency_box(tmp_path):
    # frequencies come from [-3, 3]^2 less the origin, in conjugate pairs; a
    # table asking for more pairs than the box holds would never be filled
    box = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    assert TRIG_MODES_CAP == len(box) // 2 == 24
    table, _ = _random_trig_table(TRIG_MODES_CAP, 11)
    assert len(list(table)) == len(box) + 1
    base = {"model": "trig", "N": 1000, "battery": 1}
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", dict(base, modes=TRIG_MODES_CAP + 1))
    assert err.value.stage == "config" and f"[1, {TRIG_MODES_CAP}]" in str(err.value)


def _bench_workload(name: str) -> dict:
    """The config document of benchmark workload ``name`` at its default seed."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config(name, workloads.DEFAULT_SEED, "")


#: a trig run whose window and series moduli are past the int64 guard
WIDE_TRIG = {
    "alpha": {"convergent": "sqrt2", "q_cap": 2**62},
    "beta": [{"convergent": name, "q_cap": 2**62} for name in ("sqrt3", "golden")]
    + ["1/7", "2/11", "3/13"],
}


def test_trig_cost_model_refuses_the_next_size_up_without_running_it(tmp_path, monkeypatch):
    # on either residue branch the largest accepted N reaches the average; one
    # n more is refused at config, before any polynomial is averaged
    monkeypatch.setattr(experiments, "weighted_average", reach_the_average)
    for wide, residues in ((False, "int64"), (True, "Python-int")):
        for modes, battery in ((1, 16), (6, 2), (TRIG_MODES_CAP, 1)):
            per_n = battery * experiments._trig_term_ns(modes, wide)
            largest = TRIG_COST_CAP // per_n
            assert largest < TRIG_HORIZON_CAP
            base = dict(WIDE_TRIG if wide else {}, model="trig", battery=battery, modes=modes)
            with pytest.raises(Averaged):
                run(tmp_path, "main_inequality", dict(base, N=largest))
            with pytest.raises(ExperimentError) as err:
                run(tmp_path, "main_inequality", dict(base, N=largest + 1))
            assert err.value.stage == "config"
            assert f"term({modes} modes, {residues} residues)" in str(err.value)
            cost = f"= {(largest + 1) * per_n} ns exceeds the cap {TRIG_COST_CAP} ns"
            assert cost in str(err.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "alpha, beta_cap, wide",
    [
        ({"convergent": "sqrt2"}, 10**9, False),
        ({"convergent": "sqrt2", "q_cap": 2**62}, 10**9, True),
        ({"convergent": "sqrt2"}, 2**62, True),
        # the denominator is inside the guard, the series modulus D = 2 * 2000000001 is not
        ("1/2000000001", 10**9, True),
    ],
    ids=["int64", "series", "window", "series-doubled"],
)
def test_trig_run_is_priced_by_the_residue_branch_of_its_moduli(
    tmp_path, monkeypatch, alpha, beta_cap, wide
):
    # one modulus past the int64 guard, the series' or the pinned window
    # coordinate's, prices the run as Python-int residues
    monkeypatch.setattr(experiments, "weighted_average", reach_the_average)
    n = TRIG_COST_CAP // experiments._trig_term_ns(TRIG_MODES_CAP, wide)
    params = {
        "model": "trig", "N": n + 1, "battery": 1, "modes": TRIG_MODES_CAP, "alpha": alpha,
        "beta": [{"convergent": "sqrt3", "q_cap": beta_cap}, "1/7", "2/11", "3/13", "1/5"],
    }
    with pytest.raises(ExperimentError, match=f"= {n + 1} \\* 1 \\*"):
        run(tmp_path, "main_inequality", params)
    with pytest.raises(Averaged):
        run(tmp_path, "main_inequality", dict(params, N=n))


def test_trig_cost_model_accepts_every_shipped_trig_config(tmp_path, monkeypatch):
    # the example trig config and the trig_window benchmark workload stay far
    # inside the budget: they reach the average priced under 1/100 of the cap
    monkeypatch.setattr(experiments, "weighted_average", reach_the_average)
    docs = []
    for path in sorted((REPO / "scripts" / "configs").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    docs.append(_bench_workload("trig_window"))
    priced = 0
    for doc in docs:
        config = ExperimentConfig.from_json(dict(doc, out_dir=str(tmp_path)))
        p = _parse_params(config)
        if config.experiment != "main_inequality" or p["model"] != "trig":
            continue
        with pytest.raises(Averaged):
            run_experiment(config)
        with pytest.raises(Averaged):
            run(tmp_path, "main_inequality", dict(config.params, N=p["N"] * 100), seed=config.seed)
        priced += 1
    assert priced == 2


def test_grid_cost_model_accepts_every_shipped_grid_config():
    # the example grid configs (q = 135, battery 6) stay far inside the budget
    # at any period: no period has more keys than a full one
    grids = 0
    for path in sorted((REPO / "scripts" / "configs").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(json.load(fh))
        p = _parse_params(config)
        if config.experiment == "main_inequality" and p["model"] == "grid":
            q, model = p["q"], experiments.GridWeylModel(p["q"], (p["alpha"].numerator,))
            keys = experiments._grid_keys(model, model.period)
            assert p["battery"] * keys * 2 * q * q * GRID_CELL_NS < GRID_COST_CAP / 1000
            grids += 1
    assert grids == 2


# ---------------------------------------------------------------------------
# mask builders


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_mask_density_is_exact(side, num, seed):
    cells = side * side
    density = Fraction(num % cells + 1, cells)
    mask = _build_mask((side, side), {"kind": "random", "density": density}, seed)
    assert _mask_measure(mask) == density


@given(
    st.integers(min_value=1, max_value=50),
    st.fractions(min_value=0, max_value=1).filter(lambda d: d > 0),
)
def test_interval_mask_never_undershoots(side, density):
    mask = _build_mask((side,), {"kind": "interval", "density": density}, 0)
    assert _mask_measure(mask) >= density
    assert _mask_measure(mask) - density < Fraction(1, side)


def test_full_mask(tmp_path):
    mask = _build_mask((4, 4), {"kind": "full"}, 0)
    assert _mask_measure(mask) == 1


# ---------------------------------------------------------------------------
# main_inequality, exact grid backend


def test_independent_moduli_gaps_vanish_exactly(tmp_path):
    report = run(tmp_path, "main_inequality", INDEPENDENT, seed=11)
    assert report.status == PASS
    assert report.metrics["arithmetic"] == "exact"
    assert report.metrics["all_within_bound"] is True
    rows = battery_rows(tmp_path)
    assert rows["constant"]["gap"] == "0/1"
    assert rows["x-only"]["gap"] == "0/1"


def test_joint_moduli_gap_is_nonzero_but_bounded(tmp_path):
    report = run(tmp_path, "main_inequality", JOINT, seed=11)
    assert report.status == PASS
    rows = battery_rows(tmp_path)
    gap = Fraction(rows["x-only"]["gap"])
    assert gap > 0
    assert rows["x-only"]["within_bound"] == "True"
    # constant weight cannot see the joining structure
    assert rows["constant"]["gap"] == "0/1"


def test_sparse_joining_aborts_at_uniformize(tmp_path):
    # a generic spectrum cannot be annihilated over this thin a joining
    params = dict(
        INDEPENDENT,
        beta=["1/135", "2/135", "4/135", "8/135", "16/135"],
        battery=3,
    )
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", params, seed=11)
    assert err.value.stage == "uniformize"


def test_grid_requires_odd_modulus(tmp_path):
    params = dict(INDEPENDENT, q=134, alpha="1/134")
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", params)
    assert err.value.stage == "config"


def joining_unreachable(*args, **kwargs):
    raise AssertionError("the joining was built for a refused config")


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"alpha": "3/135"}, "alpha 1/45 must generate the size-135 grid",
                     id="alpha-not-generating"),
        pytest.param({"t0": "1/5"}, "t0 1/5 must have order coprime to the grid size 135",
                     id="t0-order-not-coprime"),
        pytest.param({"t0": "1/2"}, "common phase denominator 1890 is even",
                     id="even-phase-denominator"),
    ],
)
def test_grid_config_checks_guard_the_joining(tmp_path, monkeypatch, change, message):
    # extract_affine_joining assumes what these checks establish, with the odd q
    # of test_grid_requires_odd_modulus: alpha generating Z_q, t0 of order
    # coprime to q and an odd common denominator
    monkeypatch.setattr(experiments, "extract_affine_joining", joining_unreachable)
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", dict(INDEPENDENT, **change))
    assert err.value.stage == "config" and message in str(err.value)


def test_grid_modulus_cap_refuses_the_next_size_up_without_running_it(tmp_path, monkeypatch):
    # at q = 135 and beta i/7 a prime t0 = 1/p gives M = 945 p: 1/1051 is the
    # largest such t0 under the cap, and 1/1061 is refused before any work
    assert 945 * 1051 <= JOINING_MODULUS_CAP < 945 * 1061
    monkeypatch.setattr(experiments, "extract_affine_joining", joining_unreachable)
    monkeypatch.setattr(experiments, "_battery_grids", joining_unreachable)
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", dict(INDEPENDENT, t0="1/1061"))
    assert err.value.stage == "config"
    assert "common phase denominator 1002645 exceeds the cap 1000000" in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_grid_cost_model_refuses_the_next_size_up_without_running_it(tmp_path, monkeypatch):
    # at q = 2047 a full joint period gathers 1024 keys of 2 * 2047^2 cells for
    # each observable: a battery of 6 is priced under the cap, and 7 is refused
    # at config, before the joining or any observable is built
    q = 2047
    keys = experiments._grid_keys(experiments.GridWeylModel(q, (2,)), q * 7)
    assert keys == q // 2 + 1
    per_observable = keys * 2 * q * q * GRID_CELL_NS
    largest = GRID_COST_CAP // per_observable
    assert largest == 6
    monkeypatch.setattr(experiments, "extract_affine_joining", joining_unreachable)
    monkeypatch.setattr(experiments, "_battery_grids", joining_unreachable)
    params = dict(INDEPENDENT, q=q, alpha=f"2/{q}", battery=largest + 1)
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "main_inequality", params)
    assert err.value.stage == "config"
    cost = (largest + 1) * per_observable
    assert f"= {cost} ns exceeds the cap {GRID_COST_CAP} ns" in str(err.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("period, keys", [(1, 1), (67, 67), (68, 67), (134, 67), (135, 68),
                                          (945, 68)])
def test_grid_cost_model_counts_the_keys_the_triple_integrals_gather(period, keys):
    # the distinct min(r, P - r) of r = n mod P over n = 1..period, P = 135
    model = experiments.GridWeylModel(135, (2,))
    rs = np.arange(1, period + 1) % model.period
    assert len(np.unique(np.minimum(rs, model.period - rs))) == keys
    assert experiments._grid_keys(model, period) == keys


def test_trig_battery_uses_the_three_term_progression_form(tmp_path):
    run(tmp_path, "main_inequality", {"model": "trig", "N": 1000, "battery": 1}, seed=4)
    closed = float(battery_rows(tmp_path)["trig-0"]["closed_form"])
    h = kronecker_projection(_random_trig_table(6, 4)[0], 1)
    assert closed == trig_progression_form(h).real
    # avg over x, s in Z_32 of h(x) h(x+s) h(x+2s): with |nu| <= 3 nothing aliases
    xs = np.arange(32) / 32
    values = sum(c * np.exp(2j * np.pi * chi.freq[0] * xs) for chi, c in h)
    direct = np.mean([values * np.roll(values, -s) * np.roll(values, -2 * s) for s in range(32)])
    assert closed == pytest.approx(direct.real, abs=1e-12)
    assert abs(direct.imag) < 1e-12


def test_trig_table_26_clears_its_bound_at_1e5(tmp_path):
    params = {
        "model": "trig", "r": 5, "k": 4, "eps": "1/8", "battery": 1,
        "N": 100_000, "modes": 6, "tolerance": "1/100",
    }
    report = run(tmp_path, "main_inequality", params, seed=26)
    assert report.status == PASS
    assert report.metrics["worst_margin"] > 1


def test_trig_backend_reports_margins(tmp_path):
    params = {
        "model": "trig", "r": 3, "k": 2, "eps": "1/8",
        "battery": 2, "N": 20000, "modes": 4, "tolerance": "1/100",
    }
    report = run(tmp_path, "main_inequality", params, seed=2)
    assert report.status in (PASS, INCONCLUSIVE)
    assert "battery.csv" in report.artifacts
    assert report.metrics["arithmetic"].startswith("float")


# ---------------------------------------------------------------------------
# sqrt_recurrence


def test_sqrt_recurrence_exact_positive_intersection(tmp_path):
    params = {
        "q": 256, "delta": "3/10", "mask": {"kind": "interval", "density": "2/5"},
        "N": 300,
    }
    report = run(tmp_path, "sqrt_recurrence", params)
    assert report.status == PASS
    assert report.metrics["arithmetic"] == "exact"
    best = Fraction(report.metrics["best_intersection"])
    assert best > 0
    assert Fraction(report.metrics["mask_measure"]) > Fraction(3, 10)


def test_sqrt_recurrence_reports_min_and_mean(tmp_path):
    report = run(tmp_path, "sqrt_recurrence", {"q": 256, "N": 300})
    best = Fraction(report.metrics["best_intersection"])
    worst = Fraction(report.metrics["min_intersection"])
    mean = Fraction(report.metrics["mean_intersection"])
    assert worst <= mean <= best


def test_sqrt_recurrence_full_mask_returns_everywhere(tmp_path):
    params = {"q": 128, "delta": "1/2", "mask": {"kind": "full"}, "N": 200}
    report = run(tmp_path, "sqrt_recurrence", params)
    assert report.status == PASS
    assert Fraction(report.metrics["best_intersection"]) == 1
    assert Fraction(report.metrics["min_intersection"]) == 1


def test_sqrt_recurrence_refuses_small_masks(tmp_path):
    params = {
        "q": 256, "delta": "3/10", "mask": {"kind": "interval", "density": "1/5"},
        "N": 300,
    }
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "sqrt_recurrence", params)
    assert err.value.stage == "precondition"


def test_sqrt_recurrence_runs_at_the_phase_space_cap(tmp_path):
    # 2048^2 = PHASE_CAP cells exactly; 2049^2 is rejected by the config tests
    report = run(tmp_path, "sqrt_recurrence", {"q": 2048, "step": [1, 1], "N": 1})
    assert report.status == PASS


def test_sqrt_recurrence_empty_scan_is_inconclusive(tmp_path):
    # a tight ball around 0 with large numerators has no returns this early
    params = {
        "q": 64, "delta": "1/10", "mask": {"kind": "interval", "density": "2/5"},
        "freq": ["13/64", "17/81"], "k": 0, "eps": "1/100", "N": 12,
    }
    report = run(tmp_path, "sqrt_recurrence", params)
    assert report.status == INCONCLUSIVE
    assert report.metrics["set_size"] == 0


def test_sqrt_recurrence_weyl_backend(tmp_path):
    params = {
        "model": "weyl", "q": 32, "step": [3], "delta": "1/4",
        "mask": {"kind": "interval", "density": "2/5"}, "N": 200,
    }
    report = run(tmp_path, "sqrt_recurrence", params)
    assert report.status == PASS
    assert Fraction(report.metrics["best_intersection"]) > 0


# ---------------------------------------------------------------------------
# theorem_stage


def test_theorem_stage_single_stage_certificate(tmp_path):
    params = {"stages": 1, "delta_prime": "1/10", "N": 30000, "m_max": 8}
    report = run(tmp_path, "theorem_stage", params)
    assert report.status == PASS
    assert report.metrics["stages_completed"] == 1
    assert report.metrics["claim_above_delta_prime"] is True

    cert = load_certificate(str(tmp_path / "certificate.json"))
    assert verify_certificate(cert).ok
    with open(tmp_path / "shift_base.json") as fh:
        doc = json.load(fh)
    base = []
    for start, length in doc["elems"]:
        base.extend(range(start, start + length))
    assert set(cert.shifts) == {b * b for b in base}
    assert Fraction(report.metrics["final_claim"]) == cert.density_claim


def test_theorem_stage_writes_its_files_only_through_the_report(tmp_path):
    # the pipeline itself writes nothing: the certificate and the shift base are
    # report tables, which persist_report writes and lists after report.json
    config = ExperimentConfig(
        experiment="theorem_stage", params={"stages": 1, "N": 30000}, out_dir=str(tmp_path / "out")
    )
    report = EXPERIMENTS["theorem_stage"](config)
    assert not (tmp_path / "out").exists()
    assert report.artifacts == [
        "report.json", "certificate.json", "shift_base.json", "theorem_stage.csv",
    ]
    cert = certificates.certificate_from_json(json.loads(report.tables["certificate.json"]))
    assert report.tables["certificate.json"] == certificates.certificate_text(cert)
    experiments.persist_report(report, config.out_dir)
    for name in report.artifacts[1:]:
        assert (tmp_path / "out" / name).read_text() == report.tables[name]
    with open(tmp_path / "out" / "report.json") as fh:
        assert json.load(fh)["artifacts"] == report.artifacts


def test_theorem_stage_enumerates_no_whole_return_set(tmp_path, monkeypatch):
    # both enumerators share bohr._enumerate; e = 1 is a whole return set
    scan = bohr._enumerate

    def square_roots_only(bh, n_max, e):
        assert e == 2, f"theorem_stage enumerated a whole return set up to {n_max}"
        return scan(bh, n_max, e)

    monkeypatch.setattr(bohr, "_enumerate", square_roots_only)
    report = run(tmp_path, "theorem_stage", {"stages": 2, "N": 30000})
    assert report.status == PASS
    assert report.metrics["stages_completed"] == 2


def test_theorem_stage_failing_shift_is_a_typed_stage_error(tmp_path, monkeypatch):
    scan = experiments.sqrt_set_enumerate

    def with_a_period(bh, n_max):
        # 72^2 * (3/64, 5/81) = 0 mod 1, so B and B - 72^2 share 0
        found = scan(bh, n_max)
        return found._replace(elems=sorted(found.elems + [72]))

    monkeypatch.setattr(experiments, "sqrt_set_enumerate", with_a_period)
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "theorem_stage", {"stages": 1, "delta_prime": "1/10", "N": 30000})
    assert err.value.stage == "stage-1-verify"
    assert "violating shift 5184" in str(err.value)
    assert not (tmp_path / "report.json").exists()


def count_bitsets(monkeypatch) -> list:
    built = []
    bitset = certificates.band_return_bitset

    def counted(witness, beta, n_max):
        built.append(beta)
        return bitset(witness, beta, n_max)

    monkeypatch.setattr(certificates, "band_return_bitset", counted)
    return built


def stage_rows(tmp_path) -> list[dict]:
    with open(tmp_path / "theorem_stage.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("stages", [2, 3])
def test_theorem_stage_builds_one_bitset_per_stage(tmp_path, monkeypatch, stages):
    built = count_bitsets(monkeypatch)
    report = run(tmp_path, "theorem_stage", {"stages": stages, "N": 30000})
    assert report.status == PASS
    assert [row["m"] for row in stage_rows(tmp_path)] == ["1"] * stages
    assert len(built) == stages


@pytest.mark.parametrize("seed", [0, 11])
def test_theorem_stage_passes_the_config_seed_to_the_probe(tmp_path, monkeypatch, seed):
    seen = []
    probe = certificates.sample_band_disjointness

    def recorded(witness, ball, samples, seed):
        seen.append(seed)
        return probe(witness, ball, samples=samples, seed=seed)

    monkeypatch.setattr(certificates, "sample_band_disjointness", recorded)
    report = run(tmp_path, "theorem_stage", {"stages": 1, "N": 1000}, seed=seed)
    assert report.status == PASS
    assert seen == [seed]
    assert report.metrics["witness"]["mc_violations"] == 0


def test_theorem_stage_checks_each_certificate_once(tmp_path, monkeypatch):
    # one check per rotation certificate and one per merge candidate tried;
    # the default stages merge at m = 1 on their first candidate
    checked = []
    verify = certificates.verify_certificate

    def counted(cert):
        checked.append(cert.provenance.get("candidate", cert.provenance["kind"]))
        return verify(cert)

    for module in (certificates, experiments):
        if hasattr(module, "verify_certificate"):
            monkeypatch.setattr(module, "verify_certificate", counted)
    report = run(tmp_path, "theorem_stage", {})
    assert report.status == PASS
    assert report.metrics["stages_completed"] == 3
    assert checked == [
        "rotation", "rotation", "product-rotation", "rotation", "product-rotation"
    ]


def test_theorem_stage_default_frequencies_follow_the_witness(tmp_path, monkeypatch):
    # the k = 1 lists are the two-coordinate table, unchanged
    assert experiments._stage_frequencies(2) == [
        [Fraction(3, 64), Fraction(5, 81)],
        [Fraction(2, 23), Fraction(3, 29)],
        [Fraction(4, 41), Fraction(7, 43)],
    ]
    quick = run(tmp_path / "k1", "theorem_stage", {"stages": 1, "N": 1000})
    assert quick.config["params"]["frequencies"] == [
        ["3/64", "5/81"], ["2/23", "3/29"], ["4/41", "7/43"]
    ]
    # wider witnesses append (p - 1) / (2p), primes from 47 dealt in turn
    assert experiments._stage_frequencies(5)[0] == [
        Fraction(3, 64), Fraction(5, 81), Fraction(23, 47), Fraction(30, 61), Fraction(36, 73)
    ]
    built = count_bitsets(monkeypatch)
    out = tmp_path / "k2"
    report = run(out, "theorem_stage", {"stages": 3, "k": 2, "N": 1000})
    assert report.status in (PASS, INCONCLUSIVE)
    assert report.metrics["witness"]["r"] == 5
    assert report.config["params"]["frequencies"] == [
        [fraction_str(c) for c in coords] for coords in experiments._stage_frequencies(5)
    ]
    # one bitset per stage, plus the divided second factor of each merge at m > 1
    rows = stage_rows(out)
    assert len(built) == len(rows) + sum(row["m"] != "1" for row in rows)


def test_theorem_stage_high_target_is_inconclusive(tmp_path):
    params = {"stages": 1, "delta_prime": "2/5", "N": 30000, "m_max": 8}
    report = run(tmp_path, "theorem_stage", params)
    assert report.status == INCONCLUSIVE
    assert report.metrics["claim_above_delta_prime"] is False


def test_theorem_stage_zero_stages_is_an_empty_report(tmp_path):
    report = run(tmp_path, "theorem_stage", {"stages": 0})
    assert report.status == INCONCLUSIVE
    assert report.metrics["stages_completed"] == 0
    assert report.artifacts == ["report.json"]


def test_theorem_stage_caps_the_stage_count(tmp_path):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "theorem_stage", {"stages": 4})
    assert err.value.stage == "config"


def test_theorem_stage_refuses_large_delta_prime(tmp_path):
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "theorem_stage", {"stages": 1, "delta_prime": "1/2"})
    assert err.value.stage == "precondition"


# ---------------------------------------------------------------------------
# equidistribution


def test_equidistribution_battery(tmp_path):
    report = run(tmp_path, "equidistribution", {"ladder": [1000, 10000]})
    assert report.status == PASS
    assert report.metrics["flagged_periodic"] == ["third-periodic"]
    periodic_line = next(l for l in report.lines if l.startswith("third-periodic"))
    assert "0.577350" in periodic_line  # |limit| = 1/sqrt(3)
    exact_zero_line = next(l for l in report.lines if l.startswith("half-alternating"))
    assert "vanishes" in exact_zero_line


def phase_masses_by_steps(a_num, b_num, modulus):
    """Phase masses stepping x_n = x_{n-1} + a + b (2n - 1): the oracle."""
    counts = {}
    x = 0
    for n in range(1, modulus + 1):
        x = (x + a_num + b_num * (2 * n - 1)) % modulus
        counts[x] = counts.get(x, 0) + 1
    return {t: Fraction(c, modulus) for t, c in counts.items()}


@given(
    a_num=st.integers(-(10**12), 10**12),
    b_num=st.integers(-(10**12), 10**12),
    modulus=st.integers(1, 600),
)
def test_phase_masses_match_the_stepped_orbit(a_num, b_num, modulus):
    # same keys, masses and key order: the order fixes the float limit's bits
    masses = _phase_masses(a_num, b_num, modulus)
    assert list(masses.items()) == list(phase_masses_by_steps(a_num, b_num, modulus).items())
    assert all(type(t) is int for t in masses)


def test_equidistribution_loose_tolerance_is_inconclusive(tmp_path):
    case = {"label": "slow", "alpha": "0", "beta": {"convergent": "sqrt2"}, "m": 1}
    report = run(
        tmp_path, "equidistribution",
        {"ladder": [50], "tolerance": "1/1000000", "cases": [case]},
    )
    assert report.status == INCONCLUSIVE


def test_equidistribution_cost_model_refuses_the_next_size_up_without_running_it(
    tmp_path, monkeypatch
):
    # a case of prime modulus 249989 walks 41 whole periods at ladder [10^7]; one
    # case past the largest accepted count is refused at config, before any
    # ladder is walked, and the trivial character (m = 0) walks nothing
    monkeypatch.setattr(experiments, "_ladder_averages", lambda *args: pytest.fail("ran"))
    per_case = 249989 * 41 * LADDER_TERM_NS
    largest = EQUI_COST_CAP // per_case
    assert largest == 7
    case = {"alpha": "1/249989", "beta": "3/249989"}
    trivial = {"alpha": "1/249989", "beta": "3/249989", "m": 0}
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "equidistribution",
            {"ladder": [10**7], "cases": [trivial] + [case] * (largest + 1)})
    assert err.value.stage == "config"
    assert f"= {(largest + 1) * per_case} ns exceeds the cap {EQUI_COST_CAP} ns" in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_equidistribution_refuses_a_modulus_past_the_doubles_before_any_case_runs(
    tmp_path, monkeypatch
):
    # 2 pi / modulus needs the modulus as a double; the second case's does not
    # fit one, and the first case is not walked either
    monkeypatch.setattr(experiments, "_ladder_averages", lambda *args: pytest.fail("ran"))
    huge = 10**400 + 1
    assert huge > LADDER_MODULUS_CAP
    cases = [{"alpha": "1/7"}, {"beta": f"1/{huge}"}]
    with pytest.raises(ExperimentError) as err:
        run(tmp_path, "equidistribution", {"ladder": [100], "cases": cases})
    assert err.value.stage == "config"
    assert "case 'case-1': phase modulus of 1329 bits exceeds the cap" in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_equidistribution_walks_a_modulus_just_inside_the_doubles(tmp_path):
    report = run(tmp_path, "equidistribution",
                 {"ladder": [100], "cases": [{"beta": f"1/{10**308}"}]})
    (case,) = report.metrics["cases"]
    assert 10**308 <= LADDER_MODULUS_CAP
    assert case["modulus"] is None and case["final_abs"] == pytest.approx(1.0)


def test_equidistribution_cost_model_accepts_the_shipped_config(tmp_path, monkeypatch):
    # the example config runs even under a hundredth of the budget
    monkeypatch.setattr(experiments, "EQUI_COST_CAP", EQUI_COST_CAP // 100)
    with open(REPO / "scripts" / "configs" / "equidistribution.json", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    config.out_dir = str(tmp_path)
    assert run_experiment(config).status == PASS


# ---------------------------------------------------------------------------
# report persistence


def test_report_files_are_written_and_clean(tmp_path):
    report = run(tmp_path, "equidistribution", {"ladder": [500]})
    assert report.artifacts[0] == "report.json"
    for name in report.artifacts:
        assert (tmp_path / name).exists()
    assert not list(tmp_path.glob("*.tmp.*"))

    with open(tmp_path / "report.json") as fh:
        doc = json.load(fh)
    assert doc["experiment"] == "equidistribution"
    assert doc["status"] == report.status
    assert doc["lines"] == report.lines
    assert "tables" not in doc
    assert "wall_clock_seconds" not in doc
    with open(tmp_path / "timings.json") as fh:
        timings = json.load(fh)
    assert timings["wall_clock_seconds"] == report.wall_clock_seconds >= 0
    assert "timings.json" not in report.artifacts

    with open(tmp_path / "equidistribution.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"label", "m", "N", "abs_average"} <= set(rows[0])


def test_same_config_and_seed_reproduce_the_csv(tmp_path):
    params = {
        "q": 256, "delta": "1/10", "mask": {"kind": "random", "density": "2/5"},
        "N": 300,
    }
    a = run(tmp_path / "a", "sqrt_recurrence", params, seed=9)
    b = run(tmp_path / "b", "sqrt_recurrence", params, seed=9)
    assert a.tables == b.tables
    assert (tmp_path / "a" / "sqrt_recurrence.csv").read_bytes() == (
        tmp_path / "b" / "sqrt_recurrence.csv"
    ).read_bytes()

    c = run(tmp_path / "c", "equidistribution", {"ladder": [2000]})
    d = run(tmp_path / "d", "equidistribution", {"ladder": [2000]})
    assert c.tables == d.tables


def test_rerun_into_one_out_dir_reproduces_report_json(tmp_path):
    with open(REPO / "scripts" / "configs" / "theorem_stage_quick.json") as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    config.out_dir = str(tmp_path)
    names = ("report.json", "certificate.json", "shift_base.json", "theorem_stage.csv")
    run_experiment(config)
    first = {name: (tmp_path / name).read_bytes() for name in names}
    run_experiment(config)
    assert {name: (tmp_path / name).read_bytes() for name in names} == first


def test_seed_changes_the_random_mask(tmp_path):
    params = {
        "q": 256, "delta": "1/10", "mask": {"kind": "random", "density": "2/5"},
        "N": 300,
    }
    a = run(tmp_path / "a", "sqrt_recurrence", params, seed=1)
    b = run(tmp_path / "b", "sqrt_recurrence", params, seed=2)
    assert a.tables != b.tables


def test_out_dir_is_created(tmp_path):
    nested = tmp_path / "a" / "b"
    run(nested, "equidistribution", {"ladder": [500]})
    assert (nested / "report.json").exists()


def test_config_echo_survives_json(tmp_path):
    report = run(tmp_path, "sqrt_recurrence", {"q": 256, "N": 200})
    text = json.dumps(report.to_json())
    assert json.loads(text)["config"]["experiment"] == "sqrt_recurrence"
