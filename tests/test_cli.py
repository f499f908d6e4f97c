"""Tests for the command-line entry points."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reclab.bohr import BohrHammingBall, sqrt_set_enumerate
from reclab.certificates import certificate_text
from reclab.cli import (
    ROTH_COST_CAP,
    ROTH_TRIALS_CAP,
    WEYL_TABLE_CAP,
    main_bohr,
    main_cert,
    main_lab,
    main_roth,
    main_weyl,
)
from reclab.experiments import PHASE_CAP, TRIG_HORIZON_CAP, TRIG_MODES_CAP
from reclab.torus import ApproxHammingBall, TorusPoint

from oracles import certificate_from_members


def evens_path(tmp_path, name="evens.json", horizon=600):
    cert = certificate_from_members(
        horizon, range(0, horizon, 2), (1,), 1, Fraction(1, 2)
    )
    path = tmp_path / name
    path.write_text(certificate_text(cert))
    return str(path)


# ---------------------------------------------------------------------------
# lab


def test_lab_lists_all_experiments(capsys):
    assert main_lab(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("equidistribution", "main_inequality", "sqrt_recurrence", "theorem_stage"):
        assert name in out


def test_lab_runs_a_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "equidistribution",
        "params": {"ladder": [1000]},
        "out_dir": str(tmp_path / "out"),
    }))
    assert main_lab(["run", str(config)]) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_lab_missing_config_file(tmp_path, capsys):
    assert main_lab(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_lab_bad_experiment_id(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "nope"}))
    assert main_lab(["run", str(config)]) == 2
    assert "[config]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"workers": 2}, "unknown config keys: ['workers']"),
        ({"seed": "abc"}, "seed"),
        ({"out_dir": 7}, "'out_dir' must be a string"),
        ({"experiment": 7}, "'experiment' must be a string"),
        (
            {
                "experiment": "main_inequality",
                "params": {
                    "model": "trig", "alpha": "2/135", "q": 7, "t0": "1/3", "N": 1000,
                    "battery": 1,
                },
            },
            "unknown parameters: ['q', 't0']",
        ),
        (
            {"experiment": "theorem_stage", "params": {"frequencies": 5}},
            "frequencies: expected a nonempty list, got 5",
        ),
        (
            {"experiment": "theorem_stage", "params": {"contrast_q": "abc"}},
            "contrast_q: expected an integer, got 'abc'",
        ),
        (
            {"experiment": "theorem_stage", "params": {"contrast_density": "-3"}},
            "contrast_density: -3/1 is outside (0, 1]",
        ),
        (
            {"experiment": "sqrt_recurrence", "params": {"eps": "3"}},
            "eps: 3/1 is outside (0, 1/2]",
        ),
        ({"params": {"cases": 5}}, "cases: expected a nonempty list, got 5"),
        ({"params": {"cases": [{"label": 5}]}}, "'cases[0].label' must be a string, got 5"),
        (
            {
                "experiment": "sqrt_recurrence",
                "params": {"model": "weyl", "q": 2048, "step": [1, 1, 1]},
            },
            "phase space of 2048^6 cells exceeds the cap 4194304",
        ),
        (
            {
                "experiment": "main_inequality",
                "params": {"model": "trig", "N": 10**8, "battery": 16, "modes": 24},
            },
            "= 100000000 * 16 * 2212 = 3539200000000 ns exceeds the cap 60000000000 ns",
        ),
        (
            {"params": {"ladder": [100], "cases": [{"label": "huge", "beta": f"1/{10**400 + 1}"}]}},
            "case 'huge': phase modulus of 1329 bits exceeds the cap 1.797693e+308",
        ),
        (
            {
                "experiment": "main_inequality",
                "params": {"model": "grid", "q": 2047, "alpha": "2/2047", "battery": 64},
            },
            "= 64 * 1024 * 8380418 * 1 = 549219074048 ns exceeds the cap 60000000000 ns",
        ),
    ],
)
def test_lab_config_errors_are_exit_2(tmp_path, monkeypatch, capsys, extra, message):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "equidistribution",
        "params": {"ladder": [1000]},
        "out_dir": str(tmp_path / "out"),
        **extra,
    }))
    assert main_lab(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "[config]" in err and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_lab_grid_config_refusal_is_exit_2(tmp_path, capsys):
    # an even common phase denominator: the joining's offsets cannot halve
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "main_inequality",
        "params": {"t0": "1/2", "battery": 1},
        "out_dir": str(tmp_path / "out"),
    }))
    assert main_lab(["run", str(config)]) == 2
    assert "[config] common phase denominator 1890 is even" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_lab_pipeline_error_is_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "sqrt_recurrence",
        "params": {"q": 64, "delta": "9/10", "N": 50},
        "out_dir": str(tmp_path / "out"),
    }))
    assert main_lab(["run", str(config)]) == 2
    assert "[precondition]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bohr


def test_bohr_enum_matches_library(tmp_path, capsys):
    args = ["enum", "--r", "2", "--k", "1", "--eps", "1/16",
            "--freq", "3/64", "5/81", "--N", "400", "--sqrt"]
    assert main_bohr(args) == 0
    doc = json.loads(capsys.readouterr().out)
    members = []
    for start, length in doc["elems"]:
        members.extend(range(start, start + length))

    ball = ApproxHammingBall(TorusPoint.of(["0", "0"]), 1, Fraction(1, 16))
    freq = TorusPoint.of([Fraction(3, 64), Fraction(5, 81)])
    expected = sqrt_set_enumerate(BohrHammingBall(freq, ball), 400)
    assert members == list(expected.elems)
    assert Fraction(doc["density"]) == expected.density


def test_bohr_enum_writes_out_file(tmp_path):
    out = tmp_path / "set.json"
    args = ["enum", "--r", "1", "--k", "0", "--eps", "1/8",
            "--freq", "1/7", "--N", "100", "--out", str(out)]
    assert main_bohr(args) == 0
    assert json.loads(out.read_text())["N"] == 100


def test_bohr_enum_arity_mismatch():
    with pytest.raises(SystemExit) as err:
        main_bohr(["enum", "--r", "3", "--k", "1", "--eps", "1/8",
                   "--freq", "1/7", "--N", "10"])
    assert err.value.code == 2


def unreachable(*args, **kwargs):
    raise AssertionError("work started for an out-of-range size")


@pytest.mark.parametrize("sqrt", [[], ["--sqrt"]])
@pytest.mark.parametrize("n", ["0", "1000001"])
def test_bohr_enum_horizon_outside_the_sqrt_recurrence_bounds_is_exit_2(
    tmp_path, monkeypatch, capsys, n, sqrt
):
    monkeypatch.setattr("reclab.cli.set_enumerate", unreachable)
    monkeypatch.setattr("reclab.cli.sqrt_set_enumerate", unreachable)
    out = tmp_path / "set.json"
    args = ["enum", "--r", "1", "--k", "0", "--eps", "1/8",
            "--freq", "1/7", "--N", n, "--out", str(out)] + sqrt
    assert main_bohr(args) == 2
    assert f"--N: {n} is outside [1, 1000000]" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# weyl


def poly_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"entries": [
        {"freq": [0, 0], "coef": [1.0, 0.0]},
        {"freq": [2, 1], "coef": [0.3, -0.2]},
        {"freq": [-2, -1], "coef": [0.3, 0.2]},
    ]}))
    return str(path)


def test_weyl_avg_trace_csv(tmp_path, capsys):
    args = ["avg", "--d", "1", "--alpha", "sqrt2", "--freq-beta", "sqrt3", "golden",
            "--r", "2", "--k", "1", "--eta", "1/8", "--ell", "1",
            "--N", "2000", "--f", poly_file(tmp_path)]
    assert main_weyl(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,value,closed_form,gap"
    last = lines[-1].split(",")
    assert int(last[0]) == 2000
    # Hermitian pair means a real average; DC term dominates in the limit
    assert abs(float(last[1]) - 1.0) < 0.5


def test_weyl_avg_bad_poly_file(tmp_path, capsys):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps({"entries": [{"freq": [1]}]}))
    args = ["avg", "--d", "1", "--alpha", "1/7", "--freq-beta", "1/5",
            "--r", "1", "--k", "0", "--eta", "1/8", "--N", "100", "--f", str(bad)]
    assert main_weyl(args) == 2
    assert "freq must have 2 integers" in capsys.readouterr().err


WEYL_SMALL = ["avg", "--d", "1", "--alpha", "1/7", "--freq-beta", "1/5",
              "--r", "1", "--k", "0", "--eta", "1/8", "--N", "50"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"entries": [1]}', "entries[0]: must be an object"),
        ('{"entries": [{"freq": [1, 0], "coef": 5}]}', "entries[0]: coef must be two"),
        ('{"entries": [{"freq": [1, 0], "coef": ["x", 0]}]}', "entries[0]: coef must be two"),
        ('{"entries": [{"freq": [1, 0], "coef": [1.0]}]}', "entries[0]: coef must be two"),
        ('{"entries": [{"freq": [1, 0], "coef": [true, 0]}]}', "entries[0]: coef must be two"),
        ('{"entries": [{"freq": [1, 0], "coef": [NaN, 0]}]}', "entries[0]: coef must be two"),
        ('{"entries": [{"freq": [0, 0]}, {"freq": [1.5, 0]}]}', "entries[1]: freq must have 2"),
        ('{"entries": [{"freq": [1.0, 0]}]}', "entries[0]: freq must have 2"),
        ('{"entries": [{"freq": [true, 0]}]}', "entries[0]: freq must have 2"),
        ('{"entries": [{"freq": [1, 0], "coeff": [1, 0]}]}', "entries[0]: unknown keys"),
        ('[{"freq": [1, 0]}]', "exactly the key 'entries'"),
        ('{"entries": [], "extra": 1}', "exactly the key 'entries'"),
        ('{"entries": {"freq": [1, 0]}}', "needs an 'entries' list"),
    ],
    ids=[
        "entry-not-object", "coef-scalar", "coef-string", "coef-short", "coef-bool",
        "coef-nan", "freq-float", "freq-integral-float", "freq-bool", "unknown-key",
        "doc-not-object", "doc-extra-key", "entries-not-list",
    ],
)
def test_weyl_avg_malformed_poly_file_is_exit_2(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.setattr("reclab.cli.weighted_average", unreachable)
    bad = tmp_path / "f.json"
    bad.write_text(text)
    assert main_weyl(WEYL_SMALL + ["--f", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_weyl_avg_poly_file_entry_cap(tmp_path, monkeypatch, capsys):
    # the cap is the largest main_inequality trig table: 1 + 2 * TRIG_MODES_CAP
    assert WEYL_TABLE_CAP == 1 + 2 * TRIG_MODES_CAP == 49
    entries = [{"freq": [i, 1], "coef": [0.01, 0]} for i in range(WEYL_TABLE_CAP)]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"entries": entries}))
    assert main_weyl(WEYL_SMALL + ["--f", str(path)]) == 0
    assert capsys.readouterr().out.startswith("N,value,closed_form,gap\n")
    monkeypatch.setattr("reclab.cli.weighted_average", unreachable)
    path.write_text(json.dumps({"entries": entries + [{"freq": [0, 0]}]}))
    assert main_weyl(WEYL_SMALL + ["--f", str(path)]) == 2
    assert f"50 entries exceed the cap {WEYL_TABLE_CAP}" in capsys.readouterr().err


def test_weyl_avg_poly_file_defaults_and_sums(tmp_path, capsys):
    # a missing coef is 1, repeated frequencies add up, integer coefs are numbers
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"entries": [
        {"freq": [0, 0]}, {"freq": [1, 0], "coef": [1, 0]}, {"freq": [1, 0], "coef": [-1, 0]},
    ]}))
    assert main_weyl(WEYL_SMALL + ["--f", str(path)]) == 0
    summed = capsys.readouterr().out
    path.write_text(json.dumps({"entries": [{"freq": [0, 0], "coef": [1.0, 0.0]}]}))
    assert main_weyl(WEYL_SMALL + ["--f", str(path)]) == 0
    assert capsys.readouterr().out == summed


# --d must equal the number of --alpha values, so the command line bounds it
@pytest.mark.parametrize(
    "d, alpha, n, message",
    [
        pytest.param("1", ["1/7"], 0, f"--N: 0 is outside [1, {TRIG_HORIZON_CAP}]", id="0"),
        pytest.param("1", ["1/7"], TRIG_HORIZON_CAP + 1,
                     f"--N: {TRIG_HORIZON_CAP + 1} is outside [1, {TRIG_HORIZON_CAP}]",
                     id=str(TRIG_HORIZON_CAP + 1)),
        pytest.param("0", ["1/7"], 50, "expected 0 alpha coordinates, got 1", id="d-0"),
        pytest.param("2", ["1/7"], 50, "expected 2 alpha coordinates, got 1", id="d-2-one-alpha"),
    ],
)
def test_weyl_avg_horizon_above_the_period_cap_is_exit_2(
    tmp_path, monkeypatch, capsys, d, alpha, n, message
):
    monkeypatch.setattr("reclab.cli.weighted_average", unreachable)
    args = ["avg", "--d", d, "--alpha", *alpha, "--freq-beta", "1/5",
            "--r", "1", "--k", "0", "--eta", "1/8", "--N", str(n), "--f", poly_file(tmp_path)]
    with pytest.raises(SystemExit) as err:
        main_weyl(args)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_weyl_avg_non_hermitian_table_writes_complex_cells(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"entries": [
        {"freq": [0, 0], "coef": [0.5, 0.5]}, {"freq": [1, 0], "coef": [0, 1]},
    ]}))
    assert main_weyl(WEYL_SMALL + ["--f", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.out.strip().splitlines()
    assert lines[0] == "N,value,closed_form,gap"
    # four cells a row: a complex cell holds no comma
    assert all(len(line.split(",")) == 4 for line in lines)
    assert lines[-1].split(",")[:3] == ["50", "(-0.2+0.2j)", "(-0.25+0.25j)"]


# ---------------------------------------------------------------------------
# roth


def test_roth_check_trials_hold(tmp_path, capsys):
    assert main_roth(["check", "--q", "5", "--d", "2", "--trials", "6", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "trial,I,I_W,gap,kappa,bound,ok"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "True"
        assert float(fields[3]) <= float(fields[5]) + 1e-9


def test_roth_check_dimension_one_uses_the_mean(capsys):
    assert main_roth(["check", "--q", "7", "--d", "1", "--trials", "3"]) == 0


def test_roth_check_rejects_even_q():
    with pytest.raises(SystemExit) as err:
        main_roth(["check", "--q", "4", "--d", "1"])
    assert err.value.code == 2


# 2049^2 and 3^14 are the first odd-q grids past the cap; 10^18 would never finish q^d
@pytest.mark.parametrize("q, d", [(2049, 2), (3, 14), (3, 10**18)])
def test_roth_check_phase_space_above_the_cap_is_exit_2(monkeypatch, capsys, q, d):
    assert q ** min(d, 14) > PHASE_CAP
    monkeypatch.setattr("reclab.cli.SubgroupModel", None)
    monkeypatch.setattr("reclab.cli.quotient_gap_bound", unreachable)
    with pytest.raises(SystemExit) as err:
        main_roth(["check", "--q", str(q), "--d", str(d)])
    assert err.value.code == 2
    assert f"q^d = {q}^{d} cells exceed the cap {PHASE_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -1, ROTH_TRIALS_CAP + 1])
def test_roth_check_trials_outside_the_bounds_is_exit_2(monkeypatch, capsys, trials):
    monkeypatch.setattr("reclab.cli.SubgroupModel", None)
    monkeypatch.setattr("reclab.cli.quotient_gap_bound", unreachable)
    with pytest.raises(SystemExit) as err:
        main_roth(["check", "--q", "3", "--d", "1", "--trials", str(trials)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"--trials: {trials} is outside [1, {ROTH_TRIALS_CAP}]" in captured.err
    assert captured.out == ""


# the largest accepted cost at three grid shapes and the next size up at each,
# refused without a trial; a one-trial (135, 2), about 3.6 s, is accepted
@pytest.mark.parametrize(
    "q, d, trials, accepted",
    [(3, 5, 1895, True), (3, 5, 1896, False), (3, 5, 2904, False), (13093, 1, 1, True),
     (54767, 1, 1, True), (54769, 1, 1, False), (113, 2, 1, True), (135, 2, 1, True),
     (231, 2, 1, True), (233, 2, 1, False)],
)
def test_roth_check_cost_cap(monkeypatch, capsys, q, d, trials, accepted):
    # per trial: q^(2d) products, and q^(d-1) outer shifts of 2^14 cells plus 10 q^d
    per_trial = q ** (2 * d) + q ** (d - 1) * (2**14 + 10 * q**d)
    cost = per_trial * trials
    assert (cost <= ROTH_COST_CAP) == accepted
    calls = []

    def stub(*args):
        calls.append(1)
        return {"form": 0j, "projected_form": 0j, "gap": 0.0, "kappa": 0.0, "bound": 0.0}

    monkeypatch.setattr("reclab.cli.quotient_gap_bound", stub if accepted else unreachable)
    args = ["check", "--q", str(q), "--d", str(d), "--trials", str(trials)]
    if accepted:
        assert main_roth(args) == 0
        assert len(calls) == trials
        return
    with pytest.raises(SystemExit) as err:
        main_roth(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert (
        f"cost trials * (q^(2d) + q^(d-1) * (16384 + 10 q^d)) = {trials} * {per_trial} = "
        f"{cost} cells exceeds the cap {ROTH_COST_CAP}"
    ) in captured.err
    assert captured.out == ""


def test_roth_check_help_states_the_trials_cap(capsys):
    with pytest.raises(SystemExit):
        main_roth(["check", "--help"])
    assert f"1 to {ROTH_TRIALS_CAP}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# cert


def test_cert_verify_roundtrip(tmp_path, capsys):
    assert main_cert(["verify", evens_path(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ok: True" in out
    assert "density: 1/2" in out


def test_cert_verify_rejects_inflated_claim(tmp_path, capsys):
    path = tmp_path / "bad.json"
    with open(evens_path(tmp_path)) as fh:
        doc = json.load(fh)
    doc["deltaPrime"] = "3/5"
    path.write_text(json.dumps(doc))
    assert main_cert(["verify", str(path)]) == 1
    assert "ok: False" in capsys.readouterr().out


def test_cert_search_m_finds_three(tmp_path, capsys):
    evens = evens_path(tmp_path)
    out = tmp_path / "merged.json"
    assert main_cert(["search-m", evens, evens, "--m-max", "5", "--out", str(out)]) == 0
    assert "m: 3" in capsys.readouterr().out
    assert main_cert(["verify", str(out)]) == 0


def test_cert_combine_rejects_bad_dilation(tmp_path, capsys):
    evens = evens_path(tmp_path)
    out = tmp_path / "merged.json"
    assert main_cert(["combine", evens, evens, "--m", "2", "--out", str(out)]) == 1
    assert not out.exists()


def unverified_path(tmp_path):
    # the evens with an odd member: 4, 5 is a progression of gap 1
    cert = certificate_from_members(600, [*range(0, 600, 2), 5], (1,), 1, Fraction(1, 2))
    path = tmp_path / "broken.json"
    path.write_text(certificate_text(cert))
    return str(path)


@pytest.mark.parametrize(
    "args, message",
    [
        (["combine", "{good}", "{bad}", "--m", "3"], "{bad} does not verify; refuse to combine"),
        (["combine", "{bad}", "{good}", "--m", "3"], "{bad} does not verify; refuse to combine"),
        (["search-m", "{good}", "{bad}", "--m-max", "5"],
         "{bad} does not verify; refuse to combine"),
        (["square", "{bad}"], "{bad} does not verify; refuse to square"),
    ],
    ids=["combine-second", "combine-first", "search-m", "square"],
)
def test_cert_refuses_an_input_that_does_not_verify(tmp_path, capsys, args, message):
    paths = {"good": evens_path(tmp_path), "bad": unverified_path(tmp_path)}
    out = tmp_path / "out.json"
    assert main_cert([a.format(**paths) for a in args] + ["--out", str(out)]) == 2
    assert message.format(**paths) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.json", "evens.json"]


def test_cert_square_evens(tmp_path, capsys):
    out = tmp_path / "squared.json"
    assert main_cert(["square", evens_path(tmp_path), "--out", str(out)]) == 0
    assert main_cert(["verify", str(out)]) == 0


def test_cert_build_then_verify(tmp_path, capsys):
    out = tmp_path / "rot.json"
    args = ["build", "--k", "1", "--eta", "1/8", "--freq", "3/64", "5/81",
            "--N", "4000", "--out", str(out)]
    assert main_cert(args) == 0
    text = capsys.readouterr().out
    assert "witness: r=2" in text
    assert main_cert(["verify", str(out)]) == 0


def test_cert_build_arity_mismatch(tmp_path, capsys):
    args = ["build", "--k", "1", "--eta", "1/8", "--freq", "1/7",
            "--N", "1000", "--out", str(tmp_path / "x.json")]
    assert main_cert(args) == 2
    assert "frequency coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "99", "10000001"])
def test_cert_build_horizon_outside_the_stage_bounds_is_exit_2(tmp_path, monkeypatch, capsys, n):
    def unreachable(*args, **kwargs):
        raise AssertionError("the witness was built for an out-of-range horizon")

    monkeypatch.setattr("reclab.cli.build_band_witness", unreachable)
    out = tmp_path / "x.json"
    args = ["build", "--k", "1", "--eta", "1/8", "--freq", "3/64", "5/81",
            "--N", n, "--out", str(out)]
    assert main_cert(args) == 2
    assert f"--N: {n} is outside [100, 10000000]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cert_missing_file_is_exit_2(tmp_path, capsys):
    assert main_cert(["verify", str(tmp_path / "ghost.json")]) == 2


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def setting(key, value):
    return lambda doc: {**doc, key: value}


@pytest.mark.parametrize(
    "malform, message",
    [
        (lambda doc: [doc], "a certificate is a JSON object, got list"),
        (lambda doc: "cert", "a certificate is a JSON object, got str"),
        (without("S"), "certificate has no 'S'"),
        (without("N"), "certificate has no 'N'"),
        (without("k"), "certificate has no 'k'"),
        (without("payload"), "certificate has no 'payload'"),
        (without("deltaPrime"), "certificate has no 'deltaPrime'"),
        (setting("S", None), "certificate 'S' must be a JSON array, got None"),
        (setting("S", 1), "certificate 'S' must be a JSON array, got 1"),
        (setting("S", [1.0]), "certificate 'S' must hold JSON integers, got 1.0"),
        (setting("S", [True]), "certificate 'S' must hold JSON integers, got True"),
        (setting("S", ["1"]), "certificate 'S' must hold JSON integers, got '1'"),
        (setting("N", 600.0), "certificate 'N' must be a JSON integer, got 600.0"),
        (setting("N", True), "certificate 'N' must be a JSON integer, got True"),
        (setting("N", "600"), "certificate 'N' must be a JSON integer, got '600'"),
        (setting("k", 1.0), "certificate 'k' must be a JSON integer, got 1.0"),
        (setting("k", True), "certificate 'k' must be a JSON integer, got True"),
        (setting("k", "1"), "certificate 'k' must be a JSON integer, got '1'"),
        (setting("deltaPrime", 0.5), "certificate 'deltaPrime' must be a JSON string, got 0.5"),
        (setting("payload", 0), "certificate 'payload' must be a JSON string, got 0"),
        (setting("payload", "AAAA!AAA"), "certificate 'payload' is not base64"),
        (setting("provenance", []), "certificate 'provenance' must be a JSON object, got []"),
        (setting("version", True), "unsupported certificate format version: True"),
    ],
    ids=[
        "doc-list", "doc-string", "no-S", "no-N", "no-k", "no-payload", "no-deltaPrime",
        "S-null", "S-int", "S-float", "S-bool", "S-string", "N-float", "N-bool", "N-string",
        "k-float", "k-bool", "k-string", "deltaPrime-float", "payload-int", "payload-not-base64",
        "provenance-list", "version-bool",
    ],
)
def test_cert_verify_malformed_document_is_exit_2(tmp_path, capsys, malform, message):
    with open(evens_path(tmp_path)) as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform(doc)))
    assert main_cert(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# bad values on any verb


def exit_code(main, args):
    """What an entry point exits with, whether it returns or argparse raises."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


BOHR_ENUM = ["enum", "--r", "2", "--freq", "3/64", "5/81", "--N", "50"]
WEYL_AVG = ["avg", "--d", "1", "--freq-beta", "1/5", "--r", "1", "--k", "0", "--N", "50"]


@pytest.mark.parametrize(
    "main, args, message",
    [
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "2", "--eps", "1/8"],
                     "need 0 <= k < r, got k=2, r=2", id="bohr-k-equals-r"),
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "-1", "--eps", "1/8"],
                     "need 0 <= k < r, got k=-1, r=2", id="bohr-k-negative"),
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "1", "--eps", "0"],
                     "eps must lie in (0, 1/2], got 0", id="bohr-eps-0"),
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "1", "--eps", "3/4"],
                     "eps must lie in (0, 1/2], got 3/4", id="bohr-eps-three-quarters"),
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "1", "--eps", "1/8", "--center", "1/0", "0"],
                     "argument --center: not a rational: '1/0'", id="bohr-center-zero-denominator"),
        pytest.param(main_weyl, WEYL_AVG + ["--alpha", "1/7", "--eta", "0"],
                     "--eta: 0 is outside (0, 1/2]", id="weyl-eta-0"),
        pytest.param(main_weyl, WEYL_AVG + ["--alpha", "1/7", "--eta", "3/4"],
                     "--eta: 3/4 is outside (0, 1/2]", id="weyl-eta-three-quarters"),
        pytest.param(main_weyl, WEYL_AVG + ["--alpha", "1/0", "--eta", "1/8"],
                     "argument --alpha: not a rational: '1/0'", id="weyl-alpha-zero-denominator"),
        pytest.param(main_weyl, WEYL_AVG + ["--alpha", "1/7", "--eta", "1/8", "--ell", "0"],
                     "--ell: 0 is outside [1, inf)", id="weyl-ell-0"),
        pytest.param(main_roth, ["check", "--q", "3", "--d", "1", "--seed", "-1"],
                     "--seed: -1 is outside [0, inf)", id="roth-seed-negative"),
    ],
)
def test_bad_value_is_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys, main, args, message):
    for name in ("set_enumerate", "sqrt_set_enumerate", "weighted_average", "quotient_gap_bound"):
        monkeypatch.setattr(f"reclab.cli.{name}", unreachable)
    if main is main_weyl:
        args = args + ["--f", poly_file(tmp_path)]
    assert exit_code(main, args) == 2
    captured = capsys.readouterr()
    last = captured.err.strip().splitlines()[-1]
    assert "error: " in last and message in last
    assert captured.out == ""


# ---------------------------------------------------------------------------
# outputs that cannot be written


def assert_one_error_line(captured):
    """Exit 2 leaves one `error: ...` line on stderr, no traceback and no stdout."""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""


def test_lab_run_into_an_unwritable_out_dir_is_exit_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "equidistribution",
        "params": {"ladder": [1000]},
        "out_dir": str(tmp_path / "afile" / "sub"),
    }))
    assert main_lab(["run", str(config)]) == 2
    assert_one_error_line(capsys.readouterr())


@pytest.mark.parametrize(
    "main, args",
    [
        pytest.param(main_bohr, BOHR_ENUM + ["--k", "1", "--eps", "1/8"], id="bohr-enum"),
        pytest.param(main_weyl, WEYL_AVG + ["--alpha", "1/7", "--eta", "1/8"], id="weyl-avg"),
        pytest.param(main_roth, ["check", "--q", "5", "--d", "1", "--trials", "2"], id="roth-check"),
    ],
)
def test_an_unwritable_out_file_is_exit_2(tmp_path, capsys, main, args):
    (tmp_path / "afile").write_text("")
    if main is main_weyl:
        args = args + ["--f", poly_file(tmp_path)]
    assert exit_code(main, args + ["--out", str(tmp_path / "afile" / "x")]) == 2
    assert_one_error_line(capsys.readouterr())
    assert (tmp_path / "afile").read_text() == ""


# ---------------------------------------------------------------------------
# installed entry points


def test_console_scripts_respond():
    result = subprocess.run(
        [sys.executable, "-m", "reclab.cli"], capture_output=True, text=True,
    )
    assert result.returncode == 2  # argparse usage error: no verb given


# ---------------------------------------------------------------------------
# batch driver


def test_run_all_reports_a_bad_config_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_all", Path(__file__).parents[1] / "scripts" / "run_all.py"
    )
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    configs = tmp_path / "configs"
    configs.mkdir()
    good = {"experiment": "equidistribution", "params": {"ladder": [1000]}}
    (configs / "a_bad.json").write_text(json.dumps(dict(good, seed="abc")))
    (configs / "b_good.json").write_text(json.dumps(good))
    monkeypatch.setattr(run_all, "CONFIG_DIR", configs)
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--root", str(tmp_path / "runs")])
    assert run_all.main() == 1
    out = capsys.readouterr().out
    assert "a_bad   ERROR [config] seed: expected an integer" in out
    assert "b_good  PASS" in out
    assert (tmp_path / "runs" / "b_good" / "report.json").exists()
