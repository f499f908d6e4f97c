"""Acceptance battery: one test per headline claim, exact where promised.

Each test states its tolerance and wall-clock budget inline, prints a
single summary line on success, and fails loudly otherwise.  Exact
claims use rational arithmetic end to end; float claims carry the
stated epsilon.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from reclab.bohr import BohrHammingBall, set_enumerate, sqrt_set_enumerate
from reclab.certificates import (
    CertificateRejected,
    build_band_witness,
    combine_certificates,
    rotation_certificate,
    sample_band_disjointness,
    search_min_m,
    verify_certificate,
)
from reclab.experiments import ExperimentConfig, run_experiment
from reclab.harmonic import (
    Character,
    GridFunction,
    annihilating_cylinder,
    cylinder_coefficient_is_structural_zero,
    top_k_characters,
)
from reclab.lattice import SubgroupModel
from reclab.roth import quotient_gap_bound, roth_form
from reclab.torus import ApproxHammingBall, Cylinder, TorusPoint
from reclab.weyl import GridWeylModel, RotationModel, triple_integrals

from oracles import (
    averaging_gap,
    certificate_from_members,
    grid_convolve,
    grid_plancherel_gap,
    quadratic_orbit_decomposition,
    random_grid,
    roth_form_spectral,
    top_k_by_table,
    top_k_outcome,
    verify_measure_identity,
)


def random_point(rng, r, den=32):
    return TorusPoint.of([Fraction(int(rng.integers(0, den)), den) for _ in range(r)])


def random_character(rng, r):
    while True:
        freq = tuple(int(rng.integers(-5, 6)) for _ in range(r))
        if any(freq):
            return Character(freq)


def test_cylinder_annihilation_is_structural():
    """Selected windows kill their target coefficients identically."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    batches = 0
    checks = 0
    while batches < 200:
        r = int(rng.integers(2, 13))
        k = int(rng.integers(1, min(4, r - 1) + 1))
        ball = ApproxHammingBall(random_point(rng, r), k, Fraction(1, 8))
        chars = [random_character(rng, r) for _ in range(int(rng.integers(1, k + 1)))]
        cyl = annihilating_cylinder(ball, chars)
        for chi in chars:
            assert cylinder_coefficient_is_structural_zero(cyl, chi)
            checks += 1
        for _ in range(20):
            moved = Cylinder(
                dim=r, index_set=cyl.index_set,
                center=random_point(rng, r), eta=cyl.eta,
            )
            for chi in chars:
                assert cylinder_coefficient_is_structural_zero(moved, chi)
                checks += 1
        batches += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS annihilation: {batches} batches, {checks} structural zeros, {elapsed:.2f}s")


def test_top_k_residual_bound():
    """After the k largest modes, nothing exceeds (1+k)^(-1/2)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        hat = np.zeros((11, 11), dtype=complex)
        for _ in range(30):
            chi = random_character(rng, 2)
            hat[chi.freq] += complex(rng.standard_normal(), rng.standard_normal())
        scaled = hat / math.sqrt(np.sum(np.abs(hat) ** 2))
        for k in (1, 4, 9, 16):
            _, residual = top_k_characters(scaled, k, 1.0, split=0)
            bound = 1.0 / math.sqrt(1 + k) + 1e-12
            assert residual < bound
            assert top_k_outcome(top_k_characters, scaled, k, 1.0, 0) == top_k_outcome(
                top_k_by_table, scaled, k, 1.0, 0
            )
            worst = max(worst, residual * math.sqrt(1 + k))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS residual: 100 tables x k in 1,4,9,16, worst ratio {worst:.4f}, {elapsed:.2f}s")


def test_plancherel_and_convolution_identities():
    """Energy is preserved and convolution multiplies spectra, to 1e-9."""
    t0 = time.perf_counter()
    seed = 0
    worst = 0.0
    for q in (3, 5, 7):
        for d in (1, 2):
            for _ in range(100):
                f = random_grid(d, q, seed)
                g = random_grid(d, q, seed + 1)
                seed += 2
                worst = max(worst, grid_plancherel_gap(f))
                conv_hat = grid_convolve(f, g).dft().values
                prod = f.dft().values * g.dft().values
                worst = max(worst, float(np.max(np.abs(conv_hat - prod))))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS plancherel/convolution: 600 trials, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_progression_form_spectral_identity():
    """Direct and spectral progression forms agree; even grids refuse."""
    t0 = time.perf_counter()
    seed = 1000
    worst = 0.0
    for q in (3, 5, 7, 9):
        for d in (1, 2):
            for _ in range(100):
                f0 = random_grid(d, q, seed)
                f1 = random_grid(d, q, seed + 1)
                f2 = random_grid(d, q, seed + 2)
                seed += 3
                direct = roth_form(f0, f1, f2)
                spectral = roth_form_spectral(f0, f1, f2)
                worst = max(worst, abs(direct - spectral))
    assert worst < 1e-9
    with pytest.raises(ValueError):
        roth_form_spectral(random_grid(1, 4, 1), random_grid(1, 4, 2), random_grid(1, 4, 3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS progression spectral: 800 trials, worst gap {worst:.2e}, even q rejected, {elapsed:.2f}s")


def test_quotient_projection_gap_bound():
    """|I - I_W| stays under kappa * |f0| * |f1| on the 5x5 grid."""
    t0 = time.perf_counter()
    subgroup = SubgroupModel(5, (0, 1))
    rng = np.random.default_rng(404)
    worst_slack = math.inf
    for _ in range(200):
        f0, f1, f2 = (
            GridFunction(2, 5, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
            for _ in range(3)
        )
        out = quotient_gap_bound(f0, f1, f2, subgroup)
        assert out["gap"] <= out["bound"] + 1e-9
        expected = out["kappa"] * math.sqrt(f0.norm_sq()) * math.sqrt(f1.norm_sq())
        assert abs(out["bound"] - expected) < 1e-9
        worst_slack = min(worst_slack, out["bound"] - out["gap"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS quotient gap: 200 trials, smallest slack {worst_slack:.4f}, {elapsed:.2f}s")


def test_orbit_average_equals_coset_decomposition_exactly():
    """Full-period quadratic orbit averages match the weighted cosets."""
    t0 = time.perf_counter()
    regimes = [
        ("equal-parts", 1995, [4], [4]),
        ("jointly-generic", 1995, [2], [3]),
        ("torsion", 35, [7], [5]),
        ("pure-rotation", 12, [1, 3], [0, 0]),
        ("period-doubling", 9, [2], [3]),
    ]
    rng = np.random.default_rng(505)
    for label, q, c, u in regimes:
        dec = quadratic_orbit_decomposition(c, u, q)
        assert verify_measure_identity(dec), label
        assert sum(dec.weights, Fraction(0)) == 1

        values = {}

        def fn(x):
            if x not in values:
                values[x] = Fraction(int(rng.integers(-60, 61)), 7)
            return values[x]

        gap = averaging_gap(dec, fn)
        assert isinstance(gap, Fraction), label
        assert gap == 0, label
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS orbit decomposition: {len(regimes)} regimes exact to zero, {elapsed:.2f}s")


def exact_battery_bound_holds(report, k):
    rows = report.tables["battery.csv"].strip().splitlines()
    header = rows[0].split(",")
    gap_i, norm_i = header.index("gap"), header.index("norm_sq")
    count = 0
    for row in rows[1:]:
        fields = row.split(",")
        gap, norm_sq = Fraction(fields[gap_i]), Fraction(fields[norm_i])
        assert gap * gap * k <= 4 * norm_sq * norm_sq
        count += 1
    return count


def test_weighted_average_inequality_desk_check(tmp_path):
    """Window-weighted averages stay within 2 k^(-1/2) |f|^2 of the form."""
    t0 = time.perf_counter()
    grids = {
        4: {"q": 135, "alpha": "2/135", "r": 5, "k": 4, "eps": "1/8",
            "t0": "1/7", "battery": 10},
        9: {"q": 9, "alpha": "2/9", "r": 10, "k": 9, "eps": "1/8", "t0": "1/7",
            "beta": ["1/7", "2/7", "3/7", "4/7", "5/7",
                     "1/11", "2/11", "3/11", "4/11", "5/11"],
            "battery": 10},
    }
    checked = 0
    for k, params in grids.items():
        config = ExperimentConfig(
            experiment="main_inequality", params=params,
            out_dir=str(tmp_path / f"grid_{k}"), seed=3,
        )
        report = run_experiment(config)
        assert report.status == "PASS"
        assert report.metrics["arithmetic"] == "exact"
        assert report.metrics["all_within_bound"] is True
        assert report.metrics["phase_modulus"] <= 2000
        checked += exact_battery_bound_holds(report, k)

    trig = ExperimentConfig(
        experiment="main_inequality",
        params={"model": "trig", "r": 5, "k": 4, "eps": "1/8",
                "battery": 2, "N": 1_000_000, "modes": 5, "tolerance": "1/1000"},
        out_dir=str(tmp_path / "trig"), seed=3,
    )
    report = run_experiment(trig)
    assert report.status == "PASS"
    margin = report.metrics["worst_margin"]
    assert margin > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS desk check: {checked} exact rows at k=4,9; horizon-1e6 margin +{margin:.3f}, {elapsed:.1f}s")


def test_certificate_suite():
    """Parity certificate, pair merging at m=3, and a verified rotation run."""
    t0 = time.perf_counter()
    evens = certificate_from_members(2000, range(0, 2000, 2), (1,), 1, Fraction(1, 2))
    assert verify_certificate(evens).ok

    m, merged = search_min_m(evens, evens, 5)
    assert m == 3
    check = verify_certificate(merged)
    assert check.ok and check.density >= Fraction(1, 2)
    with pytest.raises(CertificateRejected):
        combine_certificates(evens, evens, 2)

    witness, ball, proof = build_band_witness(1, Fraction(1, 8))
    assert witness.r <= 6
    freq = TorusPoint.of([Fraction(3, 64), Fraction(5, 81)])
    shifts = set_enumerate(BohrHammingBall(freq, ball), 100_000).elems
    cert = rotation_certificate(witness, ball, freq, 100_000, shifts)
    verdict = verify_certificate(cert)
    assert verdict.ok
    assert verdict.violating_shift is None
    assert verdict.density == cert.density_claim
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS certificates: evens + m=3 merge + rotation run of size {verdict.size}, {elapsed:.1f}s")


def test_band_witness_meets_measure_targets():
    """The builder clears eta with exact tails and empty overlap probes."""
    t0 = time.perf_counter()
    summary = []
    for k in (1, 2):
        for eta in (Fraction(1, 4), Fraction(2, 5)):
            witness, ball, proof = build_band_witness(k, eta)
            assert witness.measure() > eta
            assert witness.r > 2 * witness.t + k
            assert proof["mc_violations"] == 0
            hits = sample_band_disjointness(witness, ball, samples=100_000, seed=11)
            assert hits == 0
            summary.append(f"k={k},eta={eta}:r={witness.r}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS band witness: {'; '.join(summary)}, all probes empty, {elapsed:.1f}s")


def test_sqrt_return_set_recurrence_positivity():
    """Square-root return times produce an exactly positive triple overlap."""
    t0 = time.perf_counter()
    ball = ApproxHammingBall(TorusPoint.of(["0", "0"]), 1, Fraction(1, 16))
    freq = TorusPoint.of([Fraction(3, 64), Fraction(5, 81)])
    elems = sqrt_set_enumerate(BohrHammingBall(freq, ball), 2000).elems
    assert elems

    results = []
    rotation_mask = np.zeros(2048, dtype=np.int64)
    rotation_mask[:820] = 1  # measure 205/512, above 3/10
    weyl_mask = np.zeros((64, 64), dtype=np.int64)
    weyl_mask[:26] = 1  # measure 13/32, above 3/10
    models = [
        ("rotation", RotationModel(2048, (1,)), rotation_mask),
        ("weyl", GridWeylModel(64, (3,)), weyl_mask),
    ]
    for label, model, mask in models:
        assert Fraction(int(mask.sum()), mask.size) >= Fraction(3, 10)
        values = triple_integrals(model, mask, elems)
        assert all(isinstance(v, Fraction) for v in values)
        best = max(values)
        assert best > 0
        results.append(f"{label}:{best}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS recurrence positivity: {'; '.join(results)}, {elapsed:.1f}s")
