"""Joining models: extraction against the exact decomposition, the star kernel, certified zeros."""

import cmath
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reclab import joinings
from reclab.experiments import ExperimentConfig, run_experiment
from reclab.harmonic import Character, CoefficientTable, annihilating_cylinder
from reclab.joinings import (
    AffineJoining,
    annihilate_over_joining,
    extract_affine_joining,
    root_of_unity_sum_is_zero,
    uniformize_over_joining,
)
from reclab.lattice import SubgroupModel
from reclab.torus import ApproxHammingBall, Cylinder, TorusPoint

from oracles import (
    HermiteSubgroup,
    WeightedJoining,
    averaging_gap,
    coset_average,
    coset_elements,
    decomposition_joining,
    evaluate_table,
    hermite,
    lift_orbit,
    offset_projection,
    orbit_point,
    pair_embedding,
    projected_closure,
    quadratic_direction,
    quadratic_orbit_decomposition,
    root_of_unity_sum_is_zero_by_division,
    solve_linear_mod,
    star_kernel,
    star_transform_factor,
    subgroup_contains,
    verify_measure_identity,
    verify_star_zero_per_character,
    verify_star_zero_per_coset,
    visit_counts,
)


REPO = Path(__file__).parents[1]


def frac(a, b=1):
    return Fraction(a, b)


def ball_on(center_coords, k, eps):
    return ApproxHammingBall(center=TorusPoint.of(center_coords), k=k, eps=eps)


# ---- cyclic closures ----


def test_cyclic_closure_coprime_blocks_give_full_product():
    # (1/5, 1/7) lifted to Z_35 is (7, 5): the pair generates the product of the factors,
    # the closure equality the grid joining requires of its linear blocks
    G = SubgroupModel(35, (7, 5))
    product = HermiteSubgroup.from_generators(35, 2, [[7, 0], [0, 5]])
    assert hermite(G) == product and G.order() == 35


@given(st.integers(2, 20), st.integers(0, 19), st.integers(0, 19))
def test_cyclic_closure_projections_are_factor_closures(q, a, b):
    # each coordinate projection of <(a, b)> is exactly the closure of that entry
    rows = SubgroupModel(q, (a, b)).elements()
    proj0 = HermiteSubgroup.from_generators(q, 1, rows[:, :1].tolist())
    proj1 = HermiteSubgroup.from_generators(q, 1, rows[:, 1:].tolist())
    assert proj0 == hermite(SubgroupModel(q, (a,)))
    assert proj1 == hermite(SubgroupModel(q, (b,)))


# ---- orbit decompositions ----


def test_torsion_fixture_mod3():
    # orbit 3n + 5n^2 in Z_15: the quadratic part is 3-torsion
    dec = quadratic_orbit_decomposition([3], [5], 15)
    assert dec.period == 30
    assert dec.stabilizer.order() == 5
    assert dec.cosets == ((0,), (2,))
    assert dec.weights == (frac(1, 3), frac(2, 3))
    assert verify_measure_identity(dec)


def test_torsion_fixture_mod7_square_counts():
    # orbit 7n + 5n^2 in Z_35: weights follow the square counts mod 7,
    # one residue hit once and three residues hit twice
    dec = quadratic_orbit_decomposition([7], [5], 35)
    assert dec.stabilizer.order() == 5
    assert sorted(dec.weights) == [frac(1, 7), frac(2, 7), frac(2, 7), frac(2, 7)]
    assert verify_measure_identity(dec)


def test_pure_rotation_is_single_coset():
    dec = quadratic_orbit_decomposition([1, 3], [0, 0], 12)
    assert dec.weights == (frac(1),)
    assert dec.stabilizer == HermiteSubgroup.from_generators(12, 2, [[1, 3]])
    assert verify_measure_identity(dec)


def test_period_doubling_counts():
    dec = quadratic_orbit_decomposition([2], [3], 9)
    single = visit_counts(dec)
    double = Counter(orbit_point(dec, n) for n in range(2 * dec.q))
    assert double == {x: 2 * c for x, c in single.items()}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_decomposition_identity_random(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 24)
    dim = rng.randint(1, 2)
    c = [rng.randrange(q) for _ in range(dim)]
    u = [rng.randrange(q) for _ in range(dim)]
    dec = quadratic_orbit_decomposition(c, u, q)
    assert sum(dec.weights, frac(0)) == 1
    assert verify_measure_identity(dec)

    def fn(x):
        return Fraction(sum((a * a + 3 * a) % q for a in x), q + 1)

    assert averaging_gap(dec, fn) == 0


# ---- extraction ----


def diagonal_parts():
    lin = pair_embedding([frac(1, 3)], [frac(1, 5)], 1)
    quad = quadratic_direction([frac(1, 15)], [frac(1, 15)])
    return lin, quad


def diagonal_example():
    """The exact decomposition joining of the equal-frequency orbit on Z_15."""
    return decomposition_joining(*diagonal_parts(), 1, 1)


def test_extraction_equal_frequencies_concentrate_on_diagonal():
    J = diagonal_example()
    assert J.q == 15
    assert J.base.order() == 1
    assert all(s[0] == s[1] for s in J.shifts)
    assert J.shifts == ((0, 0), (1, 1), (4, 4), (6, 6), (9, 9), (10, 10))
    assert J.weights == (
        frac(1, 15),
        frac(4, 15),
        frac(4, 15),
        frac(2, 15),
        frac(2, 15),
        frac(2, 15),
    )
    # the extracted group idealization is the full diagonal
    ex = extract_affine_joining([frac(1, 15)], [frac(1, 15)], 15)
    assert ex.q == 15
    assert ex.base == SubgroupModel(15, (1, 1))
    assert (ex.d, ex.r) == (1, 1)
    assert verify_measure_identity(quadratic_orbit_decomposition(*lift_orbit(*diagonal_parts())))


def test_extraction_coprime_frequencies_group_is_full_product():
    ex = extract_affine_joining([frac(1, 5)], [frac(1, 7)], 35)
    assert ex.q == 35
    assert ex.base == SubgroupModel(35, (7, 5))
    assert hermite(ex.base) == HermiteSubgroup.from_generators(35, 2, [[7, 0], [0, 5]])
    # offset marginals: w1 sweeps squares times alpha, w2 squares times beta
    dec = quadratic_orbit_decomposition(pair_embedding([7], [5], 1), quadratic_direction([7], [5]), 35)
    w_visits = {offset_projection(orbit_point(dec, n), 1, 1, 35) for n in range(35)}
    assert w_visits == {(7 * n * n % 35, 5 * n * n % 35) for n in range(35)}


def test_extraction_zero_quadratic_part_is_point_mass():
    lin = pair_embedding([frac(1, 3)], [frac(1, 5)], 1)
    ex = extract_affine_joining([0], [0], 15)
    assert ex.base.order() == 1
    assert decomposition_joining(lin, [0] * 5, 1, 1) == WeightedJoining.of(ex)

    rng = np.random.default_rng(3)
    f = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    g = rng.standard_normal((15,)) + 0j
    out = star_kernel(f, g, ex)
    assert np.allclose(out, f * g[0])


def test_extraction_refuses_a_coordinate_off_the_modulus():
    # 1/3 does not live on Z_5; truncating 5/3 to 1 would give the base of (1, 1)
    with pytest.raises(ValueError, match="coordinate 1/3"):
        extract_affine_joining([frac(1, 3)], [frac(1, 5)], 5)
    with pytest.raises(ValueError, match="coordinate 2/7"):
        extract_affine_joining([frac(1, 3)], [frac(1, 5), frac(2, 7)], 15)
    assert extract_affine_joining([frac(1, 3)], [frac(1, 5)], 15).base.order() == 15


@st.composite
def grid_orbits(draw):
    """(alpha, t0, weight_dir): the grid pipeline's orbit data, with alpha and t0
    of coprime odd orders and weight_dir = l^2 * beta of odd order."""
    d, r = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    odd = (1, 3, 5, 7)
    a, b = draw(st.sampled_from([(a, b) for a in odd for b in odd if math.gcd(a, b) == 1]))
    alpha = [frac(draw(st.integers(0, a - 1)), a) for _ in range(d)]
    t0 = [frac(draw(st.integers(0, b - 1)), b) for _ in range(d)]
    den = draw(st.sampled_from([1, 3, 5, 7, 15]))
    ell = draw(st.integers(1, 3))
    weight_dir = [frac(draw(st.integers(0, den - 1)), den) * ell * ell for _ in range(r)]
    return alpha, t0, weight_dir


def orbit_parts(alpha, t0, weight_dir):
    """The grid orbit embedded in Z_M^(4d+r), its d and r, and the modulus M."""
    d, r = len(alpha), len(weight_dir)
    modulus = math.lcm(*(c.denominator for c in (*alpha, *t0, *weight_dir)))
    return pair_embedding(alpha, t0, r), quadratic_direction(alpha, weight_dir), d, r, modulus


# the default grid config and main_inequality_joint: alpha 2/135, t0 1/7, ell 1
@example(([frac(2, 135)], [frac(1, 7)], [frac(i, 7) for i in range(1, 6)]))
@example(([frac(2, 135)], [frac(1, 7)], [Fraction(x) for x in ("1/3", "2/3", "1/5", "2/5", "1/9")]))
@given(grid_orbits())
@settings(max_examples=60, deadline=None)
def test_extraction_base_is_projected_closure(orbit):
    # the generator (alpha, l^2 beta) spans what closing the quadratic part in
    # Z_M^(4d+r) and then projecting every closure basis row to the offsets spans
    alpha, t0, weight_dir = orbit
    lin, quad, d, r, modulus = orbit_parts(alpha, t0, weight_dir)
    J = extract_affine_joining(alpha, weight_dir, modulus)
    assert hermite(J.base) == projected_closure(lin, quad, d, r)
    assert (J.q, J.d, J.r) == (modulus, d, r)


@given(grid_orbits())
@settings(max_examples=40, deadline=None)
def test_extraction_base_contains_decomposition_joining(orbit):
    # the exact visit decomposition projects into the extracted base: its base
    # subgroup and every coset shift lie inside the Haar joining's support
    alpha, t0, weight_dir = orbit
    lin, quad, d, r, modulus = orbit_parts(alpha, t0, weight_dir)
    J = extract_affine_joining(alpha, weight_dir, modulus)
    D = decomposition_joining(lin, quad, d, r)
    assert (D.q, D.d, D.r) == (J.q, J.d, J.r)
    assert all(subgroup_contains(J.base, row) for row in D.base.basis)
    assert all(subgroup_contains(J.base, shift) for shift in D.shifts)


# ---- affine joining container ----


def test_affine_joining_validation():
    base = SubgroupModel(5, (1, 1))
    assert AffineJoining(base, 1, 1).q == 5
    with pytest.raises(ValueError, match="nonempty"):
        AffineJoining(base=base, d=2, r=0)
    with pytest.raises(ValueError, match="d \\+ r"):
        AffineJoining(base=base, d=1, r=2)
    # the weighted coset form lives with the oracles and checks its weights
    with pytest.raises(ValueError, match="sum"):
        WeightedJoining(base=base, d=1, r=1, shifts=((0, 0),), weights=(frac(1, 2),))
    with pytest.raises(ValueError, match="twice"):
        WeightedJoining(
            base=base, d=1, r=1,
            shifts=((0, 0), (1, 1)),
            weights=(frac(1, 2), frac(1, 2)),
        )
    with pytest.raises(ValueError, match="nonempty"):
        WeightedJoining(base=base, d=2, r=0, shifts=((0, 0),), weights=(frac(1),))


# ---- star kernel ----


def test_star_kernel_exact_matches_float():
    J = diagonal_example()
    rng = random.Random(11)
    fF = np.empty((15, 15), dtype=object)
    for idx in np.ndindex(15, 15):
        fF[idx] = frac(rng.randint(-20, 20), 7)
    gF = np.empty((15,), dtype=object)
    for i in range(15):
        gF[i] = frac(rng.randint(-10, 10), 3)
    exact = star_kernel(fF, gF, J)
    approx = star_kernel(fF.astype(complex), gF.astype(complex), J)
    assert np.allclose(exact.astype(complex), approx)


def test_star_kernel_projection_identity_exact():
    # g grid aligned with joining mass exactly 1: averaging the kernel over y
    # returns the y-average of f, coordinate by coordinate, exactly
    J = diagonal_example()
    # radius 5/30 pins 5 of the 15 grid points, so the density is 3 there
    cyl = Cylinder(1, (1,), TorusPoint.of([0]), frac(5, 30))
    hits = cyl.orbit_contains([frac(1, 15)], np.arange(15))
    gd = np.where(hits, 1 / cyl.measure(), frac(0))
    assert list(gd).count(3) == 5
    assert coset_average(J.base, J.shifts, J.weights, lambda w: gd[w[1:]]) == 1

    rng = random.Random(23)
    fF = np.empty((15, 15), dtype=object)
    for idx in np.ndindex(15, 15):
        fF[idx] = frac(rng.randint(-9, 9), 4)
    out = star_kernel(fF, gd, J)
    for x in range(15):
        assert sum(out[x, :]) / 15 == sum(fF[x, :]) / 15


def test_star_kernel_shape_checks():
    J = diagonal_example()
    with pytest.raises(ValueError, match="axes"):
        star_kernel(np.zeros((15,)), np.zeros((15,)), J)
    with pytest.raises(ValueError, match="axes"):
        star_kernel(np.zeros((15, 15)), np.zeros((5,)), J)


# ---- root of unity certificates ----


def weights_of(entries, q):
    """The length-q int64 weight vector with weight w at each t of ``entries``."""
    weights = np.zeros(q, dtype=np.int64)
    for t, w in entries.items():
        weights[t % q] += w
    return weights


def test_root_of_unity_sum_examples():
    # all q-th roots sum to zero
    assert root_of_unity_sum_is_zero(np.ones(6, dtype=np.int64))
    # paired opposite phases cancel
    assert root_of_unity_sum_is_zero(weights_of({1: 1, 4: 1}, 6))
    # a lone root is nonzero, as is an unbalanced pair
    assert not root_of_unity_sum_is_zero(weights_of({2: 1}, 6))
    assert not root_of_unity_sum_is_zero(weights_of({1: 1, 4: 2}, 6))
    # q = 1: plain integer sum
    assert root_of_unity_sum_is_zero(weights_of({0: 0}, 1))
    assert not root_of_unity_sum_is_zero(weights_of({0: 1}, 1))


@pytest.mark.parametrize(
    "weights", [np.zeros(0, dtype=np.int64), np.zeros((2, 3), dtype=np.int64), np.zeros(4)],
    ids=["empty", "matrix", "float"],
)
def test_root_of_unity_sum_refuses_what_is_not_an_integer_vector(weights):
    with pytest.raises(ValueError, match="nonempty integer vector"):
        root_of_unity_sum_is_zero(weights)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_root_of_unity_zero_agrees_with_numeric(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 30)
    entries = {rng.randrange(q): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
    claim = root_of_unity_sum_is_zero(weights_of(entries, q))
    numeric = sum(w * cmath.exp(2j * cmath.pi * t / q) for t, w in entries.items())
    if claim:
        assert abs(numeric) < 1e-9
    else:
        assert abs(numeric) > 1e-12


def prime_divisors(q):
    return [p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]


@st.composite
def root_of_unity_cases(draw):
    """Weights at a modulus q <= 400, and whether they are a sum of rotated p-gons.

    Random weights are almost never zero, so most cases are integer
    combinations of rotated p-gons, p | q: zero as they are, and mostly
    not after a unit perturbation.
    """
    q = draw(st.integers(1, 400))
    if draw(st.integers(0, 3)) == 0:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return [rng.randint(-3, 3) for _ in range(q)], False
    weights = [0] * q
    primes = prime_divisors(q)
    gons = st.tuples(st.sampled_from(primes), st.integers(-4, 4), st.integers(0, q - 1))
    for p, c, start in draw(st.lists(gons, max_size=6)) if primes else []:
        for j in range(p):
            weights[(start + j * (q // p)) % q] += c
    if draw(st.booleans()):
        weights[draw(st.integers(0, q - 1))] += draw(st.sampled_from([-1, 1]))
        return weights, False
    return weights, True


@given(root_of_unity_cases())
@settings(max_examples=300, deadline=None)
def test_root_of_unity_fold_agrees_with_cyclotomic_division(case):
    weights, is_pgon_sum = case
    claim = root_of_unity_sum_is_zero(np.array(weights, dtype=np.int64))
    assert claim == root_of_unity_sum_is_zero_by_division(weights)
    if is_pgon_sum:
        assert claim


# 945945 = 3^3 * 5 * 7^2 * 11 * 13: the phase modulus of a grid run with
# beta [1/49, 1/11, 1/13, 2/7, 3/7], at the enumeration cap
Q_LARGE = 945945


def test_root_of_unity_sum_at_a_large_modulus():
    # every multiple of 3 is every (Q/3)-th root of unity, whose full sum is 0
    weights = np.zeros(Q_LARGE, dtype=np.int64)
    weights[::3] = 1
    assert root_of_unity_sum_is_zero(weights)
    # a rotated 7-gon is 0, so adding it to e(0) leaves e(0) = 1
    weights = np.zeros(Q_LARGE, dtype=np.int64)
    weights[5 :: Q_LARGE // 7] = 1
    weights[0] = 1
    assert not root_of_unity_sum_is_zero(weights)
    weights[0] = 0
    assert root_of_unity_sum_is_zero(weights)


def test_root_of_unity_sum_refuses_weights_that_would_overflow():
    # five distinct primes: each fold may double a cell, so |w| * 2^5 must stay below 2^63
    weights = np.zeros(Q_LARGE, dtype=np.int64)
    weights[1] = 2**58 - 1
    assert not root_of_unity_sum_is_zero(weights)
    weights[1] = -(2**58)
    with pytest.raises(ValueError, match="overflows int64"):
        root_of_unity_sum_is_zero(weights)


def test_equidistribution_decides_a_large_modulus_exactly(tmp_path):
    # 240240 = 2^4 * 3 * 5 * 7 * 11 * 13; the limit of n*(n+1)/240240 vanishes, and
    # that of n^2/240240 is a product of Gauss sums, of size sqrt(2 * 240240) / 240240
    cases = [{"alpha": "1/240240", "beta": "1/240240"}, {"beta": "1/240240"}]
    config = ExperimentConfig.from_json({
        "experiment": "equidistribution",
        "params": {"ladder": [1000], "cases": cases},
        "out_dir": str(tmp_path),
    })
    zero, periodic = run_experiment(config).metrics["cases"]
    assert zero["modulus"] == periodic["modulus"] == 240240
    assert zero["exact_zero_limit"] and zero["limit_abs"] < 1e-12
    assert not periodic["exact_zero_limit"]
    assert periodic["limit_abs"] == pytest.approx(math.sqrt(2 * 240240) / 240240, rel=1e-9)


# ---- annihilation over a joining ----


def order_two_model():
    # <(3, 2)> is the full product {0, 3} x {0, 2, 4} of Z_6 x Z_6
    base = SubgroupModel(6, (3, 2))
    return AffineJoining(base, 1, 1)


def test_annihilate_order_two_character_full_product():
    # kernel of the w2 projection is {0, 3} x {0}; the order-2 character
    # cancels fiber by fiber and any subordinate cylinder works
    J = order_two_model()
    ball = ball_on([0], 0, frac(1, 5))
    cyl = annihilate_over_joining(ball, J, [Character((3,))])
    assert cyl.index_set == (1,)
    total = sum(
        cmath.exp(2j * cmath.pi * 3 * w[0] / 6)
        * float(cyl.normalized_value(TorusPoint.of([frac(w[1], 6)])))
        for w in J.base.elements().tolist()
    )
    assert abs(total) < 1e-12


def test_annihilate_via_character_extension():
    # kernel trivial: the character must be pushed through the w2 marginal
    base = SubgroupModel(6, (1, 1, 0))
    J = AffineJoining(base, 1, 2)
    ball = ball_on([0, frac(1, 6)], 1, frac(1, 5))
    cyl = annihilate_over_joining(ball, J, [Character((2,))])
    assert cyl.index_set == (2,)
    total = sum(
        cmath.exp(2j * cmath.pi * 2 * w[0] / 6)
        * float(cyl.normalized_value(TorusPoint.of([frac(w[1], 6), frac(w[2], 6)])))
        for w in J.base.elements().tolist()
    )
    assert abs(total) < 1e-12


def test_annihilate_zero_characters_returns_subordinate_cylinder():
    J = order_two_model()
    ball = ball_on([frac(1, 6)], 0, frac(1, 7))
    cyl = annihilate_over_joining(ball, J, [])
    assert cyl.index_set == (1,)
    assert cyl.eta == frac(1, 7) and cyl.center == TorusPoint.of([frac(1, 6)])


def test_annihilate_rejects_character_trivial_on_joining():
    base = SubgroupModel(6, (0, 1))
    J = AffineJoining(base, 1, 1)
    ball = ball_on([0], 0, frac(1, 5))
    with pytest.raises(ValueError, match="vanishes on the joining"):
        annihilate_over_joining(ball, J, [Character((2,))])


def test_annihilate_rejects_grid_trivial_character():
    J = order_two_model()
    ball = ball_on([0], 0, frac(1, 5))
    with pytest.raises(ValueError, match="trivial on the grid"):
        annihilate_over_joining(ball, J, [Character((6,))])


def test_annihilate_raises_when_not_certifiable():
    # sparse diagonal marginal: the windowed cylinder cannot cancel exactly
    base = SubgroupModel(6, (1, 1, 1))
    J = AffineJoining(base, 1, 2)
    ball = ball_on([0, 0], 1, frac(1, 6))
    with pytest.raises(ArithmeticError, match="not certifiably zero"):
        annihilate_over_joining(ball, J, [Character((2,))])


def test_annihilate_holds_on_every_coset():
    # the cylinder built for the Haar joining of the base also annihilates on
    # the shifted coset: the oracle's per-coset certificate holds on a
    # two-coset weighted joining, and so does the float sum on each coset
    base = SubgroupModel(6, (1, 1, 3))
    ball = ball_on([0, frac(1, 6)], 1, frac(1, 5))
    cyl = annihilate_over_joining(ball, AffineJoining(base, 1, 2), [Character((2,))])
    J = WeightedJoining(
        base=base, d=1, r=2,
        shifts=((0, 0, 0), (0, 0, 1)),
        weights=(frac(1, 3), frac(2, 3)),
    )
    assert verify_star_zero_per_coset(J, (2,), cyl, 1)
    for rep in J.shifts:
        total = sum(
            cmath.exp(2j * cmath.pi * 2 * w[0] / 6)
            * float(cyl.normalized_value(TorusPoint.of([frac(w[1], 6), frac(w[2], 6)])))
            for w in coset_elements(J.base, rep)
        )
        assert abs(total) < 1e-12


@st.composite
def star_zero_cases(draw):
    """A Haar joining with d = 1, a cylinder on its w2 block, a frequency and a scale."""
    q = draw(st.sampled_from([3, 5, 6, 7, 9]))
    r = draw(st.integers(1, 2))
    base = SubgroupModel(q, tuple(draw(st.lists(st.integers(0, q - 1), min_size=1 + r, max_size=1 + r))))
    index_set = tuple(sorted(draw(st.sets(st.integers(1, r), min_size=1))))
    center = TorusPoint.of([frac(draw(st.integers(0, 2 * q - 1)), 2 * q) for _ in range(r)])
    eta = frac(draw(st.integers(1, q)), 2 * q + 1)
    cyl = Cylinder(r, index_set, center, eta)
    freq = (draw(st.integers(1, q - 1)),)
    return AffineJoining(base, 1, r), freq, cyl, draw(st.sampled_from([1, 2]))


@given(star_zero_cases())
# one certified, and the sparse diagonal of test_annihilate_raises_when_not_certifiable
@example((AffineJoining(SubgroupModel(6, (1, 1, 0)), 1, 2),
          (2,), Cylinder(2, (2,), TorusPoint.of([0, frac(1, 6)]), frac(1, 5)), 1))
@example((AffineJoining(SubgroupModel(6, (1, 1, 1)), 1, 2),
          (2,), Cylinder(2, (1,), TorusPoint.of([0, 0]), frac(1, 6)), 1))
@settings(max_examples=120, deadline=None)
def test_star_zero_on_the_haar_joining_matches_the_per_coset_loop(case):
    # one pass over base.elements() certifies exactly what the loop over
    # cosets did for the one zero shift of weight 1
    J, freq, cyl, scale = case
    w = np.array(J.base.elements(), dtype=np.int64)
    inside = w[cyl.orbit_contains([frac(1, J.q)] * J.r, w[:, J.d:]), :J.d]
    try:
        joinings._verify_star_zero(inside, J.q, freq, scale)
        certified = True
    except ArithmeticError as exc:
        assert "not certifiably zero" in str(exc)
        certified = False
    assert certified == verify_star_zero_per_coset(J, freq, cyl, scale)


def annihilate_outcome(ball, J, chars, scale):
    try:
        return annihilate_over_joining(ball, J, chars, scale)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@given(case=star_zero_cases(), k=st.integers(0, 1), chars=st.lists(st.integers(1, 8), max_size=3))
@example(
    case=(AffineJoining(SubgroupModel(6, (1, 1, 1)), 1, 2), (2,),
          Cylinder(2, (1, 2), TorusPoint.of([0, 0]), frac(1, 6)), 1),
    k=1, chars=[2],
)
@settings(max_examples=80, deadline=None)
def test_annihilate_certifies_what_the_per_character_route_does(case, k, chars):
    # the cylinder and every certificate or error are those of the route that
    # enumerates the base once more for each character
    assert_annihilate_matches_the_per_character_route(case, k, chars)


@st.composite
def t0_factor_cases(draw):
    """``star_zero_cases`` over M = q * t, whose w1 block is a multiple of t.

    So it is in a grid run: alpha's coordinate of the base is a multiple of
    M / q, the factor that t0 and l^2 beta bring into the phase modulus.
    """
    q = draw(st.sampled_from([3, 5, 9, 15]))
    m = q * draw(st.sampled_from([7, 11, 49]))
    r = draw(st.integers(1, 2))
    a = draw(st.integers(0, q - 1)) * (m // q)
    base = SubgroupModel(m, (a, *draw(st.lists(st.integers(0, m - 1), min_size=r, max_size=r))))
    index_set = tuple(sorted(draw(st.sets(st.integers(1, r), min_size=1))))
    center = TorusPoint.of([frac(draw(st.integers(0, 2 * m - 1)), 2 * m) for _ in range(r)])
    cyl = Cylinder(r, index_set, center, frac(draw(st.integers(1, m)), 2 * m + 1))
    return AffineJoining(base, 1, r), (1,), cyl, draw(st.sampled_from([1, 2]))


@given(case=t0_factor_cases(), k=st.integers(0, 1), chars=st.lists(st.integers(1, 8), max_size=3))
# a sum certified zero, and a nonzero sum that raises
@example(
    case=(AffineJoining(SubgroupModel(33, (11, 24)), 1, 1), (1,),
          Cylinder(1, (1,), TorusPoint.of([frac(13, 22)]), frac(12, 67)), 1),
    k=0, chars=[2],
)
@example(
    case=(AffineJoining(SubgroupModel(105, (91, 80, 94)), 1, 2), (1,),
          Cylinder(2, (1, 2), TorusPoint.of([frac(61, 210), frac(97, 105)]), frac(62, 211)), 1),
    k=1, chars=[8],
)
@settings(max_examples=80, deadline=None)
def test_star_zero_on_the_w1_order_matches_the_full_modulus_fold(case, k, chars):
    # the phases counted mod M / gcd(M, a) certify exactly what the M-entry
    # fold of the per-character route certifies
    assert_annihilate_matches_the_per_character_route(case, k, chars)


def assert_annihilate_matches_the_per_character_route(case, k, chars):
    J, _, cyl, scale = case
    ball = ApproxHammingBall(cyl.center, min(k, J.r - 1), cyl.eta)
    chars = [Character((c % J.q,)) for c in chars]
    got = annihilate_outcome(ball, J, chars, scale)
    built = []  # the cylinder annihilate_over_joining pins, for the per-character route
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            joinings, "annihilating_cylinder",
            lambda *args: built.append(annihilating_cylinder(*args)) or built[-1],
        )
        patch.setattr(
            joinings, "_verify_star_zero",
            lambda inside, q, freq, scale: verify_star_zero_per_character(J, freq, built[-1], scale),
        )
        want = annihilate_outcome(ball, J, chars, scale)
    assert got == want


@given(st.integers(1, 30), st.lists(st.integers(0, 29), min_size=1, max_size=3), st.integers(0, 29))
def test_extension_solves_the_congruence_exactly_when_the_kernel_allows(q, b, p):
    # the base <(1, b)>: a w1 character of phase p on the generator is trivial on
    # the kernel of the w2 projection iff psi . b = p (mod q) has a solution
    b, p = [x % q for x in b], p % q
    base = hermite(SubgroupModel(q, (1, *b)))
    trivial_on_kernel = all(p * w[0] % q == 0 for w in base.elements().tolist() if not any(w[1:]))
    assert trivial_on_kernel == (solve_linear_mod([b], [p], q) is not None)
    assert trivial_on_kernel == (p * (q // math.gcd(q, *b)) % q == 0)
    if q ** len(b) <= 1000:
        solutions = [
            psi for psi in itertools.product(range(q), repeat=len(b))
            if sum(x * y for x, y in zip(psi, b)) % q == p
        ]
        assert trivial_on_kernel == bool(solutions)
    if trivial_on_kernel:
        psi = joinings._solve_congruence(b, p, q)
        assert len(psi) == len(b) and all(0 <= x < q for x in psi)
        assert sum(x * y for x, y in zip(psi, b)) % q == p


def test_annihilate_enumerates_the_joining_base_once_per_call(monkeypatch, tmp_path):
    # the grid battery of the joint example config certifies 16 characters
    # in 6 calls over one base; the process enumerates that base once
    joinings._base_elements.cache_clear()
    enumerations = []
    elements = SubgroupModel.elements
    monkeypatch.setattr(
        SubgroupModel, "elements", lambda self, *a: enumerations.append(1) or elements(self, *a)
    )
    per_call = []
    annihilate = joinings.annihilate_over_joining

    def counted(*args, **kwargs):
        before = len(enumerations)
        out = annihilate(*args, **kwargs)
        per_call.append((len(enumerations) - before, len(list(args[2]))))
        return out

    monkeypatch.setattr(joinings, "annihilate_over_joining", counted)
    with open(REPO / "scripts" / "configs" / "main_inequality_joint.json") as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    config.out_dir = str(tmp_path)
    assert run_experiment(config).status == "PASS"
    assert [once for once, _ in per_call] == [1] + [0] * 5
    assert sum(chars for _, chars in per_call) == 16


def test_joining_base_elements_are_cached_read_only():
    base = SubgroupModel(5, (1, 1, 1, 2))
    w = joinings._base_elements(base)
    assert joinings._base_elements(base) is w
    assert w.dtype == np.int64 and w.tolist() == base.elements().tolist()
    with pytest.raises(ValueError):
        w[0, 0] = 1


# ---- uniformization over a joining ----


def uniformize_fixture():
    # the kernel of the w2 projection is trivial, so every character extends;
    # the pinned coordinate runs over the multiples of 1/5 (or of 1/3), whose
    # fibers are 3-gons (or 5-gons) of w1 phases
    q = 15
    base = SubgroupModel(q, (1, 5, 3, 0))
    J = AffineJoining(base, 1, 3)
    ball = ball_on([0, 0, 0], 2, frac(1, 10))
    return q, J, ball


def grid_dft2(a, q):
    out = np.zeros((q, q), dtype=complex)
    for n in range(q):
        for m in range(q):
            acc = 0j
            for x in range(q):
                for y in range(q):
                    acc += a[x, y] * cmath.exp(-2j * cmath.pi * (n * x + m * y) / q)
            out[n, m] = acc / q**2
    return out


def test_uniformize_kills_selected_modes_exactly():
    q, J, ball = uniformize_fixture()
    table = CoefficientTable(2)
    table[Character((1, 2))] = 0.4
    table[Character((0, 1))] = 0.3 - 0.2j
    table[Character((3, 0))] = 0.5
    hat = np.zeros((q, q), dtype=complex)
    for chi, v in table:
        hat[chi.freq] = v
    cyl, report = uniformize_over_joining(hat, ball, J)
    assert sorted(report["psi_blocks"]) == [[1], [2]]
    assert report["residual"] == 0.0

    f = np.zeros((q, q), dtype=complex)
    for x in range(q):
        for y in range(q):
            f[x, y] = evaluate_table(table, TorusPoint.of([frac(x, q), frac(y, q)]))
    g = np.zeros((q, q, q))
    for idx in np.ndindex(q, q, q):
        g[idx] = float(cyl.normalized_value(TorusPoint.of([frac(a, q) for a in idx])))

    Fh = grid_dft2(star_kernel(f, g, J), q)
    fh = grid_dft2(f, q)
    # selected mixed modes die; every coefficient obeys the factor identity
    assert abs(Fh[1, 2]) < 1e-12 and abs(Fh[0, 1]) < 1e-12
    for n in range(q):
        for m in range(q):
            factor = star_transform_factor(J, Character((m,)), g)
            assert abs(Fh[n, m] - fh[n, m] * factor) < 1e-12
    # the grid aligned window keeps the mean factor exactly 1
    assert abs(star_transform_factor(J, Character((0,)), g) - 1.0) < 1e-12


def test_uniformize_residual_bound_random_table():
    q, J, ball = uniformize_fixture()
    rng = random.Random(5)
    entries = []
    for n in range(q):
        for m in range(q):
            if (n, m) == (0, 0):
                continue
            entries.append((n, m))
    rng.shuffle(entries)
    hat = np.zeros((q, q), dtype=complex)
    for n, m in entries[:8]:
        hat[n, m] = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    norm = max(1.0, np.sqrt(np.sum(np.abs(hat) ** 2)))
    cyl, report = uniformize_over_joining(hat, ball, J, norm_bound=float(norm))
    assert report["residual"] <= float(norm) / np.sqrt(ball.k) + 1e-12


def test_uniformize_rejects_even_grid():
    base = SubgroupModel(6, (1, 1, 1))
    J = AffineJoining(base, 1, 2)
    ball = ball_on([0, 0], 1, frac(1, 5))
    with pytest.raises(ValueError, match="even"):
        uniformize_over_joining(np.zeros((6, 6), dtype=complex), ball, J)
