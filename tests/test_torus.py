import math
import random
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reclab.bohr import named_convergent
from reclab.certificates import BandWitness
from reclab.torus import (
    ApproxHammingBall,
    Cylinder,
    TorusPoint,
    as_fraction,
    orbit_deviations,
    orbit_residues,
    reduce_mod,
)

from oracles import (
    ball_contains,
    ball_cylinders,
    band_contains,
    coordinate_norm,
    cylinder_contains,
    deviation_count,
    point_sub,
    scaled,
    zero_point,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=64)


def random_point(rng: random.Random, dim: int, den: int = 2**20) -> TorusPoint:
    return TorusPoint.of(Fraction(rng.randrange(den), den) for _ in range(dim))


# ---- norms and deviation counts ----


def test_norm_examples():
    assert coordinate_norm(Fraction(3, 4)) == Fraction(1, 4)
    assert coordinate_norm(Fraction(1, 2)) == Fraction(1, 2)
    assert coordinate_norm(Fraction(7, 8)) == Fraction(1, 8)
    assert coordinate_norm(Fraction(-5, 3)) == Fraction(1, 3)


@given(rationals)
def test_norm_bounds(c):
    assert 0 <= coordinate_norm(c) <= Fraction(1, 2)
    assert coordinate_norm(c) == coordinate_norm(-c)


@given(rationals, rationals)
def test_norm_triangle(a, b):
    assert coordinate_norm(a + b) <= coordinate_norm(a) + coordinate_norm(b)


@given(st.lists(rationals, min_size=1, max_size=6), st.fractions(min_value="1/64", max_value="1/2", max_denominator=64))
def test_deviation_count_range(coords, eps):
    p = TorusPoint.of(coords)
    w = deviation_count(p, eps)
    assert 0 <= w <= p.dim
    # deviation count of the negation matches (dist is symmetric)
    assert deviation_count(TorusPoint.of(-c for c in p.coords), eps) == w


def test_deviation_boundary_is_counted():
    # distance exactly eps counts as deviating
    p = TorusPoint.of(["1/4"])
    assert deviation_count(p, Fraction(1, 4)) == 1
    assert deviation_count(p, Fraction(1, 4) + Fraction(1, 1000)) == 0


# ---- balls ----


def test_ball_contains_matches_count():
    y = TorusPoint.of(["1/2", "1/2", 0])
    ball = ApproxHammingBall(center=y, k=1, eps="1/4")
    points = [["1/2", "1/2", "9/10"], [0, "1/2", 0], [0, 0, 0]]
    assert [ball_contains(ball, TorusPoint.of(x)) for x in points] == [True, True, False]
    assert [ball.orbit_contains(x, [1])[0] for x in points] == [True, True, False]


def test_ball_measure_exact_value():
    # r=2, k=1, eps=1/4: 2*eps = 1/2, measure = C(2,0)(1/2)^2 + C(2,1)(1/2)(1/2)
    ball = ApproxHammingBall(center=zero_point(2), k=1, eps="1/4")
    assert ball.measure() == Fraction(3, 4)


def test_ball_measure_monte_carlo_oracle():
    # independent sampling oracle, 10^6 points, agree within 3 sigma;
    # sampling on a dyadic grid keeps membership integer-exact
    rng = random.Random(42)
    ball = ApproxHammingBall(center=zero_point(2), k=1, eps="1/4")
    n = 10**6
    den = 2**24
    lo, hi = den // 4, 3 * den // 4  # dist(c/den, 0) >= 1/4 iff lo <= c <= hi
    hits = 0
    for _ in range(n):
        dev = (lo <= rng.randrange(den) <= hi) + (lo <= rng.randrange(den) <= hi)
        hits += dev <= 1
    p = float(ball.measure())
    sigma = sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * sigma


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value="1/32", max_value="1/2", max_denominator=64),
)
def test_ball_measure_in_unit_interval(r, k, eps):
    if k >= r:
        with pytest.raises(ValueError):
            ApproxHammingBall(center=zero_point(r), k=k, eps=eps)
        return
    m = ApproxHammingBall(center=zero_point(r), k=k, eps=eps).measure()
    assert 0 < m <= 1


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        ApproxHammingBall(center=zero_point(2), k=1, eps="3/4")
    with pytest.raises(ValueError):
        ApproxHammingBall(center=zero_point(2), k=1, eps=0)


# ---- cylinders ----


def test_cylinder_measure():
    c = Cylinder(dim=3, index_set=(1, 3), center=zero_point(3), eta="1/8")
    assert c.measure() == Fraction(1, 16)


def test_cylinder_membership_strict():
    c = Cylinder(dim=2, index_set=(1,), center=zero_point(2), eta="1/4")
    # the boundary 1/4 is excluded
    points = [["1/8", "1/2"], ["1/4", 0], ["1/3", 0]]
    assert [cylinder_contains(c, TorusPoint.of(x)) for x in points] == [True, False, False]
    assert [c.orbit_contains(x, [1])[0] for x in points] == [True, False, False]


def test_subordinate_cylinder_count():
    ball = ApproxHammingBall(center=zero_point(5), k=2, eps="1/8")
    cyls = ball_cylinders(ball)
    assert len(cyls) == comb(5, 3)
    assert all(len(c.index_set) == 3 for c in cyls)
    assert all(c.eta == Fraction(1, 8) for c in cyls)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.lists(rationals, min_size=6, max_size=6),
    st.lists(rationals, min_size=6, max_size=6),
    st.fractions(min_value="1/16", max_value="1/2", max_denominator=32),
)
def test_union_of_cylinders_is_ball(r, k, ycoords, xcoords, eps):
    # with eta = eps the union identity is exact, including boundaries
    if k >= r:
        return
    y = TorusPoint.of(ycoords[:r])
    x = TorusPoint.of(xcoords[:r])
    ball = ApproxHammingBall(center=y, k=k, eps=eps)
    in_union = any(cylinder_contains(c, x) for c in ball_cylinders(ball))
    assert in_union == ball_contains(ball, x)


def test_union_of_cylinders_random_grid():
    rng = random.Random(7)
    y = random_point(rng, 4)
    ball = ApproxHammingBall(center=y, k=2, eps="1/5")
    cyls = ball_cylinders(ball)
    for _ in range(500):
        x = random_point(rng, 4)
        assert ball_contains(ball, x) == any(cylinder_contains(c, x) for c in cyls)


# ---- the orbit-deviation kernel against the Fraction oracle ----


def oracle_deviations(beta, center, eps, ns, e):
    y = TorusPoint.of(center)
    return [deviation_count(point_sub(scaled(TorusPoint.of(beta), n**e), y), eps) for n in ns]


def orbit_points(beta, ns, e):
    return [scaled(TorusPoint.of(beta), n**e) for n in ns]


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=720)
# denominators up to 10^6 put Q on either side of the int64 edge
frequencies = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
# floats in [0, 1] as exact Fractions, subnormals included: denominators up to 2^1074
dyadics = st.floats(min_value=0, max_value=1).map(Fraction)
radii = st.fractions(min_value=Fraction(1, 720), max_value=Fraction(1, 2), max_denominator=720)
# the largest modulus Q with (Q - 1)^2 < 2^63, so the last one on the int64 path
INT64_EDGE = 3_037_000_500


# reduce_mod's domain: int64 values from -2^62 up, moduli up to the int64 edge
REDUCIBLE = st.integers(-(2**62), 2**63 - 1)
NEAR_LOW = st.integers(-(2**62), -(2**62) + 10**4)
NEAR_HIGH = st.integers(2**63 - 1 - 10**4, 2**63 - 1)


@given(
    st.lists(st.one_of(REDUCIBLE, NEAR_LOW, NEAR_HIGH, st.integers(-50, 50)), max_size=40),
    st.one_of(st.integers(1, INT64_EDGE), st.integers(INT64_EDGE - 10**4, INT64_EDGE)),
)
@example(xs=[-(2**62), -(2**62) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], m=1)
@example(xs=[-(2**62), -(2**62) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], m=INT64_EDGE - 1)
@example(xs=[-(2**62), -(2**62) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], m=INT64_EDGE)
def test_reduce_mod_is_the_remainder_in_place(xs, m):
    x = np.array(xs, dtype=np.int64)
    want = np.remainder(x, m)
    got = reduce_mod(x, m)
    assert got is x and got.dtype == np.int64
    assert got.tolist() == want.tolist() == [v % m for v in xs]


def python_residues(ns, e, num, modulus):
    """n^e * num mod modulus for each n, in Python ints."""
    return [n**e * num % modulus for n in ns]


@given(
    st.lists(st.one_of(st.integers(-(2**62), 2**63 - 1), st.integers(-5, 5)), max_size=20),
    st.sampled_from([1, 2]),
    st.one_of(st.just(1), st.integers(-(2**70), 2**70)),
    st.integers(-4, 2),
)
@example(ns=[-(2**62), 2**63 - 1, INT64_EDGE - 1, INT64_EDGE], e=2, num=-1, step=0)
def test_orbit_residues_agree_on_both_sides_of_the_int64_edge(ns, e, num, step):
    # moduli just below the edge take the int64 branch and those above it
    # the object branch; both give the Python-int residues
    modulus = INT64_EDGE + step
    got = orbit_residues(np.array(ns, dtype=np.int64), e, num, modulus)
    assert got.dtype == (np.int64 if step <= 0 else object)
    assert got.tolist() == python_residues(ns, e, num, modulus)


@pytest.mark.parametrize("modulus", [1, 7, INT64_EDGE, INT64_EDGE + 1, 2**61 - 1])
@pytest.mark.parametrize("e, num", [(1, 1), (2, 1), (2, 10**6 + 3)])
def test_orbit_residues_leave_the_multipliers_unmodified(modulus, e, num):
    ns = np.array([-(2**62), -9, 0, 5, 10**12 + 39, 2**63 - 1], dtype=np.int64)
    before = ns.copy()
    got = orbit_residues(ns, e, num, modulus)
    assert np.array_equal(ns, before)
    assert not np.shares_memory(got, ns)
    assert got.tolist() == python_residues(before.tolist(), e, num, modulus)


@given(
    st.lists(frequencies, min_size=1, max_size=4),
    st.data(),
    radii,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.sampled_from([1, 2]),
)
def test_orbit_deviations_match_oracle(beta, data, eps, ns, e):
    center = data.draw(st.lists(unit_rationals, min_size=len(beta), max_size=len(beta)))
    got = orbit_deviations(beta, center, eps, np.array(ns, dtype=np.int64), e)
    assert got.tolist() == oracle_deviations(beta, center, eps, ns, e)


@given(
    st.lists(st.one_of(frequencies, dyadics), min_size=1, max_size=4),
    st.data(),
    radii,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.sampled_from([1, 2]),
)
def test_ball_orbit_contains_matches_oracle(beta, data, eps, ns, e):
    center = data.draw(st.lists(st.one_of(unit_rationals, dyadics), min_size=len(beta), max_size=len(beta)))
    ball = ApproxHammingBall(TorusPoint.of(center), data.draw(st.integers(0, len(beta) - 1)), eps)
    got = ball.orbit_contains(beta, np.array(ns, dtype=np.int64), e)
    assert got.tolist() == [ball_contains(ball, x) for x in orbit_points(beta, ns, e)]


@given(
    st.lists(st.one_of(frequencies, dyadics), min_size=1, max_size=4),
    st.data(),
    radii,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.sampled_from([1, 2]),
)
def test_band_orbit_contains_matches_oracle(beta, data, a, ns, e):
    w = BandWitness(r=len(beta), a=a, t=data.draw(st.integers(0, len(beta))))
    got = w.orbit_contains(beta, np.array(ns, dtype=np.int64), e)
    assert got.tolist() == [band_contains(w, x) for x in orbit_points(beta, ns, e)]


@given(
    st.lists(frequencies, min_size=1, max_size=3),
    st.data(),
    radii,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.sampled_from([1, 2]),
)
def test_orbit_deviations_wrap_centers_off_the_unit_interval(beta, data, eps, ns, e):
    # centers in [-3, 3] are reduced mod 1 like the torus point the oracle makes
    center = data.draw(st.lists(rationals, min_size=len(beta), max_size=len(beta)))
    got = orbit_deviations(beta, center, eps, np.array(ns, dtype=np.int64), e)
    assert got.tolist() == oracle_deviations(beta, center, eps, ns, e)


def test_orbit_deviations_count_the_boundary():
    # n = 1 and n = 3 put 3n/8 - 1/4 at distance exactly eps = 1/8 from 0
    got = orbit_deviations(["3/8"], ["1/4"], "1/8", np.arange(5), 1)
    assert got.tolist() == [1, 1, 1, 1, 1]
    got = orbit_deviations(["3/8"], ["1/4"], "1/4", np.arange(5), 1)
    assert got.tolist() == [1, 0, 1, 0, 1]
    assert got.tolist() == oracle_deviations(["3/8"], ["1/4"], "1/4", range(5), 1)


@pytest.mark.parametrize("modulus", [INT64_EDGE - 1, INT64_EDGE, INT64_EDGE + 1])
@pytest.mark.parametrize("e", [1, 2])
def test_orbit_deviations_on_both_sides_of_the_int64_edge(modulus, e):
    beta = [Fraction(modulus // 3 + 1, modulus), Fraction(1, modulus)]
    center = [Fraction(modulus // 2, modulus), 0]
    eps = Fraction(modulus // 5, modulus)
    assert math.lcm(*(c.denominator for c in beta + center + [eps])) == modulus
    ns = [1, 2, 3, 77_777, 10**9 + 7, 3 * 10**12, -(10**15), 2**62]
    got = orbit_deviations(beta, center, eps, np.array(ns, dtype=np.int64), e)
    assert got.tolist() == oracle_deviations(beta, center, eps, ns, e)
    # each region's orbit_contains on the same modulus, against its oracle
    points = orbit_points(beta, ns, e)
    ball = ApproxHammingBall(TorusPoint.of(center), 1, eps)
    band = BandWitness(r=2, a=eps, t=1)
    cyl = Cylinder(dim=2, index_set=(1,), center=TorusPoint.of(center), eta=eps)
    for region, oracle in ((ball, ball_contains), (band, band_contains), (cyl, cylinder_contains)):
        got = region.orbit_contains(beta, np.array(ns, dtype=np.int64), e)
        assert got.tolist() == [oracle(region, x) for x in points]
    dtype = orbit_residues(np.array(ns), e, 1, modulus).dtype
    assert dtype == (np.int64 if modulus <= INT64_EDGE else object)


@pytest.mark.parametrize("e", [1, 2])
def test_orbit_deviations_at_the_convergent_cap(e):
    # at the 2^62 cap with eps = 1/16, sqrt2 puts Q above 2^63 and golden just below
    beta = [named_convergent("sqrt2", 2**62), named_convergent("golden", 2**62)]
    moduli = [math.lcm(b.denominator, 16) for b in beta]
    assert moduli[0] >= 2**63 > moduli[1] > INT64_EDGE
    center = ["1/2", "1/3"]
    ns = list(range(1, 200)) + [10**6 + 3, 2**40 - 1]
    got = orbit_deviations(beta, center, "1/16", np.array(ns, dtype=np.int64), e)
    assert got.tolist() == oracle_deviations(beta, center, "1/16", ns, e)


def test_orbit_deviations_per_coordinate_multipliers():
    # grid points w/q, one column per coordinate, against the cylinder oracle
    q = 9
    cyl = Cylinder(dim=2, index_set=(1, 2), center=TorusPoint.of(["2/9", "1/2"]), eta="5/18")
    points = np.indices((q, q)).reshape(2, -1).T
    inside = orbit_deviations([Fraction(1, q)] * 2, cyl.center.coords, cyl.eta, points) == 0
    oracle = [cylinder_contains(cyl, TorusPoint.of([Fraction(a, q) for a in w])) for w in points.tolist()]
    assert inside.tolist() == oracle
    assert cyl.orbit_contains([Fraction(1, q)] * 2, points).tolist() == oracle
    assert 0 < sum(oracle) < q * q


def test_orbit_deviations_rejects_bad_shapes():
    with pytest.raises(ValueError):
        orbit_deviations(["1/3", "1/5"], ["0"], "1/4", np.arange(3))
    with pytest.raises(ValueError):
        orbit_deviations(["1/3", "1/5"], ["0", "0"], "1/4", np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        orbit_deviations(["1/3"], ["0"], "1/4", np.arange(3), e=3)


# ---- serialization ----


def test_point_json_roundtrip():
    p = TorusPoint.of(["1/3", "2/7", 0])
    assert TorusPoint.from_json(p.to_json()) == p
    assert p.to_json() == ["1/3", "2/7", "0/1"]


def test_ball_json_roundtrip():
    ball = ApproxHammingBall(center=TorusPoint.of(["1/2", "1/3"]), k=1, eps="1/4")
    assert ball.to_json() == {"r": 2, "y": ["1/2", "1/3"], "k": 1, "eps": "1/4"}


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.25)
