"""Skew-product orbits, correlation averages, and intersection scans."""

import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reclab import weyl
from reclab.experiments import _TRIG_BETA, _random_trig_table
from reclab.harmonic import Character, CoefficientTable, GridFunction, annihilating_cylinder
from reclab.roth import product_dtype, roth_form_exact
from reclab.torus import ApproxHammingBall, Cylinder, TorusPoint, orbit_residues
from reclab.weyl import (
    AveragesTrace,
    GridWeylModel,
    RotationModel,
    WeylSystem,
    kronecker_projection,
    marginal_form_exact,
    max_triple_intersection,
    trig_progression_form,
    triple_integrals,
    weighted_average,
)

from oracles import (
    FULL_DIRECTION,
    FULL_WINDOW,
    ObservablePair,
    checkpoint_averages_by_fraction_sum,
    correlation_series_triple_loop,
    evaluate_table,
    float_checkpoint_averages_by_segment,
    float_checkpoint_averages_per_term,
    grid_model_from_system,
    l3_average,
    marginal_form_by_fraction_means,
    pullback,
    pullback_by_index_grids,
    roth_form_exact_roll_loop,
    scaled,
    series_phases,
    series_terms_triple_loop,
    trig_triple_integral,
    triple_integral,
    triple_integrals_per_n,
    unit,
    weighted_average_per_term,
    zero_point,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def torus_points(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(TorusPoint.of)


def exact_grid(rng, shape, span=4):
    vals = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        vals[idx] = Fraction(rng.randrange(span), span)
    return vals


def hermitian_table(rng, dim, freqs, scale=0.2):
    table = CoefficientTable(dim)
    table[Character((0,) * dim)] = rng.uniform(0.2, 0.8)
    for freq in freqs:
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        table[Character(freq)] = table[Character(freq)] + c
        conj = Character(tuple(-a for a in freq))
        table[conj] = table[conj] + c.conjugate()
    return table


def grid_pullback(model, values, n):
    """f o T^n through the production gather, for raw grid values."""
    return model.pullback_values(model._windows(np.asarray(values)), [n])[0]


# ---- orbits ----


def test_orbit_identity_at_zero_power():
    model = GridWeylModel(7, (3, 2))
    values = np.arange(7**4).reshape(model.phase_space_shape)
    assert np.array_equal(grid_pullback(model, values, 0), values)


def test_orbit_three_steps_by_hand():
    # alpha = 1 on Z_5: the origin runs to (1, 0), (2, 1), (3, 3), so the
    # point mass at (3, 3) pulls back along that orbit to the origin
    model = GridWeylModel(5, (1,))
    mass = np.zeros((5, 5), dtype=np.int64)
    mass[3, 3] = 1
    for n, point in ((1, (2, 1)), (2, (1, 0)), (3, (0, 0))):
        assert list(zip(*np.nonzero(grid_pullback(model, mass, n)))) == [point]


@given(
    q=st.integers(1, 7),
    alpha=st.lists(st.integers(0, 50), min_size=1, max_size=2),
    n=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=40)
def test_orbit_matches_iterated_map(q, alpha, n):
    # f o S^n by the closed form equals n single steps f o S o ... o S
    model = GridWeylModel(q, tuple(alpha))
    values = np.arange(q ** (2 * len(alpha))).reshape(model.phase_space_shape)
    iterated = values
    for _ in range(n):
        iterated = grid_pullback(model, iterated, 1)
    assert np.array_equal(grid_pullback(model, values, n), iterated)


def test_orbit_inverse_power_returns_home():
    model = GridWeylModel(9, (2,))
    values = np.arange(81).reshape(9, 9)
    forward = grid_pullback(model, values, 13)
    assert np.array_equal(grid_pullback(model, forward, -13), values)


def test_orbit_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        grid_pullback(GridWeylModel(5, (1,)), np.zeros((5, 5, 5, 5)), 1)


# ---- pullback of trig polynomials ----


def test_eigenfunction_invariant():
    # a character in x alone is an eigenfunction: one application of the
    # map multiplies it by the exact root of unity at frequency . alpha
    system = WeylSystem(TorusPoint.of([Fraction(1, 5), Fraction(1, 3)]))
    chi = Character((3, -1, 0, 0))
    table = CoefficientTable(4)
    table[chi] = 1.0
    for n in (1, 2, 7):
        pulled = pullback(system, table, n)
        assert [c for c, _ in pulled] == [chi]
        phase = Fraction(n) * (3 * Fraction(1, 5) - Fraction(1, 3))
        expected = np.exp(2j * np.pi * float(phase % 1))
        assert abs(pulled[chi] - expected) < 1e-12


def test_pullback_composes_like_the_map():
    rng = random.Random(11)
    system = WeylSystem(TorusPoint.of([Fraction(2, 7)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -1)])
    once = pullback(system, pullback(system, table, 3), 4)
    whole = pullback(system, table, 7)
    assert set(c.freq for c, _ in once) == set(c.freq for c, _ in whole)
    for chi, coef in whole:
        assert abs(once[chi] - coef) < 1e-12


def test_pullback_needs_doubled_dimension():
    system = WeylSystem(TorusPoint.of([Fraction(1, 3)]))
    table = CoefficientTable(3)
    table[Character((1, 0, 0))] = 1.0
    with pytest.raises(ValueError):
        pullback(system, table, 1)


# ---- triple integrals, dual routes ----


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_correlation_series_matches_scalar_route(seed):
    rng = random.Random(seed)
    den = rng.choice([5, 7, 9, 16])
    system = WeylSystem(TorusPoint.of([Fraction(rng.randrange(1, den), den)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -2), (2, 1)])
    n_max = rng.randrange(1, 25)
    series = system.correlation_series(table, n_max)
    for n in range(1, n_max + 1):
        assert abs(series[n - 1] - trig_triple_integral(system, table, n)) < 1e-10


def test_grid_and_trig_integrals_agree_without_aliasing():
    # observables in x alone do not grow frequencies under pullback, so
    # on a grid larger than the frequency spread the two backends see
    # the same integral
    system = WeylSystem(TorusPoint.of([Fraction(2, 7)]))
    table = CoefficientTable(2)
    table[Character((0, 0))] = 0.4
    table[Character((1, 0))] = 0.2 - 0.1j
    table[Character((-1, 0))] = 0.2 + 0.1j
    table[Character((2, 0))] = 0.05j
    table[Character((-2, 0))] = -0.05j
    model = grid_model_from_system(system)
    values = np.array(
        [
            [evaluate_table(table, TorusPoint.of([Fraction(i, 7), Fraction(j, 7)]))
             for j in range(7)]
            for i in range(7)
        ]
    )
    # a complex grid is no grid model observable; the per-n oracle takes it
    for n, value in zip(range(0, 15), triple_integrals_per_n(model, values, range(0, 15))):
        assert abs(value - trig_triple_integral(system, table, n)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_weyl_grid_pullback_is_the_orbit_substitution(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 4, 5, 6])
    model = GridWeylModel(q, (rng.randrange(q),))
    values = np.arange(q * q).reshape(q, q)
    n = rng.randrange(0, 3 * q)
    out = grid_pullback(model, values, n)
    binom = n * (n - 1) // 2
    for x in range(q):
        for y in range(q):
            xx = (x + n * model.alpha[0]) % q
            yy = (y + n * x + binom * model.alpha[0]) % q
            assert out[x, y] == values[xx, yy]


def pullback_by_slice_rolls(model, values, n):
    """The skew-product pullback as one np.roll per x-slice: the gather's oracle."""
    d, q = model.d, model.q
    n = int(n)
    binom = (n * (n - 1) // 2) % q
    xshift = tuple(-(n * a) % q for a in model.alpha)
    shifted = np.roll(values, shift=xshift, axis=tuple(range(d)))
    out = np.empty_like(values)
    yaxes = tuple(range(d))
    for x in np.ndindex(*(q,) * d):
        yshift = tuple(-((n * xi + binom * a) % q) for xi, a in zip(x, model.alpha))
        out[x] = np.roll(shifted[x], shift=yshift, axis=yaxes)
    return out


@given(
    q=st.integers(1, 6),
    alpha=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=2),
    n=st.one_of(
        st.integers(-60, 60), st.integers(2**63, 2**90), st.integers(-(2**90), -(2**63))
    ),
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(q=6, alpha=[5, 2], n=2**63 + 7, exact=True, seed=0)
@example(q=4, alpha=[3, 1], n=-9, exact=False, seed=1)
@example(q=6, alpha=[3], n=-(2**64) - 1, exact=True, seed=2)
@settings(max_examples=80)
def test_weyl_grid_pullback_gather_matches_slice_rolls(q, alpha, n, exact, seed):
    rng = random.Random(seed)
    model = GridWeylModel(q, tuple(alpha))
    shape = model.phase_space_shape
    if exact:
        values = exact_grid(rng, shape, span=7) - Fraction(1, 3)
    else:
        values = np.array([rng.randint(-5, 5) for _ in range(q ** len(shape))]).reshape(shape)
    out = grid_pullback(model, values, n)
    expected = pullback_by_slice_rolls(model, values, n)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "model",
    [RotationModel(5, (2,)), RotationModel(4, (1, 2)), RotationModel(3, (1, 0, 2)),
     RotationModel(2, (1,) * 6), GridWeylModel(3, (1, 2, 1)), GridWeylModel(2, (1, 0, 1))],
)
def test_grid_pullback_gather_matches_the_index_grids_in_every_dimension(model):
    shape = model.phase_space_shape
    values = np.arange(int(np.prod(shape))).reshape(shape)
    for n in (0, 1, 2, -3, 7, 2**64 + 5):
        out = grid_pullback(model, values, n)
        assert out.shape == shape and out.dtype == values.dtype
        assert np.array_equal(out, pullback_by_index_grids(model, values, n))


@pytest.mark.parametrize("model", [RotationModel(4, (1,) * 7), GridWeylModel(2, (1,) * 7)])
def test_triple_integrals_hold_memory_linear_in_the_grid(model):
    # 2^14 cells: doubling every shifted axis would build 2^7 copies of the grid,
    # while the windows of the last axis need a few grids, plus the blocks of at
    # most 8192 entries in which numpy buffers each broadcast index array
    rng = random.Random(12)
    size = int(np.prod(model.phase_space_shape))
    f = np.array([rng.randint(-3, 3) for _ in range(size)], dtype=np.int64)
    f = f.reshape(model.phase_space_shape)
    ns = [1, 2, 3, -1]
    want = triple_integrals_per_n(model, f, ns)
    tracemalloc.start()
    try:
        got = triple_integrals(model, f, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 6 * f.nbytes + f.ndim * 8192 * 8


def test_triple_integrals_driver_routes_agree():
    rng = random.Random(5)
    system = WeylSystem(TorusPoint.of([Fraction(3, 11)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1)])
    fast = system.correlation_series(table, 12)
    slow = [trig_triple_integral(system, table, n) for n in range(1, 13)]
    assert max(abs(a - b) for a, b in zip(fast, slow)) < 1e-10
    chosen = system.correlation_series(table, 9, at=np.array([2, 4, 9]))
    assert max(abs(a - trig_triple_integral(system, table, n)) for a, n in zip(chosen, [2, 4, 9])) < 1e-12


def random_table(rng, d, span, size):
    """A table on T^d x T^d with complex coefficients and no symmetry."""
    table = CoefficientTable(2 * d)
    for _ in range(size):
        freq = tuple(rng.randint(-span, span) for _ in range(2 * d))
        table[Character(freq)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return table


def drift_hits(table, d):
    """Every n at which a nonzero-drift family of matching triples is active."""
    entries = [(chi.freq[:d], chi.freq[d:]) for chi, _ in table]
    hits = []
    for nu0, mu0 in entries:
        for nu1, mu1 in entries:
            for nu2, mu2 in entries:
                if any(a + b + c for a, b, c in zip(mu0, mu1, mu2)):
                    continue
                drift = [b + 2 * c for b, c in zip(mu1, mu2)]
                base = [a + b + c for a, b, c in zip(nu0, nu1, nu2)]
                ns = {Fraction(-bs, dr) for bs, dr in zip(base, drift) if dr}
                if any(drift) and len(ns) == 1 and all(
                    bs + n * dr == 0 for n in ns for bs, dr in zip(base, drift)
                ):
                    n = ns.pop()
                    if n.denominator == 1:
                        hits.append(int(n))
    return hits


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# a prime whose int64 residues fit every product, 2^62 <= (L - 1)^2 < 2^63, but
# not the sum of two products; and one beyond int64 products, (L - 1)^2 >= 2^63
OVERFLOW_BAND_DEN = 3037000493
PYTHON_INT_DEN = 2**61 - 1
#: rotation denominators, one drawn per coordinate: two different ones put the
#: lcm L of the series beyond the denominator of a family in one coordinate
SERIES_DENS = [2, 5, 12, 97, 999999937, 1000000007, OVERFLOW_BAND_DEN, PYTHON_INT_DEN]


@given(
    d=st.integers(1, 2),
    dens=st.lists(st.sampled_from(SERIES_DENS), min_size=2, max_size=2),
    size=st.integers(1, 9),
    n_max=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_correlation_series_matches_the_triple_loop_bit_for_bit(d, dens, size, n_max, seed):
    rng = random.Random(seed)
    system = WeylSystem(TorusPoint.of([Fraction(rng.randrange(den), den) for den in dens[:d]]))
    table = random_table(rng, d, 6, size)
    got = system.correlation_series(table, n_max)
    assert_same_bits(got, correlation_series_triple_loop(system, table, n_max))


@pytest.mark.parametrize("d", [1, 2])
def test_correlation_series_drift_families_inside_and_outside_the_horizon(d):
    # families active at n = 2..40 and at n <= 0; every n_max from 1 to 60
    # puts some of them inside 1..n_max and others outside it
    rng = random.Random(d)
    alpha = TorusPoint.of([Fraction(3, 7), Fraction(5, 11)][:d])
    system = WeylSystem(alpha)
    table = CoefficientTable(2 * d)
    zero = (0,) * d
    table[Character(zero + zero)] = 0.5
    for a in (2, 9, 17, 40, -3):
        nu = (a,) + (0,) * (d - 1)
        mu = (1,) + (0,) * (d - 1)
        table[Character(nu + mu)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        table[Character(nu + tuple(-m for m in mu))] = complex(rng.uniform(-1, 1), 0.25)
    if d == 2:
        # drift (-1, -1) with bases (5, 7) and (6, 6): the coordinates disagree
        # on n in the first family and agree on n = 6 in the second
        table[Character((5, 3, 1, 1))] = 0.3j
        table[Character((0, 4, -1, -1))] = 0.2
        table[Character((1, 3, -1, -1))] = -0.1j
    hits = drift_hits(table, d)
    assert min(hits) <= 0 and max(hits) >= 60
    assert len({n for n in hits if 1 <= n <= 60}) >= 10
    for n_max in range(1, 61):
        got = system.correlation_series(table, n_max)
        assert_same_bits(got, correlation_series_triple_loop(system, table, n_max))


@given(
    d=st.integers(1, 2),
    dens=st.lists(st.sampled_from(SERIES_DENS), min_size=2, max_size=2),
    size=st.integers(1, 9),
    n_max=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_correlation_series_at_chosen_n_has_the_bits_of_the_whole_series(
    d, dens, size, n_max, seed, data
):
    rng = random.Random(seed)
    system = WeylSystem(TorusPoint.of([Fraction(rng.randrange(den), den) for den in dens[:d]]))
    table = random_table(rng, d, 6, size)
    chosen = data.draw(st.sets(st.integers(1, n_max)))
    at = np.array(sorted(chosen), dtype=np.int64)
    got = system.correlation_series(table, n_max, at=at)
    assert_same_bits(got, system.correlation_series(table, n_max)[at - 1])


@pytest.mark.parametrize("den, dtype", [(OVERFLOW_BAND_DEN, np.int64), (PYTHON_INT_DEN, object)])
def test_correlation_series_far_out_matches_the_pointwise_integral(den, dtype):
    # n near sqrt(L) and beyond: residues as large as L - 1 meet phase
    # numerators as large, where an unreduced int64 sum would overflow
    assert 2**62 <= (OVERFLOW_BAND_DEN - 1) ** 2 < 2**63 <= (PYTHON_INT_DEN - 1) ** 2
    assert orbit_residues(np.arange(3), 1, 1, den).dtype == dtype
    rng = random.Random(den)
    system = WeylSystem(TorusPoint.of([Fraction(den - 2, den), Fraction(den // 3, den)]))
    # y-frequencies mu_1 = -2 mu_2 != 0 with x-frequencies that do not cancel in
    # pairs: families whose phases a n + b n^2 have both a and b nonzero
    table = hermitian_table(rng, 4, [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 2, 0), (0, 2, 0, 2)])
    at = np.array(sorted(rng.sample(range(10**9, 10**12), 40)), dtype=np.int64)
    got = system.correlation_series(table, int(at[-1]), at=at)
    for n, v in zip(at.tolist(), got):
        assert abs(v - trig_triple_integral(system, table, n)) < 1e-9


@pytest.mark.parametrize(
    "dens", [(999999937, 1000000007), (5, PYTHON_INT_DEN), (OVERFLOW_BAND_DEN, 2), (12, 97)]
)
def test_series_of_families_with_different_denominators_matches_the_triple_loop(dens):
    # each family lives in one coordinate, so its denominator is a proper divisor
    # of the lcm L that the shared residues are taken mod
    rng = random.Random(sum(dens))
    system = WeylSystem(TorusPoint.of([Fraction(den // 2 + 1, den) for den in dens]))
    table = hermitian_table(rng, 4, [(1, 0, 1, 0), (2, 0, 2, 0), (0, 1, 0, 1), (0, 2, 0, 2)])
    want = correlation_series_triple_loop(system, table, 400)
    assert_same_bits(system.correlation_series(table, 400), want)


def test_correlation_series_at_chosen_n_rejects_a_bad_vector():
    system = WeylSystem(TorusPoint.of([Fraction(1, 3)]))
    table = hermitian_table(random.Random(1), 2, [(1, 0), (0, 1)])
    assert system.correlation_series(table, 5, at=np.array([], dtype=np.int64)).shape == (0,)
    for at in ([0, 1], [1, 6], [2, 2], [3, 1], [[1, 2]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            system.correlation_series(table, 5, at=np.array(at))


#: the default rotation part of a trig config, a convergent of sqrt 2
TRIG_ALPHA = Fraction(768398401, 543339720)


@pytest.mark.parametrize("n_max", [16383, 16384])
def test_series_multiplies_in_the_operand_order_of_the_whole_horizon(monkeypatch, n_max):
    # numpy multiplies c * P as P * c from 16384 entries up, and on this
    # table the two orders round differently
    system = WeylSystem(TorusPoint.of([TRIG_ALPHA]))
    table, _ = _random_trig_table(6, 1)
    want = correlation_series_triple_loop(system, table, n_max)
    assert_same_bits(system.correlation_series(table, n_max), want)
    at = np.arange(1, n_max + 1, 7)
    assert_same_bits(system.correlation_series(table, n_max, at=at), want[at - 1])
    # the other order changes bits, so the check above can tell them apart
    flip = 1 if n_max < weyl.ELIDED_PRODUCT_TERMS else n_max + 1
    monkeypatch.setattr(weyl, "ELIDED_PRODUCT_TERMS", flip)
    flipped = system.correlation_series(table, n_max)
    assert not np.array_equal(flipped.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("n_max", [3000, 16383, 16384])
def test_windowed_trig_average_matches_the_full_series_route(seed, n_max):
    system = WeylSystem(TorusPoint.of([TRIG_ALPHA]))
    table, _ = _random_trig_table(6, seed)
    ball = ApproxHammingBall(zero_point(5), 4, Fraction(1, 8))
    args = (annihilating_cylinder(ball, []), _TRIG_BETA[:5], n_max)
    got = weighted_average(system, table, *args)
    # the oracle sums the whole series over 1..n_max, one term per n
    full = weighted_average_per_term(system, table, *args)
    assert 0 < got.window_hits < n_max
    assert [repr(pt) for pt in got.checkpoints] == [repr(pt) for pt in full.checkpoints]
    assert got.to_csv() == full.to_csv() and got.window_hits == full.window_hits


def trig_run_table(seed):
    """The system and polynomial of a default main_inequality trig run at config seed ``seed``."""
    return WeylSystem(TorusPoint.of([TRIG_ALPHA])), _random_trig_table(6, seed)[0]


#: block sizes of the stream, each with the horizons it is checked at
STREAM_BLOCKS = [
    (1, [3000]),
    (7, [3000, 16385]),
    (64, [16383, 16384, 32769]),
    (2**14, [3000, 16383, 16384, 16385, 32769, 100000]),
]


@pytest.mark.parametrize("seed", [1, 7, 11])
@pytest.mark.parametrize("windowed", [False, True], ids=["no-window", "window"])
@pytest.mark.parametrize("block, horizons", STREAM_BLOCKS, ids=[str(b) for b, _ in STREAM_BLOCKS])
def test_streamed_trig_average_has_the_bits_of_the_whole_series(
    monkeypatch, seed, windowed, block, horizons
):
    system, table = trig_run_table(seed)
    window, direction = FULL_WINDOW, FULL_DIRECTION
    if windowed:
        ball = ApproxHammingBall(zero_point(5), 4, Fraction(1, 8))
        window, direction = annihilating_cylinder(ball, []), _TRIG_BETA[:5]
    monkeypatch.setattr("reclab.torus.SCAN_BLOCK", block)
    for n_max in horizons:
        got = weighted_average(system, table, window, direction, n_max)
        # the oracle sums the whole series over 1..n_max, one term per n
        want = weighted_average_per_term(system, table, window, direction, n_max)
        assert [repr(pt) for pt in got.checkpoints] == [repr(pt) for pt in want.checkpoints]
        assert got.to_csv() == want.to_csv() and got.window_hits == want.window_hits


def windowed_trig_peak(n_max):
    """The tracemalloc peak of one windowed average of the config-seed-11 table over 1..n_max."""
    system, table = trig_run_table(11)
    ball = ApproxHammingBall(zero_point(5), 4, Fraction(1, 8))
    g = annihilating_cylinder(ball, [])
    tracemalloc.start()
    try:
        weighted_average(system, table, g, _TRIG_BETA[:5], n_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_windowed_trig_average_memory_does_not_grow_with_the_horizon():
    assert windowed_trig_peak(2_000_000) <= 1.25 * windowed_trig_peak(200_000)


class CallCounter:
    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


@st.composite
def phase_cases(draw):
    """alpha in T^d with denominators up to 10^9, and four frequency vectors in [-6, 6]^d."""
    d = draw(st.integers(1, 3))
    dens = draw(st.lists(st.integers(1, 10**9), min_size=d, max_size=d))
    alpha = tuple(Fraction(draw(st.integers(0, den - 1)), den) for den in dens)
    freqs = tuple(draw(st.tuples(*[st.integers(-6, 6)] * d)) for _ in range(4))
    return alpha, freqs


# the largest numerators: near-unit alphas over large coprime denominators
LARGE_ALPHA = (Fraction(10**9 - 1, 10**9), Fraction(999999936, 999999937), Fraction(96, 97))


@given(case=phase_cases(), hit=st.integers(1, 10**8))
@example(case=(LARGE_ALPHA, ((6, 6, 6),) * 4), hit=10**8)
@example(case=(LARGE_ALPHA, ((-6, 6, -6), (6, -6, 6), (-6, -6, -6), (6, 6, 6))), hit=99_999_989)
@settings(max_examples=200, deadline=None)
def test_series_phases_in_integers_match_the_fraction_oracle(case, hit):
    alpha, freqs = case
    weights, den = weyl._phase_weights(alpha)
    assert den == 2 * math.lcm(*(a.denominator for a in alpha))
    lin, quad = weyl._series_phases(*freqs, weights)
    want_lin, want_quad = series_phases(*freqs, alpha)
    assert (Fraction(lin, den), Fraction(quad, den)) == (want_lin, want_quad)
    # a drift term's phase at its hit, and the complex unit it turns into
    want = hit * want_lin + hit * hit * want_quad
    assert Fraction(hit * lin + hit * hit * quad, den) == want
    assert repr(weyl._unit(hit * lin + hit * hit * quad, den)) == repr(unit(want))


@pytest.mark.parametrize("seed", [1, 7, 11, 26])
def test_series_plan_terms_keep_the_bits_of_the_fraction_route(seed):
    # the drift terms' complex values by repr (so bit for bit), the families'
    # keys and coefficients, and the loop order, against Fraction phases
    system, table = trig_run_table(seed)
    for n_max in (1000, 100_000):
        plan = system.series_plan(table, n_max)
        want = series_terms_triple_loop(system, table, n_max)
        assert [hit for hit, _, _ in plan.terms] == [hit for hit, _, _ in want]
        assert any(hit for hit, _, _ in want)
        assert repr(plan.terms) == repr(tuple(want))


@pytest.mark.parametrize("den", [97, OVERFLOW_BAND_DEN, 3_037_000_500])
def test_family_phase_powers_agree_on_int64_and_python_int_residues(den):
    # at the int64 edge the reduced first product plus the second stays
    # below L + (L - 1)^2 < 2^63; the Python-int route reduces every sum
    assert (den - 1) ** 2 + den < 2**63
    top = den - 1
    r = np.array([0, 1, 2, top - 1, top], dtype=np.int64)
    a, b = Fraction(top, den), Fraction(den // 3, den)
    got = weyl._family_phase_powers(a, b, r, r[::-1].copy(), den)
    want = weyl._family_phase_powers(a, b, r.astype(object), r[::-1].astype(object), den)
    assert_same_bits(got, want)
    ph = [(int(x) * top + int(y) * (den // 3)) % den for x, y in zip(r, r[::-1])]
    assert_same_bits(got, np.exp(2j * np.pi * (np.array(ph, dtype=np.float64) / den)))


def test_weighted_average_on_a_system_runs_one_series(monkeypatch):
    # the triples are enumerated once, however many blocks the horizon takes
    rng = random.Random(8)
    system = WeylSystem(TorusPoint.of([Fraction(2, 9)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -2)])
    g = Cylinder(1, (1,), zero_point(1), Fraction(1, 4))
    monkeypatch.setattr("reclab.torus.SCAN_BLOCK", 7)
    plans = CallCounter(monkeypatch, WeylSystem, "series_plan")
    weighted_average(system, table, g, [Fraction(1, 7)], 300)
    assert plans.calls == 1


def test_families_sharing_a_phase_share_one_phase_vector_per_block(monkeypatch):
    # the config-seed-7 table has 13 zero-drift families over 9 distinct (a, b)
    system, table = trig_run_table(7)
    plan = system.series_plan(table, 20000)
    keys = [key for hit, _, key in plan.terms if not hit]
    assert (len(keys), len(set(keys))) == (13, 9)
    calls = CallCounter(monkeypatch, weyl, "_family_phase_powers")
    want = correlation_series_triple_loop(system, table, 20000)
    assert_same_bits(system.correlation_series(table, 20000), want)
    assert calls.calls == 9
    # one vector per distinct (a, b) in each block of the stream
    calls.calls = 0
    monkeypatch.setattr("reclab.torus.SCAN_BLOCK", 4096)
    args = (FULL_WINDOW, FULL_DIRECTION, 20000)
    trace = weighted_average(system, table, *args)
    assert calls.calls == 9 * 5
    assert trace.checkpoints == weighted_average_per_term(system, table, *args).checkpoints
    # phases are shared mod 1: with alpha = 1/3 the families of a table in x
    # alone have a = (nu_1 + 2 nu_2) / 3, many values but three mod 1
    calls.calls = 0
    system = WeylSystem(TorusPoint.of([Fraction(1, 3)]))
    table = hermitian_table(random.Random(3), 2, [(1, 0), (2, 0)])
    want = correlation_series_triple_loop(system, table, 50)
    assert_same_bits(system.correlation_series(table, 50), want)
    assert calls.calls == 3


def test_triple_integrals_refer_the_trig_backend_to_its_series():
    rng = random.Random(9)
    system = WeylSystem(TorusPoint.of([Fraction(4, 13)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (2, -1)])
    with pytest.raises(TypeError, match="correlation_series"):
        triple_integrals(system, table, range(1, 41))
    # the series at the distinct n of a request, over 1..max(n), has the bits
    # of the whole series there
    want = system.correlation_series(table, 40)
    for ns in ([1, 2, 4], [2, 3], range(2, 10), range(1, 10, 2), [3, 2, 1], [40, 40]):
        at = np.unique(np.asarray(ns))
        got = system.correlation_series(table, int(at[-1]), at=at)
        assert_same_bits(got[np.searchsorted(at, ns)], want[np.asarray(ns) - 1])


@given(
    den=st.sampled_from([5, 7, 9, 16, 97]),
    seed=st.integers(0, 2**32 - 1),
    ns=st.lists(st.integers(1, 40), min_size=1, max_size=8).filter(
        lambda ns: ns != list(range(1, len(ns) + 1))
    ),
)
@settings(max_examples=40)
def test_triple_integrals_of_any_request_match_the_pointwise_oracle(den, seed, ns):
    rng = random.Random(seed)
    system = WeylSystem(TorusPoint.of([Fraction(rng.randrange(1, den), den)]))
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -2), (2, 1)])
    at = np.unique(ns)
    got = system.correlation_series(table, int(at[-1]), at=at)[np.searchsorted(at, ns)]
    assert len(got) == len(ns)
    for value, n in zip(got, ns):
        assert abs(value - trig_triple_integral(system, table, n)) < 1e-10


# ---- one evaluation per distinct grid integral ----

GRID_DTYPES = ("int64", "bool", "fraction", "wide")


def grid_observable(rng, shape, dtype):
    size = int(np.prod(shape))
    if dtype == "int64":
        flat = np.array([rng.randint(-9, 9) for _ in range(size)], dtype=np.int64)
    elif dtype == "bool":
        flat = np.array([rng.random() < 0.5 for _ in range(size)], dtype=bool)
    elif dtype == "fraction":
        flat = np.array([Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(size)],
                        dtype=object)
    elif dtype == "wide":
        # int64 entries whose cubes overflow, the int64 minimum among them: Python ints
        flat = np.array([rng.randint(-(2**40), 2**40) for _ in range(size)], dtype=np.int64)
        flat[rng.randrange(size)] = np.iinfo(np.int64).min
    return flat.reshape(shape)


@st.composite
def grid_models(draw):
    kind = draw(st.sampled_from(["odd", "even", "rotation"]))
    d = draw(st.integers(1, 2))
    if kind == "rotation":
        q = draw(st.sampled_from([4, 6, 8, 9]))
        step = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
                    .filter(lambda s: np.gcd(s[0], q) > 1))
        model = RotationModel(q, tuple(step))
        assert not model.is_generating
        return model
    q = draw(st.sampled_from([1, 3, 5] if kind == "odd" else [2, 4, 6]))
    alpha = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    if kind == "even":
        alpha[0] = 2 * alpha[0] + 1
    model = GridWeylModel(q, tuple(alpha))
    assert model.period == (q if kind == "odd" else 2 * q)
    return model


@given(
    model=grid_models(),
    dtype=st.sampled_from(GRID_DTYPES),
    ns=st.lists(
        st.one_of(
            st.integers(-40, 40), st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63))
        ),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(model=GridWeylModel(5, (2,)), dtype="fraction", ns=[1, 2, 3, 4], seed=0)
@example(model=GridWeylModel(3, (1, 2)), dtype="int64", ns=[2, -1, 2**64 + 1], seed=1)
@example(model=GridWeylModel(4, (1,)), dtype="int64", ns=[1, 5, 9, 2**63 + 1], seed=2)
@example(model=RotationModel(6, (2,)), dtype="fraction", ns=[5, -1, 2, 0], seed=3)
@example(model=RotationModel(4, (2, 1)), dtype="wide", ns=[3, -7, 1], seed=4)
@example(model=GridWeylModel(6, (3, 1)), dtype="bool", ns=[-5, 7, 2**63], seed=5)
@example(model=GridWeylModel(1, (0,)), dtype="wide", ns=[0, 0], seed=0)
@settings(max_examples=80)
def test_triple_integrals_match_the_per_n_oracle_exactly(model, dtype, ns, seed):
    # repeats, n = 0 and an unsorted order on top of the drawn n
    rng = random.Random(seed)
    ns = ns + ns[: len(ns) // 2] + [0]
    rng.shuffle(ns)
    f = grid_observable(rng, model.phase_space_shape, dtype)
    got = triple_integrals(model, f, ns)
    want = triple_integrals_per_n(model, f, ns)
    assert got == want
    # repr pins the type
    assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.parametrize("dtype", GRID_DTYPES)
@pytest.mark.parametrize(
    "model",
    [GridWeylModel(5, (2,)), GridWeylModel(6, (1,)), GridWeylModel(3, (1, 2)),
     RotationModel(9, (3,)), RotationModel(7, (3,))],
    ids=["weyl-5", "weyl-6-period-12", "weyl-3-d2", "rotation-9-step-3", "rotation-7"],
)
def test_triple_integrals_evaluate_each_distinct_key_once(monkeypatch, model, dtype):
    period = model.period
    f = grid_observable(random.Random(period), model.phase_space_shape, dtype)
    ns = range(1, 3 * period + 1)
    want = triple_integrals_per_n(model, f, ns)
    calls = []
    gather = type(model).pullback_values

    def counted(self, windows, keys):
        calls.append(list(keys))
        return gather(self, windows, keys)

    monkeypatch.setattr(type(model), "pullback_values", counted)
    assert triple_integrals(model, f, ns) == want
    # one block is one gather at its keys n followed by their doubles 2n
    blocks = [call[: len(call) // 2] for call in calls]
    assert calls == [block + [2 * n for n in block] for block in blocks]
    keys = [n for block in blocks for n in block]
    assert len(keys) <= period // 2 + 1
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted({min(n % period, period - n % period) for n in ns})


@pytest.mark.parametrize("dtype", ["int64", "fraction", "wide"])
@pytest.mark.parametrize(
    "model",
    [GridWeylModel(7, (2,)), GridWeylModel(4, (1, 1)), RotationModel(13, (3,)),
     RotationModel(7, (1, 2))],
    ids=["weyl-d1", "weyl-d2", "rotation-d1", "rotation-d2"],
)
@pytest.mark.parametrize("per_block", [1, 3, 10**6], ids=["one", "partial-last", "all"])
def test_triple_integrals_in_key_blocks_match_the_per_n_oracle(
    monkeypatch, model, dtype, per_block
):
    size = int(np.prod(model.phase_space_shape))
    f = grid_observable(random.Random(size), model.phase_space_shape, dtype)
    # a block gathers each key and its double in the lifted dtype, within the
    # bytes of SCAN_BLOCK int64 cells: the least budget that holds per_block keys
    itemsize = weyl._lifted_windows(model, f).values.itemsize
    monkeypatch.setattr(weyl, "SCAN_BLOCK", -(-per_block * 2 * size * itemsize // 8))
    blocks = []
    gather = type(model).pullback_values

    def counted(self, windows, keys):
        blocks.append(len(keys) // 2)
        return gather(self, windows, keys)

    monkeypatch.setattr(type(model), "pullback_values", counted)
    ns = list(range(-3, 2 * model.period + 2))
    got = triple_integrals(model, f, ns)
    assert [repr(v) for v in got] == [repr(v) for v in triple_integrals_per_n(model, f, ns)]
    distinct = model.period // 2 + 1
    assert sum(blocks) == distinct
    assert blocks[:-1] == [min(per_block, distinct)] * (len(blocks) - 1)
    if per_block == 3:
        # more than one block, the last one partial
        assert len(blocks) > 1 and blocks[-1] == distinct % 3 != 0


@pytest.mark.parametrize("model", [GridWeylModel(3, (1,)), GridWeylModel(2, (1, 1)),
                                   RotationModel(5, (2,)), RotationModel(3, (1, 2))])
def test_triple_integrals_lift_past_the_int64_bound_exactly(model):
    # a constant m integrates to m^3; at size * m^3 >= 2^62 an int64 sum could
    # wrap (and does from 2^63 on), so the kernel switches to Python ints there
    size = int(np.prod(model.phase_space_shape))
    edge = round((2**62 / size) ** (1 / 3))
    for m in (edge - 2, edge - 1, edge, edge + 1, edge * 7 // 5, 2**21, 2**40, -(2**40)):
        f = np.full(model.phase_space_shape, m, dtype=np.int64)
        assert triple_integrals(model, f, [1, -3]) == [Fraction(m**3)] * 2


def cube_root_edge(size: int) -> int:
    """The largest m with size * m^3 < 2^62."""
    m = round((2**62 / size) ** (1 / 3))
    while size * m**3 >= 2**62:
        m -= 1
    while size * (m + 1) ** 3 < 2**62:
        m += 1
    return m


#: max|f| at each edge of the exact dtypes (the largest cube each holds, and
#: one past it) with the dtype its triple products take; "int8-min" is an
#: int8 grid holding -128, so its bound is 128^3
DTYPE_EDGES = {
    5: np.int8, 6: np.int16, 31: np.int16, 32: np.int32, 1290: np.int32, 1291: np.int64,
    "int8-min": np.int32, "bool": np.int8, "2^62-below": np.int64, "2^62-above": object,
    "fraction": object,
}
NARROWER = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}
EDGE_MODELS = [GridWeylModel(3, (1,)), GridWeylModel(2, (1, 1)), GridWeylModel(4, (1,)),
               RotationModel(5, (2,)), RotationModel(3, (1, 2))]


def edge_grid(rng: random.Random, shape: tuple[int, ...], edge) -> np.ndarray:
    """A grid of the given shape whose max|f| is exactly the edge."""
    size = int(np.prod(shape))
    if edge == "bool":
        flat = np.array([rng.random() < 0.5 for _ in range(size)], dtype=bool)
        flat[rng.randrange(size)] = True
        return flat.reshape(shape)
    if edge == "fraction":
        return grid_observable(rng, shape, "fraction")
    if edge == "int8-min":
        flat = np.array([rng.randint(-128, 127) for _ in range(size)], dtype=np.int8)
        flat[rng.randrange(size)] = -128
        return flat.reshape(shape)
    top = edge if isinstance(edge, int) else cube_root_edge(size) + (edge == "2^62-above")
    flat = np.array([rng.randint(-top, top) for _ in range(size)], dtype=np.int64)
    flat[rng.randrange(size)] = rng.choice([top, -top])
    return flat.reshape(shape)


@given(
    edge=st.sampled_from(list(DTYPE_EDGES)),
    model=st.sampled_from(EDGE_MODELS),
    ns=st.lists(st.integers(-12, 12), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_exact_kernels_take_the_narrowest_dtype_at_every_edge(edge, model, ns, seed):
    rng = random.Random(seed)
    f = edge_grid(rng, model.phase_space_shape, edge)
    want = DTYPE_EDGES[edge]
    lifted = weyl._lifted_windows(model, f).values
    if f.dtype != object:
        assert product_dtype(f.size, f, f, f) is want
        # the narrowest: one product fits this dtype and not the one below it
        top = max(int(f.max()), -int(f.min()), 1)
        if want is not object:
            assert top**3 <= np.iinfo(want).max
            if want is not np.int8:
                assert top**3 > np.iinfo(NARROWER[want]).max
    assert lifted.dtype == np.dtype(want)
    assert triple_integrals(model, f, ns) == triple_integrals_per_n(model, f, ns)
    g, h = (edge_grid(rng, model.phase_space_shape, edge) for _ in range(2))
    assert roth_form_exact(f, g, h) == roth_form_exact_roll_loop(f, g, h)


@given(
    model=grid_models(),
    dtype=st.sampled_from(["bool", "int64"]),
    steps=st.lists(st.integers(-3, 30), min_size=1, max_size=12),
    n_max=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(model=RotationModel(6, (2,)), dtype="int64", steps=[0, 3, 6, 9], n_max=9, seed=0)
@example(model=GridWeylModel(5, (1,)), dtype="bool", steps=[4, 1, 6, 5], n_max=6, seed=1)
@settings(max_examples=60, deadline=None)
def test_max_triple_intersection_takes_the_first_maximum_on_ties(
    model, dtype, steps, n_max, seed
):
    rng = random.Random(seed)
    size = int(np.prod(model.phase_space_shape))
    # few 0/1 levels and powers that share a key (n, P - n, n + P), so ties are common
    flat = np.array([rng.random() < 0.6 for _ in range(size)], dtype=bool)
    mask = flat.astype(dtype).reshape(model.phase_space_shape)
    candidates = sorted({n for n in steps if 0 <= n <= n_max})
    if not candidates:
        with pytest.raises(ValueError):
            max_triple_intersection(model, mask, steps, n_max)
        return
    integrals = triple_integrals_per_n(model, mask, candidates)
    best = max(integrals)
    want = candidates[integrals.index(best)]
    n_star, value = max_triple_intersection(model, mask, steps, n_max)
    assert (n_star, value) == (want, best)
    assert type(value) is Fraction


INEXACT_OBSERVABLES = {
    "float": lambda shape: np.full(shape, 0.5),
    "complex": lambda shape: np.full(shape, 0.5 + 0.5j),
    "grid-function": lambda shape: GridFunction(len(shape), shape[0], np.ones(shape)),
    "coefficient-table": lambda shape: CoefficientTable(len(shape)),
}


@pytest.mark.parametrize("kind", sorted(INEXACT_OBSERVABLES))
@pytest.mark.parametrize("model", [RotationModel(5, (2,)), GridWeylModel(3, (1,))],
                         ids=["rotation", "weyl"])
def test_grid_models_reject_inexact_observables(model, kind):
    f = INEXACT_OBSERVABLES[kind](model.phase_space_shape)
    with pytest.raises(TypeError, match="grid model needs"):
        triple_integrals(model, f, [1, 2])
    with pytest.raises(TypeError, match="grid model needs"):
        max_triple_intersection(model, f, [1, 2], 2)
    with pytest.raises(TypeError, match="grid model needs"):
        weighted_average(model, f, FULL_WINDOW, FULL_DIRECTION, model.period)
    g = Cylinder(1, (1,), zero_point(1), Fraction(1, 4))
    with pytest.raises(TypeError, match="grid model needs"):
        weighted_average(model, f, g, [Fraction(1, 7)], model.period)


# ---- finite models ----


def test_rotation_period_and_generating_flags():
    assert RotationModel(6, (4,)).period == 3
    assert not RotationModel(6, (4,)).is_generating
    assert RotationModel(5, (2,)).period == 5
    assert RotationModel(5, (2,)).is_generating
    # a cyclic orbit can never fill a two dimensional grid
    assert RotationModel(5, (1, 2)).period == 5
    assert not RotationModel(5, (1, 2)).is_generating


def test_rotation_pullback_is_plain_shift():
    model = RotationModel(7, (3,))
    values = np.arange(7)
    out = grid_pullback(model, values, 2)
    assert [out[x] for x in range(7)] == [values[(x + 6) % 7] for x in range(7)]


def test_integer_triple_integral_is_exact_at_the_int64_minimum():
    # abs() of the int64 minimum wraps, so the entry bound must not come from it
    low = int(np.iinfo(np.int64).min)
    values = np.array([low, 1], dtype=np.int64)
    assert triple_integrals(RotationModel(2, (1,)), values, [1]) == [Fraction(low * low + low, 2)]
    grid = np.array([[low, 1], [1, 1]], dtype=np.int64)
    model = GridWeylModel(2, (1,))
    ns = [1, 2, 3]
    assert triple_integrals(model, grid, ns) == triple_integrals_per_n(model, grid, ns)


def test_weyl_grid_period_values():
    assert GridWeylModel(7, (1,)).period == 7
    assert GridWeylModel(6, (1,)).period == 12
    assert GridWeylModel(6, (2,)).period == 6
    assert GridWeylModel(4, (2,)).period == 4


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_weyl_grid_period_is_the_order_of_the_map(seed):
    rng = random.Random(seed)
    q = rng.choice([2, 3, 4, 5, 6])
    model = GridWeylModel(q, (rng.randrange(q),))
    values = np.arange(q * q).reshape(q, q)
    period = model.period
    assert np.array_equal(grid_pullback(model, values, period), values)
    # and no proper divisor works
    for n in range(1, period):
        if period % n == 0 and not np.array_equal(grid_pullback(model, values, n), values):
            break
    divisors = [n for n in range(1, period) if period % n == 0]
    assert all(not np.array_equal(grid_pullback(model, values, n), values) for n in divisors)


def test_grid_model_from_system():
    system = WeylSystem(TorusPoint.of([Fraction(2, 7), Fraction(3, 7)]))
    model = grid_model_from_system(system)
    assert (model.q, model.alpha) == (7, (2, 3))
    with pytest.raises(ValueError):
        grid_model_from_system(system, q=5)


# ---- the projection onto the first coordinate ----


def test_projection_kills_pure_second_coordinate_terms():
    table = CoefficientTable(2)
    table[Character((0, 1))] = 0.5
    table[Character((0, -1))] = 0.5
    assert len(kronecker_projection(table, 1)) == 0


def test_projection_keeps_first_coordinate_terms():
    table = CoefficientTable(4)
    table[Character((2, -1, 0, 0))] = 1.5j
    table[Character((0, 1, 0, 0))] = -0.25
    table[Character((0, 0, 1, 0))] = 9.0
    projected = kronecker_projection(table, 2)
    assert projected.dim == 2
    assert projected[Character((2, -1))] == 1.5j
    assert projected[Character((0, 1))] == -0.25
    assert len(projected) == 2


def test_projection_rejects_a_split_point_outside_the_axes():
    for d in (0, 2):
        with pytest.raises(ValueError, match="split point"):
            kronecker_projection(CoefficientTable(2), d)
    assert kronecker_projection(CoefficientTable(3), d=1).dim == 1


def _exact_grid_of_kind(rng: np.random.Generator, shape: tuple[int, ...], kind: str) -> np.ndarray:
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    if kind == "int8":
        return rng.integers(-128, 128, shape).astype(np.int8)
    if kind == "int64":
        # block * max|f| passes 2^63, so the sums are Python integers
        return rng.integers(-(2**62), 2**62, shape)
    nums = rng.integers(-(2**40), 2**40, math.prod(shape)).tolist()
    dens = rng.integers(1, 6, len(nums)).tolist()
    # Python ints past int64 beside Fractions
    cells = [num << 30 if den == 1 else Fraction(num, den) for num, den in zip(nums, dens)]
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out.reshape(shape)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    q=st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
    kind=st.sampled_from(["bool", "int8", "int64", "object"]),
)
@settings(max_examples=40)
def test_marginal_form_exact_equals_the_fraction_mean_route(seed, d, q, kind):
    values = _exact_grid_of_kind(np.random.default_rng(seed), (q,) * (2 * d), kind)
    assert marginal_form_exact(values, d) == marginal_form_by_fraction_means(values, d)


def test_grid_closed_forms_are_the_exact_marginal_form():
    # object grids and rotations take the exact form; an integer skew grid keeps its float
    f = np.arange(9, dtype=np.int64).reshape(3, 3) % 4 - 1
    model = GridWeylModel(3, (1,))
    exact = marginal_form_exact(f, 1)
    assert weyl._closed_form(model, f.astype(object)) == exact
    assert weyl._closed_form(model, f) == pytest.approx(float(exact), abs=1e-15)
    assert isinstance(weyl._closed_form(model, f), float)
    rotation = RotationModel(9, (2,))
    assert weyl._closed_form(rotation, f.ravel()) == marginal_form_exact(f.ravel(), 1)


# ---- unweighted averages ----


def test_point_mass_rotation_average_is_exact():
    model = RotationModel(5, (1,))
    delta = np.full((5,), Fraction(0), dtype=object)
    delta[0] = Fraction(1)
    trace = l3_average(model, delta, model.period)
    assert trace.value == Fraction(1, 25)
    assert trace.closed_form == Fraction(1, 25)
    assert trace.value - trace.closed_form == 0
    # independent recount over all (n, x) pairs
    hits = sum(
        1
        for n in range(1, 6)
        for x in range(5)
        if x == 0 and (x + n) % 5 == 0 and (x + 2 * n) % 5 == 0
    )
    assert trace.value == Fraction(hits, 25)


def test_constant_observables():
    model = RotationModel(5, (1,))
    ones = np.full((5,), Fraction(1), dtype=object)
    trace = l3_average(model, ones, model.period)
    assert all(v == 1 for _, v in trace.checkpoints)
    c = Fraction(2, 3)
    assert l3_average(model, np.full((5,), c, dtype=object), model.period).value == c**3


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_generating_rotation_full_period_equals_closed_form(seed):
    # over one full period the orbit sweep is the progression sweep, so
    # the time average and the closed form are the same rational number
    rng = random.Random(seed)
    q = rng.choice([3, 4, 5, 7, 9])
    step = rng.choice([a for a in range(1, q) if np.gcd(a, q) == 1])
    model = RotationModel(q, (step,))
    trace = l3_average(model, exact_grid(rng, (q,)), model.period)
    assert trace.closed_form is not None
    assert trace.value - trace.closed_form == 0


def test_nongenerating_rotation_reports_no_closed_form():
    model = RotationModel(6, (2,))
    assert not model.is_generating
    trace = l3_average(model, np.full((6,), Fraction(1, 2), dtype=object), model.period)
    assert trace.closed_form is None


def test_skew_full_period_gap_is_a_finite_size_effect():
    # a genuinely skew observable on Z_3 x Z_3: the periodic model does
    # not reproduce the projected closed form, and the exact gap is 2/27
    model = GridWeylModel(3, (1,))
    f = np.full((3, 3), Fraction(0), dtype=object)
    f[0, 0] = f[1, 2] = f[2, 2] = Fraction(1)
    trace = l3_average(model, f, model.period)
    assert trace.value == Fraction(1, 9)
    assert trace.closed_form == Fraction(1, 27)
    assert trace.value - trace.closed_form == Fraction(2, 27)


def test_x_only_skew_observable_matches_closed_form_exactly():
    model = GridWeylModel(3, (1,))
    f = np.empty((3, 3), dtype=object)
    for i in range(3):
        f[i, :] = Fraction(i, 3)
    trace = l3_average(model, f, model.period)
    assert trace.value - trace.closed_form == 0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_averages_of_unit_range_observables_stay_in_unit_range(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 4, 5, 6])
    model = RotationModel(q, (rng.randrange(q),))
    mask = np.array([Fraction(rng.randrange(2)) for _ in range(q)], dtype=object)
    trace = l3_average(model, mask, model.period)
    assert all(0 <= v <= 1 for _, v in trace.checkpoints)


def test_continuous_system_requires_explicit_horizon():
    system = WeylSystem(TorusPoint.of([Fraction(1, 3)]))
    table = CoefficientTable(2)
    table[Character((0, 0))] = 1.0
    # the continuous system has no period: the horizon is an argument without a default
    params = inspect.signature(weighted_average).parameters.values()
    assert all(param.default is inspect.Parameter.empty for param in params)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        l3_average(system, table, 0)


def test_trig_trace_converges_to_closed_form():
    rng = random.Random(2)
    alpha = TorusPoint.of([Fraction(355688341, 999999937)])
    system = WeylSystem(alpha)
    table = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -2)], scale=0.1)
    trace = l3_average(system, table, 20000)
    assert trace.closed_form is not None
    assert abs(trace.value - trace.closed_form) < 5e-3
    # the closed form is the progression form of the projection
    direct = trig_progression_form(kronecker_projection(table, 1))
    assert abs(trace.closed_form - direct) < 1e-12


# ---- weighted averages ----


def test_constant_weight_equals_plain_trace_pointwise():
    model = GridWeylModel(3, (1,))
    f = np.full((3, 3), Fraction(0), dtype=object)
    f[0, 0] = f[1, 2] = f[2, 2] = Fraction(1)
    plain = l3_average(model, f, model.period)
    # the plain running means of the integrals, at the checkpoints 1, 2 and 3
    ints = triple_integrals(model, f, range(1, 4))
    assert plain.checkpoints == tuple((n, sum(ints[:n]) / n) for n in (1, 2, 3))
    whole = Cylinder(2, (), zero_point(2), Fraction(1, 4))
    wide = weighted_average(model, f, whole, [Fraction(4, 3), Fraction(4, 2)], model.period)
    assert wide.checkpoints == plain.checkpoints
    assert wide.window_hits == plain.window_hits == 3


def test_constant_observable_reduces_to_weight_average():
    model = GridWeylModel(3, (1,))
    ones = np.full((3, 3), Fraction(1), dtype=object)
    g = Cylinder(1, (1,), zero_point(1), Fraction(1, 4))
    beta = TorusPoint.of([Fraction(1, 5)])
    trace = weighted_average(model, ones, g, beta.coords, model.period)
    direct = sum(g.normalized_value(scaled(beta, n * n)) for n in range(1, 4)) / 3
    assert trace.value == direct


def test_full_period_weighted_average_brute_force():
    # independent oracle: explicit index arithmetic over one period of
    # the Z_7 model, no shared pullback code
    q = 7
    rng = random.Random(9)
    model = GridWeylModel(q, (2,))
    f = np.array([[Fraction(rng.randrange(2)) for _ in range(q)] for _ in range(q)], dtype=object)
    g = Cylinder(1, (1,), TorusPoint.of([Fraction(0)]), Fraction(3, 10))
    beta = TorusPoint.of([Fraction(1, 5)])
    trace = weighted_average(model, f, g, [4 * b for b in beta.coords], model.period)
    assert trace.checkpoints[-1][0] == q
    total = Fraction(0)
    for n in range(1, q + 1):
        weight = g.normalized_value(scaled(beta, 4 * n * n))
        if weight == 0:
            continue
        binom = n * (n - 1) // 2
        corr = Fraction(0)
        for x in range(q):
            for y in range(q):
                x1 = (x + 2 * n) % q
                y1 = (y + n * x + binom * 2) % q
                x2 = (x + 4 * n) % q
                y2 = (y + 2 * n * x + (2 * n) * (2 * n - 1)) % q
                corr += f[x, y] * f[x1, y1] * f[x2, y2]
        total += weight * corr / (q * q)
    assert trace.value == total / q


@st.composite
def float_averaging_cases(draw):
    """A system, a trig polynomial and the n_max of one weighted_average call."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    den = draw(st.sampled_from([3, 7, 16, 999999937]))
    system = WeylSystem(TorusPoint.of([Fraction(rng.randrange(1, den), den)]))
    if draw(st.booleans()):
        f = hermitian_table(rng, 2, [(1, 0), (0, 1), (1, -2), (2, 1)])
    else:
        f = random_table(rng, 1, 3, draw(st.integers(1, 6)))
    n_max = draw(st.integers(1, 400))
    return system, f, n_max


WINDOWS = {
    "full": (FULL_WINDOW, TorusPoint.of(FULL_DIRECTION)),
    # weight 25/9, which no float32 holds exactly
    "window": (
        Cylinder(2, (1, 2), TorusPoint.of([Fraction(1, 3), Fraction(0)]), Fraction(3, 10)),
        TorusPoint.of([Fraction(3, 17), Fraction(355, 113)]),
    ),
    "all-on": (
        Cylinder(1, (), zero_point(1), Fraction(1, 4)),
        TorusPoint.of([Fraction(1, 3)]),
    ),
    "all-off": (
        Cylinder(1, (1,), TorusPoint.of([Fraction(1, 2)]), Fraction(1, 8)),
        TorusPoint.of([Fraction(0)]),
    ),
}


@given(
    case=float_averaging_cases(),
    window=st.sampled_from(sorted(WINDOWS)),
    ell=st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_float_weighted_average_matches_the_per_term_oracle(case, window, ell):
    system, f, n_max = case
    g, beta = WINDOWS[window]
    args = (g, [ell**2 * b for b in beta.coords], n_max)
    got = weighted_average(system, f, *args)
    want = weighted_average_per_term(system, f, *args)
    # repr pins every bit, the type (float or complex) and the sign of zero
    assert [repr(pt) for pt in got.checkpoints] == [repr(pt) for pt in want.checkpoints]
    assert repr(got.closed_form) == repr(want.closed_form)
    assert got.to_csv() == want.to_csv()
    assert got.window_hits == want.window_hits
    if window == "all-off":
        assert got.window_hits == 0 and got.value == 0.0
    if window in ("all-on", "full"):
        assert got.window_hits == n_max


def test_weight_plumbing_errors():
    model = GridWeylModel(3, (1,))
    ones = np.full((3, 3), Fraction(1), dtype=object)
    g = Cylinder(2, (1,), zero_point(2), Fraction(1, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        weighted_average(model, ones, g, [Fraction(1, 5)], model.period)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        weighted_average(model, ones, g, [Fraction(1, 5)] * 2, 0)


def test_checkpoint_schedule_and_reuse():
    model = RotationModel(8, (3,))
    f = exact_grid(random.Random(3), (8,))
    trace = l3_average(model, f, model.period)
    assert [n for n, _ in trace.checkpoints] == [1, 2, 4, 8]
    marks = [1, 2, 4, 8]
    ints = triple_integrals(model, f, range(1, 9))
    again = weyl._checkpoint_averages(ints, marks, marks, Fraction(1))
    assert tuple(again) == trace.checkpoints


def checkpoints_in_blocks(ns, re, im, marks, edges):
    """``weyl._FloatCheckpoints`` fed the terms at the n in ns, in blocks ending at the edges."""
    sums = weyl._FloatCheckpoints(marks)
    ns, re, im = np.asarray(ns), np.asarray(re), np.asarray(im)
    start = 0
    for last in sorted(set(edges) | {marks[-1]}):
        stop = int(np.searchsorted(ns, last, side="right"))
        sums.add(last, ns[start:stop], re[start:stop], im[start:stop])
        start = stop
    return sums.points


def test_float_checkpoints_round_each_segment_onto_the_previous_checkpoint():
    # 1e16 + 1 rounds back to 1e16 at mark 2, and again at mark 3, so the
    # sum at mark 3 is 1e16 where the correctly rounded total is 1e16 + 2;
    # a block edge between the two marks changes nothing
    re = np.array([1e16, 1.0, 1.0])
    out = checkpoints_in_blocks([1, 2, 3], re, np.zeros(3), [2, 3], [2])
    assert out == [(2, 1e16 / 2), (3, 1e16 / 3)]
    assert math.fsum(re.tolist()) == 1e16 + 2
    assert out[1][1] != (1e16 + 2) / 3
    assert out == float_checkpoint_averages_per_term(re.tolist(), [2, 3])
    # a segment over three blocks is summed as one: 1e16 + 2 at mark 3
    re = np.array([1e16, 1.0, 1.0])
    out = checkpoints_in_blocks([1, 2, 3], re, np.zeros(3), [1, 3], [1, 2])
    assert out == [(1, 1e16), (3, (1e16 + 2) / 3)]
    assert out == float_checkpoint_averages_per_term(re.tolist(), [1, 3])


#: floats from 1e-300 to 1e300 in magnitude, either sign, and zeros of both signs
wide_floats = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 299)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16]),
)


@given(acc=wide_floats, a=st.lists(wide_floats, max_size=12), b=st.lists(wide_floats, max_size=12))
@example(acc=1e16, a=[1.0], b=[1.0])
@example(acc=0.0, a=[], b=[-0.0])
@example(acc=1.0, a=[1e300, -1e300, 1e-300], b=[])
@example(acc=-0.0, a=[2.5, -2.5], b=[-0.0])
@example(acc=1e300, a=[1e-300, 1e300, -1e300, 1.0], b=[1e-300])
@settings(max_examples=300, deadline=None)
def test_fsum_expansion_keeps_the_exact_sum_of_its_block(acc, a, b):
    parts = weyl._fsum_expansion(a)
    assert repr(math.fsum([acc] + parts + b)) == repr(math.fsum([acc] + a + b))
    # an exactly zero block leaves nothing behind
    assert (parts == []) == (math.fsum(a) == 0.0)


@given(
    terms=st.lists(st.tuples(wide_floats, wide_floats), max_size=40),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_float_checkpoints_fed_in_blocks_match_one_pass(terms, data):
    # the terms sit at some of the n in 1..n_max, as the window's hits do
    n_max = data.draw(st.integers(max(len(terms), 1), 60))
    ns = sorted(data.draw(st.sets(st.integers(1, n_max), min_size=len(terms), max_size=len(terms))))
    re = np.array([t[0] for t in terms])
    im = np.array([t[1] for t in terms])
    marks = sorted(data.draw(st.sets(st.integers(1, n_max), max_size=6)) | {n_max})
    edges = data.draw(st.sets(st.integers(1, n_max), max_size=10))
    ends = np.searchsorted(ns, marks, side="right").tolist()
    want = float_checkpoint_averages_by_segment(re, im, marks, ends)
    got = checkpoints_in_blocks(ns, re, im, marks, edges)
    assert [repr(pt) for pt in got] == [repr(pt) for pt in want]


@given(
    st.lists(st.fractions(max_denominator=10**6) | st.integers(-50, 50).map(Fraction), min_size=1, max_size=60),
    st.sampled_from(sorted(WINDOWS)),
    st.integers(1, 3),
    st.data(),
)
def test_exact_checkpoints_match_the_fraction_sum(integrals, window, ell, data):
    n_max = len(integrals)
    marks = data.draw(st.lists(st.integers(1, n_max), max_size=6)) + [n_max]
    g, beta = WINDOWS[window]
    marks = sorted(set(marks))
    # the kept terms and the ends of the marks among them, as weighted_average forms them
    hits = g.orbit_contains([ell**2 * b for b in beta.coords], np.arange(1, n_max + 1), 2)
    at = np.flatnonzero(hits) + 1
    kept = [v for hit, v in zip(hits.tolist(), integrals) if hit]
    ends = np.searchsorted(at, marks, side="right").tolist()
    weight = 1 / g.measure()
    terms = [v * weight if hit else Fraction(0) for hit, v in zip(hits.tolist(), integrals)]
    got = weyl._checkpoint_averages(kept, marks, ends, weight)
    assert got == checkpoint_averages_by_fraction_sum(terms, marks)
    assert all(type(v) is Fraction for _, v in got)


def test_trace_validation_and_csv():
    with pytest.raises(ValueError):
        AveragesTrace(checkpoints=((2, 0.5), (2, 0.6)), window_hits=2)
    with pytest.raises(ValueError):
        AveragesTrace(checkpoints=(), window_hits=0)
    trace = AveragesTrace(checkpoints=((1, 0.5), (4, 0.25)), window_hits=4)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "N,value,closed_form,gap"
    assert lines[1].startswith("1,0.5,,")
    assert trace.rows()[-1] == (4, 0.25, None, None)
    with_form = AveragesTrace(
        checkpoints=((1, Fraction(1, 2)),), window_hits=1, closed_form=Fraction(1, 4)
    )
    assert with_form.rows() == [(1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))]
    assert with_form.to_csv().strip().splitlines()[1] == "1,0.5,0.25,0.25"
    # a non-real cell is written as repr(complex), which holds no comma
    mixed = AveragesTrace(
        checkpoints=((1, 0.5 + 0.25j), (2, 0.5 + 0j)), window_hits=2, closed_form=0.5
    )
    assert mixed.to_csv().strip().splitlines()[1:] == ["1,(0.5+0.25j),0.5,0.25j", "2,0.5,0.5,0.0"]


# ---- intersection scans ----


def test_identity_power_returns_the_measure():
    model = RotationModel(5, (1,))
    mask = np.array([1, 1, 0, 0, 0])
    n_star, value = max_triple_intersection(model, mask, [0], 5)
    assert (n_star, value) == (0, Fraction(2, 5))


def test_half_rotation_disjoint_translate():
    # rotation by 1/2 with A = [0, 1/4): the translate misses A entirely
    model = RotationModel(4, (2,))
    mask = np.array([1, 0, 0, 0])
    n_star, value = max_triple_intersection(model, mask, [1], 5)
    assert (n_star, value) == (1, Fraction(0))


def test_enumeration_oracle_on_z5():
    model = RotationModel(5, (1,))
    mask = np.array([1, 1, 0, 0, 0])
    inside = {0, 1}
    by_hand = {}
    for n in range(1, 6):
        count = sum(
            1 for x in range(5) if x in inside and (x + n) % 5 in inside and (x + 2 * n) % 5 in inside
        )
        by_hand[n] = Fraction(count, 5)
    n_star, value = max_triple_intersection(model, mask, range(1, 6), 5)
    assert value == max(by_hand.values())
    assert by_hand[n_star] == value
    assert (n_star, value) == (5, Fraction(2, 5))


def test_no_admissible_powers_raises():
    model = RotationModel(5, (1,))
    mask = np.array([1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        max_triple_intersection(model, mask, [7, 9], 5)
    with pytest.raises(ValueError):
        max_triple_intersection(model, mask, [], 5)


def test_weyl_model_intersection_matches_hand_count():
    q = 5
    model = GridWeylModel(q, (1,))
    mask = np.zeros((q, q), dtype=int)
    mask[0, :] = 1
    mask[1, :] = 1
    n_star, value = max_triple_intersection(model, mask, range(1, q + 1), q)
    inside = {0, 1}
    best = Fraction(0)
    for n in range(1, q + 1):
        count = sum(
            1
            for x in range(q)
            for _ in range(q)
            if x in inside and (x + n) % q in inside and (x + 2 * n) % q in inside
        )
        best = max(best, Fraction(count, q * q))
    assert value == best
    assert triple_integral(model, mask, n_star) == value


# ---- observable bundling ----


def test_observable_pair_range_checks():
    good = np.full((3, 3), Fraction(1, 2), dtype=object)
    ObservablePair(good).assert_unit_range()
    bad = np.full((3, 3), Fraction(3, 2), dtype=object)
    with pytest.raises(ValueError):
        ObservablePair(bad).assert_unit_range()
    table = CoefficientTable(2)
    table[Character((0, 0))] = 0.5
    with pytest.raises(TypeError):
        ObservablePair(table).assert_unit_range()
    with pytest.raises(TypeError):
        ObservablePair("not an observable")
