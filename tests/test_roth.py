"""Progression forms: dual routes, projections, and the gap bound."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reclab import roth
from reclab.harmonic import GridFunction
from reclab.lattice import SubgroupModel
from reclab.roth import (
    product_dtype,
    quotient_gap_bound,
    quotient_project,
    roth_form,
    roth_form_exact,
)

from oracles import (
    annihilator_contains,
    quotient_project_roll_loop,
    quotient_project_spectral,
    random_grid,
    roth_form_exact_roll_loop,
    roth_form_roll_loop,
    roth_form_spectral,
    trivial_subgroup,
)


def indicator(dim, q, points):
    vals = np.zeros((q,) * dim)
    for p in points:
        vals[p] = 1.0
    return GridFunction(dim, q, vals)


def test_point_mass_form_value():
    # only x = s = 0 contributes: exactly 1/q^2
    f = indicator(1, 5, [(0,)])
    assert abs(roth_form(f, f, f) - 1 / 25) < 1e-15
    exact = np.zeros((5,), dtype=object)
    exact[:] = Fraction(0)
    exact[0] = Fraction(1)
    assert roth_form_exact(exact, exact, exact) == Fraction(1, 25)


def test_form_counts_progressions():
    # for indicators the form is (number of (x, s) pairs with x, x+s, x+2s
    # in the set) / q^2, degenerate progressions included
    rng = random.Random(4)
    for q in (5, 7, 9):
        pts = {(rng.randrange(q),) for _ in range(rng.randint(1, q))}
        f = indicator(1, q, pts)
        count = sum(
            1
            for x in range(q)
            for s in range(q)
            if (x,) in pts and ((x + s) % q,) in pts and ((x + 2 * s) % q,) in pts
        )
        assert abs(roth_form(f, f, f) - count / q**2) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_direct_equals_spectral_on_odd_grids(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 5, 7, 9])
    dim = rng.randint(1, 2)
    fs = [random_grid(dim, q, seed + i) for i in range(3)]
    direct = roth_form(*fs)
    spectral = roth_form_spectral(*fs)
    assert abs(direct - spectral) < 1e-9


def test_spectral_rejects_even_grids():
    fs = [random_grid(1, 6, i) for i in range(3)]
    with pytest.raises(ValueError, match="odd"):
        roth_form_spectral(*fs)
    # the direct route stays available
    roth_form(*fs)


def test_form_translation_invariance():
    fs = [random_grid(2, 5, 10 + i) for i in range(3)]
    base = roth_form(*fs)
    shifted = [GridFunction(2, 5, np.roll(f.values, (2, 3), axis=(0, 1))) for f in fs]
    assert abs(base - roth_form(*shifted)) < 1e-12


def test_exact_form_matches_float():
    rng = random.Random(9)
    arrs = []
    for _ in range(3):
        a = np.empty((7,), dtype=object)
        for i in range(7):
            a[i] = Fraction(rng.randint(-6, 6), 5)
        arrs.append(a)
    exact = roth_form_exact(*arrs)
    floats = [GridFunction(1, 7, a.astype(complex)) for a in arrs]
    assert abs(float(exact) - roth_form(*floats).real) < 1e-12


def roth_form_by_definition(a0, a1, a2):
    """The exact progression form as the q^{2d} double sum: the oracle."""
    q = a0.shape[0]
    total = Fraction(0)
    for x in np.ndindex(*a0.shape):
        for s in np.ndindex(*a0.shape):
            y = tuple((a + b) % q for a, b in zip(x, s))
            z = tuple((a + 2 * b) % q for a, b in zip(x, s))
            total += a0[x] * a1[y] * a2[z]
    return total / Fraction(q ** (2 * a0.ndim))


def exact_array(rng, shape, kind, den):
    vals = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        if kind == "zeros":
            vals[idx] = 0
        elif kind in ("integers", "int64"):
            vals[idx] = rng.randint(-9, 9)
        else:
            vals[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, den))
    return vals.astype(np.int64) if kind == "int64" else vals


@given(
    dim=st.integers(1, 2),
    q=st.integers(1, 6),
    kinds=st.lists(
        st.sampled_from(["fractions", "integers", "int64", "zeros"]), min_size=3, max_size=3
    ),
    dens=st.lists(st.sampled_from([1, 2, 6, 35, 10**30]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=2, q=4, kinds=["fractions"] * 3, dens=[2, 35, 10**30], seed=0)
@example(dim=1, q=6, kinds=["integers", "fractions", "zeros"], dens=[1, 6, 1], seed=1)
@example(dim=1, q=5, kinds=["int64", "fractions", "integers"], dens=[1, 35, 1], seed=3)
@example(dim=2, q=3, kinds=["integers"] * 3, dens=[1, 1, 1], seed=2)
@settings(max_examples=60)
def test_exact_form_matches_the_double_sum(dim, q, kinds, dens, seed):
    rng = random.Random(seed)
    arrs = [exact_array(rng, (q,) * dim, kind, den) for kind, den in zip(kinds, dens)]
    value = roth_form_exact(*arrs)
    assert isinstance(value, Fraction)
    assert value == roth_form_by_definition(*arrs)


# ---- window blocks against the loop over shifts ----

#: largest q drawn per dimension; d = 1 reaches past a block of 64 cells
_MAX_Q = {1: 40, 2: 10, 3: 5}


def float_grids(dim, q, kind, seed, shared):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        vals = rng.standard_normal((q,) * dim)
        if kind == "complex":
            vals = vals + 1j * rng.standard_normal((q,) * dim)
        out.append(GridFunction(dim, q, vals))
    return [out[0]] * 3 if shared else out


@given(
    dim=st.sampled_from([1, 2, 3]),
    q=st.integers(1, 40),
    kind=st.sampled_from(["complex", "real"]),
    shared=st.booleans(),
    cells=st.sampled_from([1, 2, 5, 64, None]),
    seed=st.integers(0, 2**32 - 1),
)
# q = 1 with d >= 2: a broadcast single-cell product would round differently
@example(dim=2, q=1, kind="complex", shared=False, cells=None, seed=5)
@example(dim=3, q=1, kind="complex", shared=True, cells=None, seed=6)
# blocks of 121 and 14 rows, and of 8 rows with 5 left over, at the module's cap
@example(dim=1, q=135, kind="complex", shared=True, cells=None, seed=7)
@example(dim=2, q=45, kind="complex", shared=False, cells=None, seed=8)
@settings(max_examples=80, deadline=None)
def test_form_equals_the_roll_loop_bit_for_bit(dim, q, kind, shared, cells, seed):
    if q > _MAX_Q[dim] and (dim, q) not in ((1, 135), (2, 45)):
        q = 1 + q % _MAX_Q[dim]
    fs = float_grids(dim, q, kind, seed, shared)
    with mock.patch.object(roth, "BLOCK_CELLS", cells or roth.BLOCK_CELLS):
        value = roth_form(*fs)
    assert value == roth_form_roll_loop(*fs)


def int_grid(rng, shape, top):
    """Integers in [-top, top] with top itself at a random cell."""
    vals = rng.integers(-min(top, 9), min(top, 9) + 1, size=shape).astype(object)
    vals[tuple(int(rng.integers(0, n)) for n in shape)] = top
    return vals


@given(
    dim=st.sampled_from([1, 2, 3]),
    q=st.integers(1, 9),
    kind=st.sampled_from(["int64", "below", "above", "fractions", "bool"]),
    cells=st.sampled_from([1, 3, 64, None]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=1, q=135, kind="int64", cells=None, seed=1)
@example(dim=2, q=5, kind="above", cells=None, seed=2)
@example(dim=3, q=3, kind="below", cells=None, seed=3)
@settings(max_examples=60, deadline=None)
def test_exact_form_equals_the_roll_loop(dim, q, kind, cells, seed):
    if dim > 1:
        q = min(q, 9 if dim == 2 else 4)
    rng = np.random.default_rng(seed)
    shape = (q,) * dim
    size = q**dim
    if kind in ("below", "above"):
        # the int64 bound size * max|a0| * max|a1| * max|a2| < 2^62 at its edge
        a1, a2 = int_grid(rng, shape, 3), int_grid(rng, shape, 2)
        top = (2**62 - 1) // (size * 6) + (kind == "above")
        arrs = [int_grid(rng, shape, top).astype(np.int64), a1.astype(np.int64), a2]
        assert product_dtype(size, *arrs) is (object if kind == "above" else np.int64)
    elif kind == "fractions":
        arrs = [exact_array(random.Random(seed + i), shape, "fractions", 35) for i in range(3)]
    elif kind == "bool":
        arrs = [rng.integers(0, 2, size=shape).astype(bool) for _ in range(3)]
    else:
        arrs = [rng.integers(-9, 10, size=shape) for _ in range(3)]
    with mock.patch.object(roth, "BLOCK_CELLS", cells or roth.BLOCK_CELLS):
        value = roth_form_exact(*arrs)
    assert isinstance(value, Fraction)
    assert value == roth_form_exact_roll_loop(*arrs)


def test_product_dtype_bound_is_strict():
    ones = np.ones(4, dtype=np.int64)
    top = np.array([2**60], dtype=np.int64)
    assert product_dtype(3, top, ones) is np.int64
    assert product_dtype(4, top, ones) is object
    # |int64 min| is taken exactly, and an all-zero factor counts as 1, so its
    # products fit int8 while the sum stays below 2^62
    assert product_dtype(1, np.array([np.iinfo(np.int64).min])) is object
    assert product_dtype(2**61, np.zeros(3, dtype=np.int64)) is np.int8
    assert product_dtype(2**62, np.zeros(3, dtype=np.int64)) is object


# ---- projections ----


def test_project_trivial_and_full_subgroups():
    f = random_grid(2, 5, 3)
    identity = quotient_project(f, trivial_subgroup(5, 2))
    assert np.allclose(identity.values, f.values)
    line = random_grid(1, 5, 3)
    const = quotient_project(line, SubgroupModel(5, (2,)))
    assert np.allclose(const.values, line.values.mean())


def test_project_line_subgroup_gives_row_means():
    # averaging over {0} x Z_5 replaces each row by its mean
    f = random_grid(2, 5, 8)
    K = SubgroupModel(5, (0, 1))
    proj = quotient_project(f, K)
    for i in range(5):
        assert np.allclose(proj.values[i, :], f.values[i, :].mean())
    # spectrum support: only frequencies (a, 0) survive
    hat = proj.dft().values
    for n in range(5):
        for m in range(1, 5):
            assert abs(hat[n, m]) < 1e-12
    assert annihilator_contains(K, (3, 0)) and not annihilator_contains(K, (3, 1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_projection_routes_agree_and_are_idempotent(seed):
    rng = random.Random(seed)
    q = rng.choice([4, 5, 6, 9])
    dim = rng.randint(1, 2)
    K = SubgroupModel(q, tuple(rng.randrange(q) for _ in range(dim)))
    f = random_grid(dim, q, seed)
    direct = quotient_project(f, K)
    spectral = quotient_project_spectral(f, K)
    assert np.allclose(direct.values, spectral.values, atol=1e-10)
    twice = quotient_project(direct, K)
    assert np.allclose(twice.values, direct.values, atol=1e-12)
    assert abs(direct.values.mean() - f.values.mean()) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40)
def test_projection_windows_match_the_roll_loop_bit_for_bit(seed, dim):
    rng = random.Random(seed)
    q = rng.choice([1, 2, 3, 5, 6, 7] if dim < 3 else [1, 2, 3, 5])
    K = SubgroupModel(q, tuple(rng.randrange(q) for _ in range(dim)))
    f = random_grid(dim, q, seed)
    got = quotient_project(f, K).values
    want = quotient_project_roll_loop(f, K).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---- gap bound ----


def test_projected_one_slot_equals_projected_all():
    # masking the last slot to the annihilator equals projecting all three
    fs = [random_grid(2, 5, 20 + i) for i in range(3)]
    K = SubgroupModel(5, (1, 2))
    projected = [quotient_project(f, K) for f in fs]
    one = roth_form(fs[0], fs[1], projected[2])
    all_three = roth_form(*projected)
    assert abs(one - all_three) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_gap_bound_holds(seed):
    rng = random.Random(seed)
    K = SubgroupModel(5, (rng.randrange(5), rng.randrange(5)))
    fs = [random_grid(2, 5, seed + 7 * i) for i in range(3)]
    report = quotient_gap_bound(*fs, K)
    assert report["gap"] <= report["bound"] + 1e-9


@given(
    q=st.integers(1, 12),
    dim=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60)
def test_annihilator_mask_matches_the_per_frequency_oracle(q, dim, data):
    K = SubgroupModel(q, tuple(data.draw(st.lists(st.integers(-q, 2 * q), min_size=dim, max_size=dim))))
    mask = roth._annihilator_mask(K)
    assert mask.shape == (q,) * dim and mask.dtype == bool
    for idx in np.ndindex(*mask.shape):
        assert mask[idx] == annihilator_contains(K, idx)


@pytest.mark.parametrize("q, dim, gens", [(9, 2, (0, 1)), (15, 1, (5,)), (5, 2, (1, 2)), (5, 2, (0, 0))])
def test_gap_bound_kappa_is_the_largest_coefficient_outside_the_annihilator(q, dim, gens):
    K = SubgroupModel(q, gens)
    fs = [random_grid(dim, q, 40 + i) for i in range(3)]
    h2 = fs[2].dft().values
    kappa = 0.0
    for idx in np.ndindex(*h2.shape):
        if not annihilator_contains(K, idx):
            kappa = max(kappa, abs(complex(h2[idx])))
    # the same double as the loop over frequencies; 0.0 when K is trivial
    assert repr(quotient_gap_bound(*fs, K)["kappa"]) == repr(kappa)


def test_gap_bound_rejects_even_grid():
    fs = [random_grid(1, 4, i) for i in range(3)]
    with pytest.raises(ValueError, match="odd"):
        quotient_gap_bound(*fs, trivial_subgroup(4, 1))
