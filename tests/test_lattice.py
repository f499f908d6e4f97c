"""Cyclic subgroup models against the Hermite oracle and closure by search."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reclab import roth
from reclab.joinings import extract_affine_joining
from reclab.lattice import SubgroupModel

from oracles import (
    HermiteSubgroup,
    annihilator_contains,
    coset_elements,
    coset_representative,
    ext_gcd,
    full_subgroup,
    hermite,
    hermite_normal_form,
    smith_normal_form,
    solve_linear_mod,
    subgroup_contains,
    subgroup_join,
    trivial_subgroup,
)


def closure_oracle(q, dim, gens):
    """All sums of generators reachable from 0, by breadth-first search."""
    zero = tuple([0] * dim)
    elems = {zero}
    frontier = [zero]
    gens = [tuple(x % q for x in g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % q for a, b in zip(cur, g))
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return sorted(elems)


def as_tuples(rows):
    return [tuple(row) for row in rows.tolist()]


def det_by_permutations(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * math.prod(mat[i][perm[i]] for i in range(n))
    return total


small_groups = st.tuples(
    st.integers(1, 12),
    st.integers(1, 3),
)


@st.composite
def cyclic_models(draw, max_q=40, max_dim=4):
    """A cyclic model <g> of Z_q^dim, g drawn with entries off [0, q)."""
    q, dim = draw(st.integers(1, max_q)), draw(st.integers(0, max_dim))
    return SubgroupModel(q, tuple(draw(st.lists(st.integers(-q, 2 * q), min_size=dim, max_size=dim))))


# ---- the Hermite oracle ----


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_ext_gcd(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_hnf_frozen_example():
    h = hermite_normal_form([[2, 1], [0, 2], [4, 0], [0, 4]], 2)
    assert h == [[2, 1], [0, 2]]


@given(small_groups, st.data())
def test_canonical_form_is_generator_independent(shape, data):
    q, dim = shape
    gens = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim),
            max_size=3,
        )
    )
    model = HermiteSubgroup.from_generators(q, dim, gens)
    rebuilt = HermiteSubgroup.from_generators(q, dim, model.elements().tolist())
    assert model == rebuilt
    doubled = HermiteSubgroup.from_generators(q, dim, gens + gens)
    assert model == doubled


def test_trivial_and_full():
    triv = trivial_subgroup(6, 2)
    assert triv.order() == 1
    assert as_tuples(triv.elements()) == [(0, 0)]
    full = full_subgroup(6, 2)
    assert full.order() == 36
    assert subgroup_contains(full, (5, 3))


def test_join_matches_union_closure():
    a = SubgroupModel(12, (2, 0))
    b = SubgroupModel(12, (0, 3))
    joined = subgroup_join(a, b)
    assert as_tuples(joined.elements()) == closure_oracle(12, 2, [[2, 0], [0, 3]])
    with pytest.raises(ValueError):
        subgroup_join(a, trivial_subgroup(5, 2))


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_normal_form_properties(rows):
    n, m = len(rows), len(rows[0])
    d, u, v = smith_normal_form(rows)
    # U A V = D
    ua = [[sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(m)) for j in range(m)] for i in range(n)]
    assert uav == d
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(n, m))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(det_by_permutations(u)) == 1
    assert abs(det_by_permutations(v)) == 1


def test_solve_linear_mod_examples():
    assert solve_linear_mod([[2]], [1], 4) is None
    x = solve_linear_mod([[2]], [2], 4)
    assert x is not None and 2 * x[0] % 4 == 2
    assert solve_linear_mod([], [], 9) == []


@given(
    st.integers(2, 12),
    st.lists(
        st.lists(st.integers(0, 11), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(0, 11), min_size=2, max_size=2),
)
def test_solve_linear_mod_consistent_systems(q, matrix, x0):
    rhs = [sum(row[j] * x0[j] for j in range(2)) % q for row in matrix]
    x = solve_linear_mod(matrix, rhs, q)
    assert x is not None
    for row, b in zip(matrix, rhs):
        assert sum(r * xi for r, xi in zip(row, x)) % q == b


# ---- the cyclic model against the oracle ----


@given(small_groups, st.data())
def test_elements_match_closure_oracle(shape, data):
    # one generator for the cyclic model, up to three for the oracle
    q, dim = shape
    vectors = st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)
    gen = data.draw(vectors)
    model = SubgroupModel(q, tuple(gen))
    oracle = closure_oracle(q, dim, [gen])
    assert as_tuples(model.elements()) == oracle
    assert model.order() == len(oracle)
    gens = data.draw(st.lists(vectors, max_size=3))
    assert as_tuples(HermiteSubgroup.from_generators(q, dim, gens).elements()) == closure_oracle(
        q, dim, gens
    )
    oracle_set = set(oracle)
    for vec in itertools.product(range(q), repeat=dim):
        assert subgroup_contains(model, vec) == (vec in oracle_set)


@given(cyclic_models())
def test_elements_match_the_digit_loop(model):
    # the same sorted rows, the same order and the same annihilator as the
    # Hermite closure of the generator, whose elements come one digit vector at a time
    elements = model.elements()
    oracle = hermite(model)
    assert model.order() == oracle.order() == len(elements)
    assert elements.dtype == np.int64 and elements.shape == (len(elements), model.dim)
    assert elements.tolist() == oracle.elements().tolist()
    assert not elements.flags.writeable
    if model.dim and model.q ** model.dim <= 4096:
        mask = roth._annihilator_mask(model)
        assert mask.shape == (model.q,) * model.dim and mask.dtype == bool
        for idx in np.ndindex(*mask.shape):
            assert mask[idx] == annihilator_contains(oracle, idx)


def test_elements_of_the_grid_joining_base_and_trivial_groups():
    # the joining base of a main_inequality grid run at q = 135, r = 5
    r = 5
    beta = [Fraction(i, 7) for i in range(1, r + 1)]
    joining = extract_affine_joining([Fraction(2, 135)], beta, 945)
    base = joining.base
    assert (base.q, base.dim, base.order()) == (945, 6, 945)
    assert base.generator == (14, 135, 270, 405, 540, 675)
    assert base.elements().tolist() == hermite(base).elements().tolist()
    for q, dim in ((1, 1), (7, 3), (945, 6)):
        assert as_tuples(trivial_subgroup(q, dim).elements()) == [(0,) * dim]
    assert as_tuples(SubgroupModel(5, ()).elements()) == [()]
    # past the int64 guard (order * q >= 2^63) the same elements come in Python integers
    q = 3**40
    big = SubgroupModel(q, (3**38, 5 * 3**38))
    rows = big.elements()
    assert rows.dtype == object and len(rows) == 9
    assert rows.tolist() == hermite(big).elements().tolist()
    assert all(type(a) is int for vec in rows.tolist() for a in vec)


@given(st.integers(1, 12), st.integers(1, 3), st.data())
def test_coset_elements_shift_the_elements_by_the_representative(q, dim, data):
    vectors = st.lists(st.integers(-q, 2 * q), min_size=dim, max_size=dim)
    model = SubgroupModel(q, tuple(data.draw(vectors)))
    rep = data.draw(vectors)
    coset = coset_elements(model, rep)
    assert coset == [tuple((a + b) % q for a, b in zip(rep, e)) for e in as_tuples(model.elements())]
    # the order() distinct members of rep + subgroup, all with rep's canonical representative
    assert len(set(coset)) == model.order()
    assert all(subgroup_contains(model, [a - b for a, b in zip(x, rep)]) for x in coset)
    assert {coset_representative(model, x) for x in coset} == {coset_representative(model, rep)}


def test_cyclic_examples():
    quarters = SubgroupModel(4, (1,))
    assert as_tuples(quarters.elements()) == [(0,), (1,), (2,), (3,)]
    halves = SubgroupModel(4, (2,))
    assert as_tuples(halves.elements()) == [(0,), (2,)]
    mixed = SubgroupModel(6, (3, 2))
    assert mixed.order() == 6
    assert all(subgroup_contains(mixed, (3 * n % 6, 2 * n % 6)) for n in range(6))
    # the generator is held reduced mod q, so congruent generators give equal models
    assert SubgroupModel(6, (-3, 8)) == mixed and SubgroupModel(6, (-3, 8)).generator == (3, 2)
    with pytest.raises(ValueError, match="positive"):
        SubgroupModel(0, (1,))


def test_enumeration_cap():
    big = SubgroupModel(10**6 + 3, (1, 0))
    assert big.order() == 10**6 + 3
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        big.elements()
    with pytest.raises(ValueError, match="order 7 exceeds enumeration cap 6"):
        SubgroupModel(7, (2,)).elements(cap=6)
    assert len(SubgroupModel(7, (2,)).elements(cap=7)) == 7
