"""Lattice normal forms and subgroup models against closure oracles."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reclab.joinings import extract_affine_joining
from reclab.lattice import (
    SubgroupModel,
    ext_gcd,
    hermite_normal_form,
    smith_normal_form,
    solve_linear_mod,
)

from oracles import (
    coset_elements,
    coset_representative,
    full_subgroup,
    subgroup_contains,
    subgroup_elements_by_loop,
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


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_ext_gcd(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_hnf_frozen_example():
    h = hermite_normal_form([[2, 1], [0, 2], [4, 0], [0, 4]], 2)
    assert h == [[2, 1], [0, 2]]


@given(small_groups, st.data())
def test_elements_match_closure_oracle(shape, data):
    q, dim = shape
    gens = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim),
            max_size=3,
        )
    )
    model = SubgroupModel.from_generators(q, dim, gens)
    oracle = closure_oracle(q, dim, gens)
    assert model.elements() == oracle
    assert model.order() == len(oracle)
    oracle_set = set(oracle)
    for vec in itertools.product(range(q), repeat=dim):
        assert subgroup_contains(model, vec) == (vec in oracle_set)


@given(st.integers(1, 40), st.integers(0, 4), st.data())
def test_elements_match_the_digit_loop(q, dim, data):
    vectors = st.lists(st.integers(-q, 2 * q), min_size=dim, max_size=dim)
    model = SubgroupModel.from_generators(q, dim, data.draw(st.lists(vectors, max_size=3)))
    if model.order() > 5000:
        model = SubgroupModel.from_generators(q, dim, [])
    elements = model.elements()
    assert elements == subgroup_elements_by_loop(model)
    assert all(type(a) is int for vec in elements for a in vec)


def test_elements_of_the_grid_joining_base_and_trivial_groups():
    # the joining base of a main_inequality grid run at q = 135, r = 5
    r = 5
    beta = [Fraction(i, 7) for i in range(1, r + 1)]
    joining = extract_affine_joining([Fraction(2, 135)], beta, 945)
    base = joining.base
    assert (base.q, base.dim, base.order()) == (945, 6, 945)
    assert base.elements() == subgroup_elements_by_loop(base)
    for q, dim in ((1, 1), (7, 3), (945, 6)):
        assert trivial_subgroup(q, dim).elements() == [(0,) * dim]
    assert SubgroupModel.from_generators(5, 0, []).elements() == [()]
    # past the int64 guard (dim * q^2 >= 2^63) the same elements come in Python integers
    q = 3**40
    big = SubgroupModel.from_generators(q, 2, [[3**38, 5 * 3**38]])
    assert big.elements() == subgroup_elements_by_loop(big)
    assert len(big.elements()) == 9


@given(small_groups, st.data())
def test_canonical_form_is_generator_independent(shape, data):
    q, dim = shape
    gens = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim),
            max_size=3,
        )
    )
    model = SubgroupModel.from_generators(q, dim, gens)
    rebuilt = SubgroupModel.from_generators(q, dim, model.elements())
    assert model == rebuilt
    doubled = SubgroupModel.from_generators(q, dim, gens + gens)
    assert model == doubled


@given(small_groups, st.data())
def test_coset_elements_shift_the_elements_by_the_representative(shape, data):
    q, dim = shape
    vectors = st.lists(st.integers(-q, 2 * q), min_size=dim, max_size=dim)
    model = SubgroupModel.from_generators(q, dim, data.draw(st.lists(vectors, max_size=3)))
    rep = data.draw(vectors)
    coset = coset_elements(model, rep)
    assert coset == [tuple((a + b) % q for a, b in zip(rep, e)) for e in model.elements()]
    # the order() distinct members of rep + subgroup, all with rep's canonical representative
    assert len(set(coset)) == model.order()
    assert all(subgroup_contains(model, [a - b for a, b in zip(x, rep)]) for x in coset)
    assert {coset_representative(model, x) for x in coset} == {coset_representative(model, rep)}


def test_trivial_and_full():
    triv = trivial_subgroup(6, 2)
    assert triv.order() == 1
    assert triv.elements() == [(0, 0)]
    full = full_subgroup(6, 2)
    assert full.order() == 36
    assert subgroup_contains(full, (5, 3))


def test_join_matches_union_closure():
    a = SubgroupModel.from_generators(12, 2, [[2, 0]])
    b = SubgroupModel.from_generators(12, 2, [[0, 3]])
    joined = subgroup_join(a, b)
    assert joined.elements() == closure_oracle(12, 2, [[2, 0], [0, 3]])
    with pytest.raises(ValueError):
        subgroup_join(a, trivial_subgroup(5, 2))


def test_cyclic_examples():
    quarters = SubgroupModel.from_generators(4, 1, [[1]])
    assert quarters.elements() == [(0,), (1,), (2,), (3,)]
    halves = SubgroupModel.from_generators(4, 1, [[2]])
    assert halves.elements() == [(0,), (2,)]
    mixed = SubgroupModel.from_generators(6, 2, [[3, 2]])
    assert mixed.order() == 6
    assert all(subgroup_contains(mixed, (3 * n % 6, 2 * n % 6)) for n in range(6))


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


def test_enumeration_cap():
    big = full_subgroup(101, 3)
    with pytest.raises(ValueError):
        big.elements()
