"""Bohr-Hamming set enumeration against brute-force torus oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reclab.bohr import (
    BohrHammingBall,
    continued_fraction_convergents,
    named_convergent,
    set_enumerate,
    set_to_json,
    sqrt_set_enumerate,
)
from reclab.torus import ApproxHammingBall, TorusPoint

from oracles import ball_contains, scaled, set_from_json

fractions_small = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=12
)
radii_small = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(1, 2), max_denominator=12
)


def make_bh(beta_coords, center_coords, k, eps):
    freq = TorusPoint.of(beta_coords)
    ball = ApproxHammingBall(center=TorusPoint.of(center_coords), k=k, eps=eps)
    return BohrHammingBall(freq=freq, ball=ball)


def test_contains_worked_examples():
    bh = make_bh(["1/8"], ["1/2"], k=0, eps="1/5")
    members = set_enumerate(bh, 8).elems
    assert 4 in members
    assert 1 not in members
    # center far from 0 in every coordinate keeps 0, and so its period 24, out of the set
    wide = make_bh(["1/8", "1/3"], ["1/2", "1/2"], k=1, eps="1/5")
    assert 24 not in set_enumerate(wide, 24).elems


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        make_bh(["1/8", "1/3"], ["1/2"], k=0, eps="1/5")


@given(
    st.lists(fractions_small, min_size=1, max_size=3),
    st.data(),
)
def test_contains_matches_ball_oracle(beta_coords, data):
    r = len(beta_coords)
    center = data.draw(st.lists(fractions_small, min_size=r, max_size=r))
    k = data.draw(st.integers(0, r - 1))
    eps = data.draw(radii_small)
    bh = make_bh(beta_coords, center, k=k, eps=eps)
    n_max = data.draw(st.integers(1, 60))
    oracle = [n for n in range(1, n_max + 1) if ball_contains(bh.ball, scaled(bh.freq, n))]
    assert set_enumerate(bh, n_max).elems == oracle


@given(st.integers(1, 18), st.integers(0, 3))
def test_contains_is_periodic_mod_q(n, t):
    bh = make_bh(["1/6", "2/9"], ["1/3", "0"], k=1, eps="1/4")
    q = 18  # the common denominator of 1/6 and 2/9
    members = set(set_enumerate(bh, 4 * q).elems)
    assert (n in members) == (n + t * q in members)


def test_sqrt_set_frozen_example():
    bh = make_bh(["1/8"], ["1/2"], k=0, eps="1/5")
    elems, density = sqrt_set_enumerate(bh, 10)
    assert elems == [2, 6, 10]
    assert density == Fraction(3, 10)


def test_sqrt_set_matches_brute_force(monkeypatch):
    bh = make_bh(["1/6", "3/10"], ["1/4", "2/3"], k=1, eps="1/5")
    elems, _ = sqrt_set_enumerate(bh, 200)
    oracle = [
        n
        for n in range(1, 201)
        if ball_contains(bh.ball, scaled(bh.freq, n * n))
    ]
    assert elems == oracle
    # scans that cross block boundaries, including one-element blocks
    for block in (1, 7, 64):
        monkeypatch.setattr("reclab.torus.SCAN_BLOCK", block)
        assert sqrt_set_enumerate(bh, 200).elems == oracle


def test_sqrt_set_whole_torus_and_empty():
    # with eps = 1/2 and an off-grid center no coordinate can deviate
    full = make_bh(["1/8"], ["1/16"], k=0, eps="1/2")
    elems, density = sqrt_set_enumerate(full, 25)
    assert elems == list(range(1, 26))
    assert density == 1
    # a radius far below the orbit spacing empties the set
    empty = make_bh(["1/8"], ["1/3"], k=0, eps="1/1000")
    assert sqrt_set_enumerate(empty, 25).elems == []


def test_enumeration_rejects_bad_horizon():
    bh = make_bh(["1/8"], ["1/2"], k=0, eps="1/5")
    with pytest.raises(ValueError):
        sqrt_set_enumerate(bh, 0)
    with pytest.raises(ValueError):
        set_enumerate(bh, -4)


def test_convergents_frozen_prefixes():
    sqrt2 = continued_fraction_convergents([1, 2, 2, 2, 2])
    assert sqrt2 == [
        Fraction(1),
        Fraction(3, 2),
        Fraction(7, 5),
        Fraction(17, 12),
        Fraction(41, 29),
    ]
    golden = continued_fraction_convergents([1] * 7)
    assert golden == [
        Fraction(1),
        Fraction(2),
        Fraction(3, 2),
        Fraction(5, 3),
        Fraction(8, 5),
        Fraction(13, 8),
        Fraction(21, 13),
    ]
    sqrt3 = continued_fraction_convergents([1, 1, 2, 1, 2, 1])
    assert sqrt3 == [
        Fraction(1),
        Fraction(2),
        Fraction(5, 3),
        Fraction(7, 4),
        Fraction(19, 11),
        Fraction(26, 15),
    ]


def test_named_convergents_satisfy_pell_identities():
    for cap in (10**3, 10**6, 10**9):
        c2 = named_convergent("sqrt2", cap)
        assert c2.denominator <= cap
        assert abs(c2.numerator**2 - 2 * c2.denominator**2) == 1
        c3 = named_convergent("sqrt3", cap)
        assert c3.denominator <= cap
        assert abs(c3.numerator**2 - 3 * c3.denominator**2) in (1, 2)
        g = named_convergent("golden", cap)
        assert abs(g.numerator**2 - g.numerator * g.denominator - g.denominator**2) == 1
    with pytest.raises(ValueError):
        named_convergent("pi")


def test_convergent_caps_are_respected_up_to_word_size():
    c = named_convergent("sqrt2", 2**62)
    assert 2**60 < c.denominator <= 2**62


def test_density_whole_torus():
    # odd denominator keeps every orbit point strictly inside radius 1/2
    beta = named_convergent("golden", 150000)
    assert beta.denominator % 2 == 1
    bh = make_bh([beta], ["0"], k=0, eps="1/2")
    assert sqrt_set_enumerate(bh, 1000).density == 1
    assert bh.ball.measure() == 1


def test_density_tracks_measure_for_generic_frequency():
    # convergents with q near 10^9 equidistribute at N = 10^6, well below q
    coords = [named_convergent(name, 10**9) for name in ("sqrt2", "sqrt3")]
    bh = make_bh(coords, ["0", "0"], k=1, eps="1/4")
    assert bh.ball.measure() == Fraction(3, 4)
    density = sqrt_set_enumerate(bh, 10**6).density
    assert abs(density - bh.ball.measure()) < Fraction(1, 50)


def test_set_rle_roundtrip():
    payload = set_to_json([1, 2, 3, 7, 10, 11], 12)
    assert payload == {"N": 12, "elems": [[1, 3], [7, 1], [10, 2]]}
    elems, horizon = set_from_json(payload)
    assert elems == [1, 2, 3, 7, 10, 11]
    assert horizon == 12


@given(st.sets(st.integers(0, 200), max_size=60))
def test_set_rle_roundtrip_random(elems):
    restored, horizon = set_from_json(set_to_json(elems, 201))
    assert restored == sorted(elems)
    assert horizon == 201
