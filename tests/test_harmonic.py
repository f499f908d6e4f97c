import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reclab.harmonic import (
    Character,
    CoefficientTable,
    GridFunction,
    annihilating_cylinder,
    centered_residue,
    cylinder_coefficient_is_structural_zero,
    top_k_characters,
)
from reclab.torus import ApproxHammingBall, Cylinder, TorusPoint

from oracles import (
    character_value,
    cylinder_fourier,
    grid_convolve,
    grid_dft_direct,
    grid_idft,
    grid_plancherel_gap,
    random_grid,
    spectrum_table,
    spectrum_table_per_cell,
    top_k_by_table,
    top_k_outcome,
    uniformizing_cylinder,
    zero_point,
)


# ---- characters and tables ----


def test_character_value():
    chi = Character((1, 2))
    x = TorusPoint.of(["1/4", "1/8"])
    # phase = 1/4 + 2/8 = 1/2
    assert abs(character_value(chi, x) + 1) < 1e-12


# ---- cylinder coefficients ----


def test_cylinder_fourier_closed_form_value():
    # pinned single coordinate, center 1/2, width 1/4, frequency 1:
    # e(-1/2) * sin(pi/2)/(pi/2) = -2/pi
    cyl = Cylinder(dim=1, index_set=(1,), center=TorusPoint.of(["1/2"]), eta="1/4")
    got = cylinder_fourier(cyl, Character((1,)))
    assert abs(got - (-2 / math.pi)) < 1e-12
    assert abs(got.imag) < 1e-12


def test_cylinder_fourier_riemann_oracle():
    # quadrature oracle on 10^6 points for the same coefficient
    cyl = Cylinder(dim=1, index_set=(1,), center=TorusPoint.of(["1/2"]), eta="1/4")
    n_pts = 10**6
    xs = (np.arange(n_pts) + 0.5) / n_pts
    inside = np.abs(((xs - 0.5 + 0.5) % 1.0) - 0.5) < 0.25
    density = inside / 0.5
    val = np.mean(density * np.exp(-2j * np.pi * xs))
    assert abs(val - cylinder_fourier(cyl, Character((1,)))) < 1e-6


def test_cylinder_fourier_structural_zero():
    cyl = Cylinder(dim=3, index_set=(1, 3), center=zero_point(3), eta="1/8")
    chi = Character((0, 5, 0))  # frequency rides on the free coordinate 2
    assert cylinder_coefficient_is_structural_zero(cyl, chi)
    assert cylinder_fourier(cyl, chi) == 0
    # and stays zero for translated centers
    moved = Cylinder(
        dim=3, index_set=(1, 3), center=TorusPoint.of(["1/7", "2/5", "1/3"]), eta="1/8"
    )
    assert cylinder_fourier(moved, chi) == 0


def test_cylinder_fourier_trivial_character_is_one():
    cyl = Cylinder(dim=2, index_set=(1,), center=TorusPoint.of(["1/3", 0]), eta="1/5")
    assert cylinder_fourier(cyl, Character((0, 0))) == 1


def test_cylinder_fourier_grid_oracle_2d():
    # 2d quadrature against the closed form, non-structural case
    cyl = Cylinder(
        dim=2, index_set=(1, 2), center=TorusPoint.of(["1/3", "3/4"]), eta="1/5"
    )
    chi = Character((2, -1))
    n = 1500
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    def dist(a, c):
        d = np.abs((a - c) % 1.0)
        return np.minimum(d, 1 - d)

    inside = (dist(X, 1 / 3) < 0.2) & (dist(Y, 3 / 4) < 0.2)
    dens = inside / (0.4 * 0.4)
    val = np.mean(dens * np.exp(-2j * np.pi * (2 * X - Y)))
    assert abs(val - cylinder_fourier(cyl, chi)) < 2e-3


# ---- top-k ----


def test_top_k_orders_and_ties():
    hat = np.zeros(7, dtype=complex)
    hat[3], hat[-2], hat[1] = 0.5, 0.5j, 0.1
    chosen, residual = top_k_characters(hat, 2, norm_bound=1.0, split=0)
    # equal moduli: lexicographic on the centered tuple, (-2,) before (3,)
    assert [c.freq for c in chosen] == [(-2,), (3,)]
    assert residual == pytest.approx(0.1)
    assert top_k_outcome(top_k_characters, hat, 2, 1.0, 0) == top_k_outcome(
        top_k_by_table, hat, 2, 1.0, 0
    )


def test_top_k_zero_table():
    chosen, residual = top_k_characters(np.zeros((3, 3), dtype=complex), 4, 1.0, split=1)
    assert chosen == [] and residual == 0.0


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError):
        top_k_characters(np.zeros(3, dtype=complex), 0, norm_bound=1.0, split=0)


def test_top_k_keeps_only_modes_with_a_psi_block():
    hat = np.zeros((5, 5), dtype=complex)
    hat[2, 0], hat[0, 0], hat[4, 1], hat[0, 3] = 0.6, 0.5, 0.2, 0.1
    chosen, residual = top_k_characters(hat, 1, norm_bound=1.0, split=1)
    # (2, 0) and (0, 0) have a zero psi block; -1 and -2 are the centered 4 and 3
    assert [c.freq for c in chosen] == [(-1, 1)]
    assert residual == 0.1


def test_top_k_cuts_at_the_spectrum_tolerance():
    # np.abs > 1e-12 takes part, exactly as the table route's cut did
    edge = 1e-12
    hat = np.zeros((5, 5), dtype=complex)
    hat[0, 1] = edge
    hat[0, 2] = np.nextafter(edge, 1.0)
    hat[1, 1] = 1j * edge
    hat[2, 2] = -np.nextafter(edge, 1.0) * 1j
    hat[3, 4] = np.nextafter(edge, 0.0)
    assert np.abs(hat[0, 2]) > edge and not np.abs(hat[0, 1]) > edge
    for k in (1, 2, 3):
        assert top_k_outcome(top_k_characters, hat, k, 1.0, 1) == top_k_outcome(
            top_k_by_table, hat, k, 1.0, 1
        )
    chosen, residual = top_k_characters(hat, 1, 1.0, split=1)
    assert [c.freq for c in chosen] == [(0, 2)] and residual == np.nextafter(edge, 1.0)
    chosen, residual = top_k_characters(hat, 2, 1.0, split=1)
    assert [c.freq for c in chosen] == [(0, 2), (2, 2)] and residual == 0.0


@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_top_k_residual_bound_random(kexp, rng):
    k = kexp**2  # 1, 4, 9, 16
    n_terms = rng.randint(1, 40)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n_terms)]
    coeffs[0] += 1.0  # keep the norm away from zero
    norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
    hat = np.zeros(n_terms + 1, dtype=complex)
    hat[1:] = np.array(coeffs) / norm
    chosen, residual = top_k_characters(hat, k, norm_bound=1.0, split=0)
    assert residual < 1 / math.sqrt(1 + k) + 1e-12


@st.composite
def tied_integer_grids(draw):
    """An integer grid on Z_q^2 with entries in {-1, 0, 1}, whose spectrum ties often."""
    q = draw(st.sampled_from([3, 5, 9, 15, 27]))
    cells = st.sampled_from([-1, 0, 1])
    shape = draw(st.sampled_from(["cells", "product", "x-only"]))
    if shape == "cells":
        return np.array(draw(st.lists(cells, min_size=q * q, max_size=q * q))).reshape(q, q)
    u = np.array(draw(st.lists(cells, min_size=q, max_size=q)))
    if shape == "x-only":
        return np.repeat(u[:, None], q, axis=1)
    return np.outer(u, draw(st.lists(cells, min_size=q, max_size=q)))


@given(
    values=tied_integer_grids(),
    k=st.integers(1, 4),
    tightness=st.sampled_from([1.0, 0.5, 0.2, 0.05]),
)
# one nonzero cell: every mode has the same modulus
@example(values=np.eye(1, 81, 40, dtype=np.int64).reshape(9, 9), k=4, tightness=1.0)
@settings(max_examples=200, deadline=None)
def test_top_k_kernel_matches_the_table_route_on_tied_integer_grids(values, k, tightness):
    # the same frequencies in the same order, the same residual bits, the same error
    q = values.shape[0]
    hat = GridFunction(2, q, values.astype(np.complex128)).dft().values
    norm_bound = tightness * (math.sqrt(np.mean(values * values)) or 1.0)
    got = top_k_outcome(top_k_characters, hat, k, norm_bound, 1)
    assert got == top_k_outcome(top_k_by_table, hat, k, norm_bound, 1)


# ---- annihilating cylinders ----


def test_annihilating_cylinder_basic():
    ball = ApproxHammingBall(center=zero_point(3), k=1, eps="1/6")
    cyl = annihilating_cylinder(ball, [Character((0, 2, 0))])
    assert cyl.index_set == (1, 3)
    assert cylinder_fourier(cyl, Character((0, 2, 0))) == 0


def test_annihilating_cylinder_collision_pads_largest():
    ball = ApproxHammingBall(center=zero_point(4), k=2, eps="1/8")
    chars = [Character((1, 0, 0, 0)), Character((2, 0, 0, 0))]
    cyl = annihilating_cylinder(ball, chars)
    # both drop index 1; index 4 is removed as padding
    assert cyl.index_set == (2, 3)
    for chi in chars:
        assert cylinder_fourier(cyl, chi) == 0


def test_annihilating_cylinder_k_zero():
    ball = ApproxHammingBall(center=zero_point(3), k=0, eps="1/6")
    cyl = annihilating_cylinder(ball, [])
    assert cyl.index_set == (1, 2, 3)


def test_annihilating_cylinder_rejects_excess():
    ball = ApproxHammingBall(center=zero_point(3), k=1, eps="1/6")
    with pytest.raises(ValueError):
        annihilating_cylinder(ball, [Character((1, 0, 0)), Character((0, 1, 0))])
    with pytest.raises(ValueError):
        annihilating_cylinder(ball, [Character((0, 0, 0))])


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_annihilating_cylinder_random_batches(seed, r):
    rng = random.Random(seed)
    k = rng.randint(1, min(4, r - 1))
    ball = ApproxHammingBall(center=zero_point(r), k=k, eps="1/5")
    chars = []
    for _ in range(k):
        freq = [0] * r
        while all(v == 0 for v in freq):
            freq = [rng.randint(-3, 3) for _ in range(r)]
        chars.append(Character(tuple(freq)))
    cyl = annihilating_cylinder(ball, chars)
    assert len(cyl.index_set) == r - k
    for chi in chars:
        assert cylinder_coefficient_is_structural_zero(cyl, chi)


def test_uniformizing_cylinder_flattens():
    rng = random.Random(11)
    r, k = 6, 4
    table = CoefficientTable(r)
    entries = []
    for _ in range(30):
        freq = tuple(rng.randint(-2, 2) for _ in range(r))
        entries.append((freq, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
    norm = math.sqrt(sum(abs(v) ** 2 for _, v in entries))
    for freq, v in entries:
        chi = Character(freq)
        table[chi] = table[chi] + v / norm
    # renormalize exactly to <= 1 after collisions
    s = math.sqrt(sum(abs(v) ** 2 for _, v in table))
    for chi, v in list(table):
        table[chi] = v / s
    ball = ApproxHammingBall(center=zero_point(r), k=k, eps="1/5")
    cyl, report = uniformizing_cylinder(ball, table)
    # off-selection coefficients of f * g stay below 1/sqrt(k)
    for chi, v in table:
        if chi.trivial:
            continue
        prod = v * cylinder_fourier(cyl, chi)
        assert abs(prod) < 1 / math.sqrt(k) + 1e-9
    for freq in report["selected"]:
        assert cylinder_fourier(cyl, Character(tuple(freq))) == 0


def test_uniformizing_cylinder_sparse_support():
    # when f has only k nontrivial characters, everything nontrivial dies
    r, k = 5, 3
    table = CoefficientTable(r)
    freqs = [(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, -1, 0, 0)]
    for f in freqs:
        table[Character(f)] = 0.5
    ball = ApproxHammingBall(center=zero_point(r), k=k, eps="1/4")
    cyl, _ = uniformizing_cylinder(ball, table)
    for f in freqs:
        assert cylinder_fourier(cyl, Character(f)) == 0


# ---- grid functions ----


def test_dft_roundtrip_direct():
    f = random_grid(2, 7, seed=3)
    back = grid_idft(f.dft())
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_dft_direct_vs_fft_agree():
    # the FFT against the definition, on grids of fewer and of more than 4096 cells
    for dim, q in [(1, 64), (2, 11), (1, 101), (3, 5), (2, 65)]:
        f = random_grid(dim, q, seed=dim * q)
        a = grid_dft_direct(f)
        b = f.dft()
        assert np.max(np.abs(a.values - b.values)) < 1e-9


@pytest.mark.parametrize("dim, q", [(1, 1), (1, 7), (2, 8), (3, 5), (1, 135)])
def test_dft_is_the_normalized_fft_bit_for_bit(dim, q):
    f = random_grid(dim, q, seed=dim + q)
    want = np.fft.fftn(f.values) / f.size()
    assert np.array_equal(f.dft().values.view(np.uint64), want.view(np.uint64))
    hat = f.spectrum_table()
    assert np.array_equal(hat.view(np.uint64), want.view(np.uint64))
    for k in (1, 4):
        got = top_k_outcome(top_k_characters, hat, k, math.inf, dim - 1)
        assert got == top_k_outcome(top_k_by_table, hat, k, math.inf, dim - 1)


def test_plancherel_exact_to_float_eps():
    for q, d in [(3, 1), (5, 2), (7, 2), (64, 1)]:
        f = random_grid(d, q, seed=q + d)
        assert grid_plancherel_gap(f) < 1e-9


def test_convolution_theorem():
    for q, d in [(5, 1), (7, 2), (12, 1)]:
        f = random_grid(d, q, seed=1)
        g = random_grid(d, q, seed=2)
        conv = grid_convolve(f, g)
        lhs = conv.dft().values
        # the averaging in both the transform and the convolution makes the
        # identity factor-free: hat(f*g) = fhat * ghat pointwise
        rhs = f.dft().values * g.dft().values
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_convolution_direct_oracle():
    q = 6
    f = random_grid(1, q, seed=5)
    g = random_grid(1, q, seed=6)
    conv = grid_convolve(f, g)
    direct = np.array(
        [sum(f.values[t] * g.values[(x - t) % q] for t in range(q)) / q for x in range(q)]
    )
    assert np.max(np.abs(conv.values - direct)) < 1e-12


def test_centered_residue():
    assert centered_residue(3, 5) == -2
    assert centered_residue(2, 5) == 2
    assert centered_residue(2, 4) == 2
    assert centered_residue(3, 4) == -1
    assert centered_residue(7, 7) == 0


def test_spectrum_table_matches_known():
    # f(x) = e(x/5) on Z_5 has a single coefficient at frequency 1
    q = 5
    vals = np.exp(2j * np.pi * np.arange(q) / q)
    hat = GridFunction(1, q, vals).spectrum_table()
    table = spectrum_table(hat, tol=1e-9)
    assert len(table) == 1
    assert abs(table[Character((1,))] - 1) < 1e-12
    chosen, residual = top_k_characters(hat, 1, norm_bound=1.0, split=0)
    assert [c.freq for c in chosen] == [(1,)] and residual == 0.0


@pytest.mark.parametrize("dim, q", [(1, 1), (1, 6), (1, 7), (2, 8), (3, 5), (2, 65)])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.3])
def test_spectrum_table_matches_the_cell_loop_entry_for_entry(dim, q, tol):
    # the whole-array table oracle against the cell loop, and the kernel against both
    f = random_grid(dim, q, seed=dim + q)
    sparse = GridFunction(dim, q, np.where(np.abs(f.values) > 1.0, f.values, 0))
    for grid in (f, sparse, GridFunction(dim, q, np.zeros((q,) * dim))):
        hat = grid.spectrum_table()
        got = [(chi.freq, v) for chi, v in spectrum_table(hat, tol)]
        want = [(chi.freq, v) for chi, v in spectrum_table_per_cell(grid, tol)]
        assert [(k, repr(v)) for k, v in got] == [(k, repr(v)) for k, v in want]
        assert all(type(v) is complex and all(type(n) is int for n in k) for k, v in got)
        for split in range(dim):
            for k in (1, 2, 4):
                selected = top_k_outcome(top_k_characters, hat, k, math.inf, split)
                assert selected == top_k_outcome(top_k_by_table, hat, k, math.inf, split)
