"""Finite joining models for quadratic orbit averages.

The grid pipeline averages along the orbit n -> n*c + n^2*u with linear
part c = (alpha, t0, 2*alpha, 2*t0, 0) and quadratic part
u = (0, alpha, 0, 4*alpha, l^2*beta).  Its two offset blocks
w1 = (z4 - 2*z2)/2 and w2 = z5 sweep out n^2 * (alpha, l^2*beta), so the
joining is the Haar measure on the subgroup of Z_M^(d+r) generated by
(alpha, l^2*beta), M the common denominator of alpha, t0 and l^2*beta.
That Haar measure is the only joining shape here, and
``extract_affine_joining`` builds it from the two blocks directly.

The construction has a precondition on the linear blocks: alpha and t0
must have coprime orders, so that the linear part closes on the product
of their cyclic closures, and M must be odd, so that the offsets halve.
The grid pipeline checks it before building the joining: an odd q, an
alpha that generates Z_q, an order of t0 coprime to q and an odd M.

Averaging a product f(x, y + 2*w1) * g(w2) against the joining is the
star convolution; on the transform side it multiplies each (chi, psi)
coefficient of f by a factor depending on psi and g only.

Cylinder constructions over a joining must certify their zeros.  A sum of
q-th roots of unity with rational masses is exactly zero iff the mass
polynomial is divisible by the q-th cyclotomic polynomial, which is a
finite integer computation; every claimed annihilation is pushed through
that test and a failure raises rather than returning a near-zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .harmonic import (
    Character,
    CoefficientTable,
    annihilating_cylinder,
    centered_residue,
    top_k_characters,
)
from .lattice import SubgroupModel, solve_linear_mod
from .torus import ApproxHammingBall, Cylinder, as_fraction

__all__ = [
    "AffineJoining",
    "annihilate_over_joining",
    "extract_affine_joining",
    "root_of_unity_sum_is_zero",
    "uniformize_over_joining",
]


# ---- affine joinings ----


@dataclass(frozen=True)
class AffineJoining:
    """The Haar measure of a base subgroup of Z_q^(d+r).

    The first d coordinates are the w1 block (they shift the second
    argument of f by 2*w1), the last r are the w2 block (they feed g).
    Equal subgroups give equal joinings, since the base is held in its
    canonical Hermite form.
    """

    base: SubgroupModel
    d: int
    r: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.r < 1:
            raise ValueError("both blocks must be nonempty")
        if self.base.dim != self.d + self.r:
            raise ValueError("base dimension must be d + r")

    @property
    def q(self) -> int:
        return self.base.q


def extract_affine_joining(
    alpha: Sequence[Fraction], weight_dir: Sequence[Fraction], modulus: int
) -> AffineJoining:
    """Haar measure on the subgroup of Z_modulus^(d+r) generated by (alpha, weight_dir).

    alpha (d coordinates) is the w1 block and weight_dir = l^2*beta (r
    coordinates) the w2 block; modulus must be a multiple of every
    denominator; a coordinate whose denominator does not divide it raises
    ValueError.  The caller checks the precondition on the orbit's linear
    blocks that the module docstring states.
    """
    coords = (*alpha, *weight_dir)
    for c in coords:
        if (c * modulus).denominator != 1:
            raise ValueError(f"coordinate {c}: its denominator does not divide {modulus}")
    gen = [c * modulus % modulus for c in coords]
    base = SubgroupModel.from_generators(modulus, len(gen), [gen])
    return AffineJoining(base, len(alpha), len(weight_dir))


# ---- exact zero certificates for root-of-unity sums ----

_cyclotomic_memo: dict[int, list[int]] = {}


def _poly_div(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder for a monic integer divisor."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        coeff = num[i]
        if coeff:
            quot[i - dn] = coeff
            for j, dc in enumerate(den):
                num[i - dn + j] -= coeff * dc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _cyclotomic(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n in _cyclotomic_memo:
        return _cyclotomic_memo[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for dd in range(1, n):
        if n % dd == 0:
            poly, rem = _poly_div(poly, _cyclotomic(dd))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    _cyclotomic_memo[n] = poly
    return poly


def root_of_unity_sum_is_zero(masses: dict[int, Fraction], q: int) -> bool:
    """Whether sum_t masses[t] * e(t/q) is exactly zero.

    Complete for rational masses: the sum vanishes iff the minimal
    polynomial of e(1/q), the q-th cyclotomic polynomial, divides the mass
    polynomial.  No floating point is involved.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    coeffs = [Fraction(0)] * q
    for t, mass in masses.items():
        coeffs[t % q] += as_fraction(mass)
    if not any(coeffs):
        return True
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    _, rem = _poly_div(ints, _cyclotomic(q))
    return not rem


# ---- cylinders evaluated over a joining ----


def _phase(freq: Sequence[int], block: Sequence[int], q: int, scale: int = 1) -> int:
    return sum(scale * n * a for n, a in zip(freq, block)) % q


def _verify_star_zero(
    inside: np.ndarray, q: int, freq: Sequence[int], cyl: Cylinder, scale: int
) -> None:
    """Certify that the sum over the base of e(scale * freq . w1 / q) g(w2) is 0.

    ``inside`` holds the w1 blocks (int64) of the base elements whose w2
    block lies in the cylinder, the only ones where g is nonzero.
    """
    step = np.array([scale * n % q for n in freq], dtype=np.int64)
    phases, counts = np.unique(inside @ step % q, return_counts=True)
    value = 1 / cyl.measure()
    masses = {t: c * value for t, c in zip(phases.tolist(), counts.tolist())}
    if not root_of_unity_sum_is_zero(masses, q):
        raise ArithmeticError(
            f"coefficient for frequency {tuple(freq)} is not certifiably zero; "
            "the joining is too sparse for this cylinder"
        )


@functools.lru_cache(maxsize=4)
def _base_elements(base: SubgroupModel) -> np.ndarray:
    """The elements of a joining base as int64 rows, enumerated once and shared read-only."""
    w = np.array(base.elements(), dtype=np.int64)
    w.flags.writeable = False
    return w


def annihilate_over_joining(
    ball: ApproxHammingBall,
    joining: AffineJoining,
    chars: Iterable[Character],
    scale: int = 1,
) -> Cylinder:
    """Cylinder g subordinate to ball with avg of chi(scale*w1) g(w2) = 0.

    The average runs over the joining's base subgroup.  Each character
    either dies automatically (it is nontrivial on the kernel of the w2
    projection, so fibers cancel) or is pushed through the w2 marginal:
    extend it to a character of the full grid and pin the cylinder
    against the extension.  Every zero is then certified exactly
    by the cyclotomic test; an uncertifiable sum raises.
    """
    d, r, q = joining.d, joining.r, joining.q
    if ball.dim != r:
        raise ValueError("ball dimension must match the w2 block")
    chars = list(chars)
    for chi in chars:
        if chi.dim != d:
            raise ValueError("characters act on the w1 block")
        if all((scale * n) % q == 0 for n in chi.freq):
            raise ValueError(f"character {chi.freq} is trivial on the grid Z_{q}")

    w = _base_elements(joining.base)
    kernel = w[~w[:, d:].any(axis=1), :d].tolist()
    basis_rows = [tuple(a % q for a in row) for row in joining.base.basis]

    needed: dict[tuple[int, ...], Character] = {}
    for chi in chars:
        if any(_phase(chi.freq, w1, q, scale) for w1 in kernel):
            continue
        phases = [_phase(chi.freq, row[:d], q, scale) for row in basis_rows]
        if not any(phases):
            raise ValueError(
                f"character {chi.freq} vanishes on the joining base; "
                "no cylinder choice can annihilate a constant"
            )
        solution = solve_linear_mod(
            [list(row[d:]) for row in basis_rows], phases, q
        )
        if solution is None:
            raise ArithmeticError(
                "character extension system is inconsistent despite a trivial kernel"
            )
        ext = Character(tuple(centered_residue(a, q) for a in solution))
        needed[ext.freq] = ext

    cyl = annihilating_cylinder(ball, list(needed.values()))
    inside = w[cyl.orbit_contains([Fraction(1, q)] * r, w[:, d:]), :d]
    for chi in chars:
        _verify_star_zero(inside, q, chi.freq, cyl, scale)
    return cyl


def uniformize_over_joining(
    f_table: CoefficientTable,
    ball: ApproxHammingBall,
    joining: AffineJoining,
    norm_bound: float = 1.0,
) -> tuple[Cylinder, dict]:
    """Cylinder g whose star convolution flattens f's largest mixed modes.

    Picks the k = ball.k largest coefficients of f whose psi block is
    nontrivial and annihilates the doubled frequencies 2*psi over the
    joining, so each selected (chi, psi) coefficient of f *_joining g is
    exactly zero and the rest are bounded by the top-k residual.  Needs an
    odd grid so that doubling loses no character.
    """
    d, q = joining.d, joining.q
    if q % 2 == 0:
        raise ValueError(f"grid size {q} is even; doubled frequencies would collide")
    if f_table.dim != 2 * d:
        raise ValueError("coefficient table must live on the (x, y) product")

    def keep(chi: Character) -> bool:
        return any(chi.freq[d:])

    chosen, residual = top_k_characters(f_table, ball.k, norm_bound, restrict=keep)
    doubled: dict[tuple[int, ...], Character] = {}
    for chi in chosen:
        psi = chi.freq[d:]
        doubled[psi] = Character(psi)
    cyl = annihilate_over_joining(ball, joining, doubled.values(), scale=2)
    report = {
        "selected": [list(chi.freq) for chi in chosen],
        "psi_blocks": [list(psi) for psi in doubled],
        "residual": residual,
    }
    return cyl, report
