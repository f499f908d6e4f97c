"""Finite joining models for quadratic orbit averages.

The objects here live on the grid group Z_q^m.  For orbits
n -> n*c + n^2*u whose linear part lies on the progression diagonal
{(s, t, 2s, 2t, 0)} and whose quadratic part has the shape
(0, a, 0, 4a, b), the two offset coordinates w1 = (z4 - 2*z2)/2 and
w2 = z5 sweep out (n^2 * a, n^2 * b).  The joining extracted from such
an orbit is the Haar measure on the subgroup of Z_q^(d+r) those offsets
generate, and that Haar measure is the only joining shape here.
Averaging a product f(x, y + 2*w1) * g(w2) against it is the star
convolution; on the transform side it multiplies each (chi, psi)
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
from .torus import ApproxHammingBall, Cylinder, RationalLike, as_fraction

__all__ = [
    "AffineJoining",
    "annihilate_over_joining",
    "extract_affine_joining",
    "offset_projection",
    "pair_embedding",
    "quadratic_direction",
    "root_of_unity_sum_is_zero",
    "uniformize_over_joining",
]


# ---- lifting rationals onto a common grid ----


def _lift_common(
    vectors: Sequence[Sequence[RationalLike]], modulus: int | None = None
) -> tuple[list[list[int]], int]:
    """Write every coordinate as num/q over one common denominator q."""
    fracs = [[as_fraction(c) for c in vec] for vec in vectors]
    q = 1 if modulus is None else int(modulus)
    if q < 1:
        raise ValueError("modulus must be >= 1")
    for vec in fracs:
        for f in vec:
            q = math.lcm(q, f.denominator)
    lifted = [
        [f.numerator * (q // f.denominator) % q for f in vec] for vec in fracs
    ]
    return lifted, q


# ---- the progression diagonal and standard orbit parts ----


def pair_embedding(s: Sequence, t: Sequence, r: int) -> list:
    """(s, t, 2s, 2t, 0): the linear orbit part determined by a pair."""
    if len(s) != len(t):
        raise ValueError("the two blocks must have equal length")
    return [*s, *t, *(2 * a for a in s), *(2 * b for b in t), *([0] * r)]


def quadratic_direction(alpha: Sequence, beta: Sequence) -> list:
    """(0, alpha, 0, 4*alpha, beta): the quadratic orbit part."""
    d = len(alpha)
    return [0] * d + list(alpha) + [0] * d + [4 * a for a in alpha] + list(beta)


def offset_projection(vec: Sequence[int], d: int, r: int, q: int) -> tuple[int, ...]:
    """(w1, w2) with w1 = (z4 - 2*z2)/2 and w2 = z5, for odd q."""
    if q % 2 == 0:
        raise ValueError("offset projection needs an odd modulus to halve")
    if len(vec) != 4 * d + r:
        raise ValueError(f"vector width {len(vec)} does not match 4*{d}+{r}")
    inv2 = pow(2, -1, q)
    w1 = [inv2 * (vec[3 * d + i] - 2 * vec[d + i]) % q for i in range(d)]
    w2 = [vec[4 * d + i] % q for i in range(r)]
    return tuple(w1 + w2)


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
    linear: Sequence[RationalLike],
    quadratic: Sequence[RationalLike],
    d: int,
    r: int,
    modulus: int | None = None,
) -> AffineJoining:
    """Haar measure on the offset projection of the quadratic part's closure.

    The projection is a homomorphism, so the projected closure is the
    closure of the projected quadratic part: one generator, one normal
    form.  The linear part must lie on the progression diagonal and
    generate the product of the cyclic closures of its two leading blocks;
    otherwise the input is degenerate and a ValueError explains which
    closure came out wrong.  The common denominator q must be odd so the
    offset halving is defined.
    """
    m = 4 * d + r
    if len(linear) != m or len(quadratic) != m:
        raise ValueError(f"both parts must have width 4*{d}+{r} = {m}")
    (c, u), q = _lift_common([list(linear), list(quadratic)], modulus)
    if q % 2 == 0:
        raise ValueError(f"common modulus {q} is even; offsets cannot be halved")

    for i in range(d):
        if (c[2 * d + i] - 2 * c[i]) % q or (c[3 * d + i] - 2 * c[d + i]) % q:
            raise ValueError(
                "degenerate linear part: not on the progression diagonal"
            )
    if any(c[4 * d + i] % q for i in range(r)):
        raise ValueError("degenerate linear part: nonzero trailing block")

    s0, t0 = c[:d], c[d : 2 * d]
    zero_d = [0] * d
    pattern = SubgroupModel.from_generators(
        q, m, [pair_embedding(s0, zero_d, r), pair_embedding(zero_d, t0, r)]
    )
    linear_closure = SubgroupModel.from_generators(q, m, [c])
    if linear_closure != pattern:
        raise ValueError(
            "degenerate linear part: its closure has order "
            f"{linear_closure.order()} but the block product has order "
            f"{pattern.order()}; the two leading blocks must have coprime orders"
        )

    base = SubgroupModel.from_generators(q, d + r, [offset_projection(u, d, r, q)])
    return AffineJoining(base, d, r)


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
