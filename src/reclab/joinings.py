"""Finite joining models for quadratic orbit averages.

The grid pipeline averages along the orbit n -> n*c + n^2*u with linear
part c = (alpha, t0, 2*alpha, 2*t0, 0) and quadratic part
u = (0, alpha, 0, 4*alpha, l^2*beta).  Its two offset blocks
w1 = (z4 - 2*z2)/2 and w2 = z5 sweep out n^2 * (alpha, l^2*beta), so the
joining is the Haar measure on the subgroup of Z_M^(d+r) generated by
(alpha, l^2*beta), M the common denominator of alpha, t0 and l^2*beta.
That Haar measure is the only joining shape here, and
``extract_affine_joining`` builds it from the two blocks directly; its
base is held as that one generator (``lattice.SubgroupModel``).

The construction has a precondition on the linear blocks: alpha and t0
must have coprime orders, so that the linear part closes on the product
of their cyclic closures, and M must be odd, so that the offsets halve.
The grid pipeline checks it before building the joining: an odd q, an
alpha that generates Z_q, an order of t0 coprime to q and an odd M.

Averaging a product f(x, y + 2*w1) * g(w2) against the joining is the
star convolution; on the transform side it multiplies each (chi, psi)
coefficient of f by a factor depending on psi and g only.

Cylinder constructions over a joining must certify their zeros.  A sum of
q-th roots of unity with integer weights is exactly zero iff it is an
integer combination of rotated regular p-gons, p prime and dividing q
(Redei, de Bruijn, Schoenberg; Lam and Leung 2000).  Folding those
p-gons out of the weights, one prime at a time on the CRT grid of q,
leaves the sum's coordinates in a basis of Q(e(1/q)), which is a finite
integer computation; every claimed annihilation is pushed through that
test and a failure raises rather than returning a near-zero.
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
    annihilating_cylinder,
    centered_residue,
    top_k_characters,
)
from .lattice import SubgroupModel
from .torus import ApproxHammingBall, Cylinder

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
    """The Haar measure of a cyclic base subgroup of Z_q^(d+r).

    The first d coordinates are the w1 block (they shift the second
    argument of f by 2*w1), the last r are the w2 block (they feed g).
    Joinings are equal when their base generators are.
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
    base = SubgroupModel(modulus, tuple(int(c * modulus) for c in coords))
    return AffineJoining(base, len(alpha), len(weight_dir))


# ---- exact zero certificates for root-of-unity sums ----


def root_of_unity_sum_is_zero(weights: np.ndarray) -> bool:
    """Whether sum_t weights[t] * e(t/q) is exactly zero, q = len(weights).

    The weights are integers.  The rational relations among the q-th
    roots of unity are spanned by the rotated regular p-gons, p a prime
    dividing q (Redei, de Bruijn, Schoenberg).  So lay the weights out on
    the CRT grid of q = prod p^a, and on each axis fold the last of the
    p rotated copies of Z_(p^(a-1)) into the others: what is left are the
    coordinates in the power basis of Q(e(1/q)) of the sum's image under
    a Galois automorphism (the CRT units), all 0 iff the sum is 0.  Each
    fold at most doubles a cell, so weights whose max |w| times 2^s
    (s distinct primes) reaches 2^63 raise ValueError.
    """
    w = np.asarray(weights)
    if w.ndim != 1 or not w.size or w.dtype.kind not in "iu":
        raise ValueError("weights must be a nonempty integer vector")
    q = w.size
    primes, moduli = [], []
    rest, p = q, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            primes.append(p)
            moduli.append(1)
            while rest % p == 0:
                rest //= p
                moduli[-1] *= p
        p += 1
    peak = max(-int(w.min()), int(w.max()))
    if peak << len(primes) >= 2**63:
        raise ValueError(f"weight {peak} times 2^{len(primes)} overflows int64")
    t = np.arange(q)
    flat = np.zeros(q, dtype=np.int64)
    for m in moduli:
        flat = flat * m + t % m
    grid = np.empty(q, dtype=np.int64)
    grid[flat] = w
    grid = grid.reshape(moduli)
    for p in primes:
        cells = grid.reshape(p, -1)
        grid = np.moveaxis((cells[:-1] - cells[-1]).reshape(-1, *grid.shape[1:]), 0, -1)
    return not grid.any()


# ---- cylinders evaluated over a joining ----


def _phase(freq: Sequence[int], block: Sequence[int], q: int, scale: int = 1) -> int:
    return sum(scale * n * a for n, a in zip(freq, block)) % q


def _verify_star_zero(inside: np.ndarray, q: int, freq: Sequence[int], scale: int) -> None:
    """Certify that the sum over the base of e(scale * freq . w1 / q) g(w2) is 0.

    ``inside`` holds the w1 blocks (int64) of the base elements whose w2
    block lies in the cylinder, the only ones where g is nonzero, and
    there g is one positive constant, which cannot change a zero.  They
    are reduced to the w1 order q, so every product is below q^2.
    """
    step = np.array([scale * n % q for n in freq], dtype=np.int64)
    if not root_of_unity_sum_is_zero(np.bincount(inside @ step % q, minlength=q)):
        raise ArithmeticError(
            f"coefficient for frequency {tuple(freq)} is not certifiably zero; "
            "the joining is too sparse for this cylinder"
        )


@functools.lru_cache(maxsize=4)
def _base_elements(base: SubgroupModel) -> np.ndarray:
    """The elements of a joining base, enumerated once and shared read-only."""
    return base.elements()


def _solve_congruence(b: Sequence[int], p: int, q: int) -> list[int]:
    """One psi with psi . b = p (mod q), when gcd(q, *b) divides p.

    Extended Euclid folds in one coordinate of b at a time, keeping
    g = gcd(q, b_1, ..., b_i) = y . (b_1, ..., b_i) (mod q); at the end
    psi = y * (p / g).
    """
    g, y = q, []
    for x in b:
        # Euclid on (g, x): s * g + t * x = gcd(g, x)
        r0, r1, s0, s1, t0, t1 = g, x, 1, 0, 0, 1
        while r1:
            k = r0 // r1
            r0, r1 = r1, r0 - k * r1
            s0, s1 = s1, s0 - k * s1
            t0, t1 = t1, t0 - k * t1
        g, y = r0, [s0 * c % q for c in y] + [t0 % q]
    return [c * (p // g) % q for c in y]


def annihilate_over_joining(
    ball: ApproxHammingBall,
    joining: AffineJoining,
    chars: Iterable[Character],
    scale: int = 1,
) -> Cylinder:
    """Cylinder g subordinate to ball with avg of chi(scale*w1) g(w2) = 0.

    The average runs over the joining's base <(a, b)>, a the w1 and b
    the w2 block of its generator, and each character is decided by its
    phase p = scale * chi . a on the generator.  The kernel of the w2
    projection is generated by (M / gcd(M, *b)) * (a, 0), M the modulus:
    a character nontrivial there (p * M / gcd(M, *b) != 0 mod M) dies
    automatically, since fibers cancel.  Any other is pushed through the
    w2 marginal: psi . b = p (mod M) is solvable exactly then, and the
    cylinder is pinned against the character psi of the full grid.
    Every zero is then certified exactly by ``root_of_unity_sum_is_zero``,
    which folds the phase counts along rotated p-gons; an uncertifiable
    sum raises.
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

    a, b = joining.base.generator[:d], joining.base.generator[d:]
    kernel_step = q // math.gcd(q, *b)
    needed: dict[tuple[int, ...], Character] = {}
    for chi in chars:
        p = _phase(chi.freq, a, q, scale)
        if p * kernel_step % q:
            continue
        if not p:
            raise ValueError(
                f"character {chi.freq} vanishes on the joining base; "
                "no cylinder choice can annihilate a constant"
            )
        psi = _solve_congruence(b, p, q)
        ext = Character(tuple(centered_residue(c, q) for c in psi))
        needed[ext.freq] = ext

    cyl = annihilating_cylinder(ball, list(needed.values()))
    w = _base_elements(joining.base)
    # every w1 block is a multiple of unit = gcd(q, *a): its phases live in Z_(q/unit)
    unit = math.gcd(q, *a)
    inside = w[cyl.orbit_contains([Fraction(1, q)] * r, w[:, d:]), :d] // unit
    for chi in chars:
        _verify_star_zero(inside, q // unit, chi.freq, scale)
    return cyl


def uniformize_over_joining(
    hat: np.ndarray,
    ball: ApproxHammingBall,
    joining: AffineJoining,
    norm_bound: float = 1.0,
) -> tuple[Cylinder, dict]:
    """Cylinder g whose star convolution flattens f's largest mixed modes.

    Picks the k = ball.k largest coefficients of ``hat``, f's spectrum on
    the (x, y) grid, whose psi block is nontrivial and annihilates the
    doubled frequencies 2*psi over the joining, so each selected (chi, psi)
    coefficient of f *_joining g is exactly zero and the rest are bounded
    by the top-k residual.  Needs an odd grid so doubling loses no character.
    """
    d, q = joining.d, joining.q
    if q % 2 == 0:
        raise ValueError(f"grid size {q} is even; doubled frequencies would collide")
    if hat.ndim != 2 * d:
        raise ValueError("coefficient array must live on the (x, y) product")

    chosen, residual = top_k_characters(hat, ball.k, norm_bound, split=d)
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
