"""Finite joining models for quadratic orbit averages.

The objects here live on the grid group Z_q^m.  An orbit n -> n*c + n^2*u
is decomposed exactly: its visit measure over one period is a convex
combination of uniform measures on cosets of the stabilizer subgroup of
that measure, with rational weights read off from visit counts.  The
identity is exact by construction; the tests re-check it by enumeration,
never by tolerance.

For orbits whose linear part lies on the progression diagonal
{(s, t, 2s, 2t, 0)} and whose quadratic part has the shape
(0, a, 0, 4a, b), the two offset coordinates w1 = (z4 - 2*z2)/2 and
w2 = z5 sweep out (n^2 * a, n^2 * b).  Projecting the decomposition there
yields an affine joining: a base subgroup of Z_q^(d+r) together with
weighted coset shifts.  Averaging a product f(x, y + 2*w1) * g(w2) against
it is the star convolution; on the transform side it multiplies each
(chi, psi) coefficient of f by a factor depending on psi and g only.

Cylinder constructions over a joining must certify their zeros.  A sum of
q-th roots of unity with rational masses is exactly zero iff the mass
polynomial is divisible by the q-th cyclotomic polynomial, which is a
finite integer computation; every claimed annihilation is pushed through
that test and a failure raises rather than returning a near-zero.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .harmonic import (
    Character,
    CoefficientTable,
    annihilating_cylinder,
    centered_residue,
    top_k_characters,
)
from .lattice import SubgroupModel, solve_linear_mod
from .torus import (
    ApproxHammingBall,
    Cylinder,
    RationalLike,
    TorusPoint,
    as_fraction,
    fraction_str,
)

__all__ = [
    "AffineJoining",
    "JoiningExtraction",
    "OrbitDecomposition",
    "annihilate_over_joining",
    "cyclic_closure",
    "cylinder_grid_density",
    "extract_affine_joining",
    "grid_aligned_cylinder",
    "offset_projection",
    "pair_embedding",
    "progression_subgroup",
    "quadratic_direction",
    "quadratic_orbit_decomposition",
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


def cyclic_closure(
    coords: Sequence[RationalLike], modulus: int | None = None
) -> SubgroupModel:
    """Subgroup of Z_q^m generated by one rational vector.

    q is the least common denominator of the coordinates joined with the
    optional modulus, so the vector becomes integral and the closure of
    its multiples is a genuine subgroup model.
    """
    (vec,), q = _lift_common([list(coords)], modulus)
    return SubgroupModel.from_generators(q, len(vec), [vec])


# ---- the progression diagonal and standard orbit parts ----


def progression_subgroup(d: int, r: int, q: int) -> SubgroupModel:
    """The subgroup of Z_q^(4d+r) cut out by z3 = 2*z1, z4 = 2*z2, z5 = 0."""
    m = 4 * d + r
    gens = []
    for i in range(d):
        row = [0] * m
        row[i] = 1
        row[2 * d + i] = 2
        gens.append(row)
        row = [0] * m
        row[d + i] = 1
        row[3 * d + i] = 2
        gens.append(row)
    return SubgroupModel.from_generators(q, m, gens)


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


# ---- exact decomposition of a quadratic orbit's visit measure ----


@dataclass(frozen=True)
class OrbitDecomposition:
    """Visit measure of n -> n*c + n^2*u as weighted uniform coset measures.

    The stabilizer is the full symmetry group of the visit counts, so the
    support splits into stabilizer cosets on which the counts are constant
    and the averaging identity

        (1/P) sum_{n<P} F(x_n)  =  sum_j weight_j * avg_{coset_j} F

    holds exactly for every F, with P one full period.
    """

    q: int
    dim: int
    period: int
    linear: tuple[int, ...]
    quadratic: tuple[int, ...]
    stabilizer: SubgroupModel
    cosets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def orbit_point(self, n: int) -> tuple[int, ...]:
        return tuple(
            (n * c + n * n * u) % self.q
            for c, u in zip(self.linear, self.quadratic)
        )

    def visit_counts(self) -> Counter:
        """Counts over n in [0, q); one period doubles every count."""
        return Counter(self.orbit_point(n) for n in range(self.q))

    def coset_elements(self, j: int) -> list[tuple[int, ...]]:
        rep = self.cosets[j]
        return [
            tuple((a + b) % self.q for a, b in zip(rep, s))
            for s in self.stabilizer.elements()
        ]


def quadratic_orbit_decomposition(
    linear: Sequence[int], quadratic: Sequence[int], q: int
) -> OrbitDecomposition:
    """Exact coset decomposition of the visit measure of n*c + n^2*u mod q.

    The stabilizer is found by testing every difference x - x0 of support
    points against the counts; that search is complete because a shift
    fixing the measure must send x0 back into the support.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if len(linear) != len(quadratic):
        raise ValueError("linear and quadratic parts must have equal width")
    dim = len(linear)
    c = tuple(a % q for a in linear)
    u = tuple(a % q for a in quadratic)
    counts = Counter(
        tuple((n * a + n * n * b) % q for a, b in zip(c, u)) for n in range(q)
    )
    support = sorted(counts)
    x0 = support[0]

    def shifted(x: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % q for a, b in zip(x, s))

    stab_gens = []
    for y in support:
        s = tuple((a - b) % q for a, b in zip(y, x0))
        if all(counts.get(shifted(x, s)) == counts[x] for x in support):
            stab_gens.append(s)
    stabilizer = SubgroupModel.from_generators(q, dim, stab_gens)
    order = stabilizer.order()

    classes: dict[tuple[int, ...], int] = defaultdict(int)
    class_sizes: Counter = Counter()
    for x in support:
        rep = stabilizer.coset_representative(x)
        classes[rep] += counts[x]
        class_sizes[rep] += 1
    for rep, size in class_sizes.items():
        if size != order:
            raise ArithmeticError("support does not split into full stabilizer cosets")

    cosets = tuple(sorted(classes))
    weights = tuple(Fraction(classes[rep], q) for rep in cosets)
    return OrbitDecomposition(
        q=q,
        dim=dim,
        period=2 * q,
        linear=c,
        quadratic=u,
        stabilizer=stabilizer,
        cosets=cosets,
        weights=weights,
    )


# ---- affine joinings ----


@dataclass(frozen=True)
class AffineJoining:
    """Weighted coset shifts of a base subgroup of Z_q^(d+r).

    The first d coordinates are the w1 block (they shift the second
    argument of f by 2*w1), the last r are the w2 block (they feed g).
    Weights are positive rationals summing to 1; shifts are stored as
    canonical coset representatives so equality is measure equality.
    """

    base: SubgroupModel
    d: int
    r: int
    shifts: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.r < 1:
            raise ValueError("both blocks must be nonempty")
        if self.base.dim != self.d + self.r:
            raise ValueError("base dimension must be d + r")
        if len(self.shifts) != len(self.weights) or not self.shifts:
            raise ValueError("need equally many shifts and weights, at least one")
        canonical = tuple(self.base.coset_representative(s) for s in self.shifts)
        weights = tuple(as_fraction(w) for w in self.weights)
        if len(set(canonical)) != len(canonical):
            raise ValueError("shifts name the same coset twice")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights, Fraction(0)) != 1:
            raise ValueError("weights must sum to 1")
        order = sorted(range(len(canonical)), key=lambda i: canonical[i])
        object.__setattr__(self, "shifts", tuple(canonical[i] for i in order))
        object.__setattr__(self, "weights", tuple(weights[i] for i in order))

    @property
    def q(self) -> int:
        return self.base.q

    @classmethod
    def haar(cls, base: SubgroupModel, d: int, r: int) -> "AffineJoining":
        """Uniform measure on the base subgroup itself."""
        zero = tuple([0] * base.dim)
        return cls(base=base, d=d, r=r, shifts=(zero,), weights=(Fraction(1),))

    def coset_elements(self, j: int) -> list[tuple[int, ...]]:
        rep = self.shifts[j]
        return [
            tuple((a + b) % self.q for a, b in zip(rep, s))
            for s in self.base.elements()
        ]

    def integrate(self, fn: Callable[[tuple[int, ...]], object]):
        """sum_j weight_j * average of fn over the j-th coset."""
        total = 0
        for j, w in enumerate(self.weights):
            elems = self.coset_elements(j)
            total += w * (sum(fn(x) for x in elems) / len(elems))
        return total

    def to_json(self) -> dict:
        q = self.q
        return {
            "base": self.base.to_json(),
            "d": self.d,
            "r": self.r,
            "cosets": [
                [fraction_str(Fraction(a, q)) for a in shift] for shift in self.shifts
            ],
            "weights": [fraction_str(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AffineJoining":
        base = SubgroupModel.from_json(data["base"])
        q = base.q
        shifts = tuple(
            tuple(int(as_fraction(a) * q) % q for a in shift)
            for shift in data["cosets"]
        )
        weights = tuple(as_fraction(w) for w in data["weights"])
        return cls(base=base, d=data["d"], r=data["r"], shifts=shifts, weights=weights)


@dataclass(frozen=True)
class JoiningExtraction:
    """Everything computed when extracting a joining from an orbit.

    joining carries the exact projected visit decomposition; group_joining
    is the Haar measure on the projected closure of the quadratic part,
    which is the single-component idealization the decomposition refines.
    phi and lambda_closure are ambient closure diagnostics.
    """

    q: int
    d: int
    r: int
    linear: tuple[int, ...]
    quadratic: tuple[int, ...]
    decomposition: OrbitDecomposition
    joining: AffineJoining
    group_joining: AffineJoining
    lambda_closure: SubgroupModel
    phi: SubgroupModel
    pattern: SubgroupModel


def extract_affine_joining(
    linear: Sequence[RationalLike],
    quadratic: Sequence[RationalLike],
    d: int,
    r: int,
    modulus: int | None = None,
) -> JoiningExtraction:
    """Decompose the orbit of (linear, quadratic) and project to offsets.

    The linear part must lie on the progression diagonal and generate the
    product of the cyclic closures of its two leading blocks; otherwise
    the input is degenerate and a ValueError explains which closure came
    out wrong.  The common denominator q must be odd so the offset halving
    is defined.
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

    lambda_closure = SubgroupModel.from_generators(q, m, [u])
    phi = linear_closure.join(lambda_closure)
    decomposition = quadratic_orbit_decomposition(c, u, q)

    def proj(vec: Sequence[int]) -> list[int]:
        return list(offset_projection(vec, d, r, q))

    base_w = SubgroupModel.from_generators(
        q, d + r, [proj(row) for row in decomposition.stabilizer.basis]
    )
    merged: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for rep, w in zip(decomposition.cosets, decomposition.weights):
        merged[base_w.coset_representative(proj(rep))] += w
    shifts = tuple(sorted(merged))
    joining = AffineJoining(
        base=base_w,
        d=d,
        r=r,
        shifts=shifts,
        weights=tuple(merged[s] for s in shifts),
    )
    group_base = SubgroupModel.from_generators(
        q, d + r, [proj(row) for row in lambda_closure.basis]
    )
    return JoiningExtraction(
        q=q,
        d=d,
        r=r,
        linear=tuple(c),
        quadratic=tuple(u),
        decomposition=decomposition,
        joining=joining,
        group_joining=AffineJoining.haar(group_base, d, r),
        lambda_closure=lambda_closure,
        phi=phi,
        pattern=pattern,
    )


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


def grid_aligned_cylinder(
    dim: int,
    index_set: Sequence[int],
    center_indices: Sequence[int],
    h: int,
    q: int,
) -> Cylinder:
    """Box of radius (2h+1)/(2q) centered on a grid point.

    Each pinned coordinate then contains exactly 2h+1 of the q grid
    points, so grid averages of the normalized density are exactly 1.
    """
    if h < 0 or 2 * h + 1 > q:
        raise ValueError("need 0 <= 2h+1 <= q")
    center = TorusPoint.of([Fraction(a, q) for a in center_indices])
    return Cylinder(
        dim=dim, index_set=tuple(index_set), center=center, eta=Fraction(2 * h + 1, 2 * q)
    )


def cylinder_grid_density(cyl: Cylinder, q: int) -> np.ndarray:
    """Normalized cylinder density sampled on the grid, as exact Fractions."""
    shape = (q,) * cyl.dim
    hits = cyl.orbit_contains([Fraction(1, q)] * cyl.dim, np.indices(shape).reshape(cyl.dim, -1).T)
    return np.where(hits.reshape(shape), 1 / cyl.measure(), Fraction(0))


def _phase(freq: Sequence[int], block: Sequence[int], q: int, scale: int = 1) -> int:
    return sum(scale * n * a for n, a in zip(freq, block)) % q


def _verify_star_zero(
    joining: AffineJoining, freq: Sequence[int], cyl: Cylinder, scale: int
) -> None:
    """Certify sum over every coset of e(scale * freq . w1 / q) g(w2) is 0."""
    q, d = joining.q, joining.d
    grid = [Fraction(1, q)] * joining.r
    value = 1 / cyl.measure()
    step = np.array([scale * n % q for n in freq], dtype=np.int64)
    for j in range(len(joining.shifts)):
        w = np.array(joining.coset_elements(j), dtype=np.int64)
        inside = cyl.orbit_contains(grid, w[:, d:])
        phases, counts = np.unique(w[inside, :d] @ step % q, return_counts=True)
        masses = {t: c * value for t, c in zip(phases.tolist(), counts.tolist())}
        if not root_of_unity_sum_is_zero(masses, q):
            raise ArithmeticError(
                f"coefficient for frequency {tuple(freq)} is not certifiably zero "
                f"on coset {j}; the joining is too sparse for this cylinder"
            )


def annihilate_over_joining(
    ball: ApproxHammingBall,
    joining: AffineJoining,
    chars: Iterable[Character],
    scale: int = 1,
) -> Cylinder:
    """Cylinder g subordinate to ball with avg of chi(scale*w1) g(w2) = 0.

    The average runs over every coset of the joining separately.  Each
    character either dies automatically (it is nontrivial on the kernel of
    the w2 projection, so fibers cancel) or is pushed through the w2
    marginal: extend it to a character of the full grid and pin the
    cylinder against the extension.  Every zero is then certified exactly
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

    base_elems = joining.base.elements()
    kernel = [w for w in base_elems if not any(w[d:])]
    basis_rows = [tuple(a % q for a in row) for row in joining.base.basis]

    needed: dict[tuple[int, ...], Character] = {}
    for chi in chars:
        if any(_phase(chi.freq, w[:d], q, scale) for w in kernel):
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
    for chi in chars:
        _verify_star_zero(joining, chi.freq, cyl, scale)
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
        "bound": norm_bound / math.sqrt(ball.k),
        "sharper_bound": norm_bound / math.sqrt(1 + ball.k),
    }
    return cyl, report
