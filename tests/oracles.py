"""Reference code and fixture builders that only the tests call.

Subgroups: extended Euclid, the Hermite and Smith normal forms and the
linear solver mod q, and ``HermiteSubgroup``, a subgroup of Z_q^m with
any number of generators held in Hermite form: the reference of the
cyclic ``lattice.SubgroupModel``, and the model of the stabilizers,
full grids and joins that are not cyclic.

Fixtures: the origin of a torus (``zero_point``), the window that is on
at every n (``FULL_WINDOW``), the trivial and full subgroups, canonical
coset representatives and coset members, subgroup membership and the
join of two subgroups, n times a torus point, a random complex grid
function, a certificate built from a list of members and the list of a
certificate's members, and the inverse of ``bohr.set_to_json``.

Membership in Fractions, one point at a time: the coordinate norm, the
deviation count, point addition and subtraction, and the ball, band and
cylinder predicates.  These are the oracles of ``torus.orbit_deviations``
and of the ``orbit_contains`` of ``ApproxHammingBall``, ``BandWitness``
and ``Cylinder``, which decide the same predicates on integer residues.

For weyl: the per-n loop that ``weyl.triple_integrals`` replaced on the
grid models, with its mean of a product and the index-grid pullback that
the window gather replaced; the trig pullback f o S^n and the pointwise
triple integral by orthogonality, which
``WeylSystem.correlation_series`` is checked against; the O(support^3)
triple loop that the series replaced with a y-frequency index, with the
per-family phase vector that shared orbit residues replaced and the
``Fraction`` phases of a triple that the plan forms as integer
numerators (``series_phases``, ``unit``); the trig
path of ``weyl.weighted_average`` one Python complex term at a time; the
grid model of a rational system, the unweighted average (under the
full window) and the observable range check.  For torus and harmonic: the cylinders whose
union is a Hamming ball, the value of a character and of a trig
polynomial at a point, the sinc closed form of a cylinder coefficient,
the uniformizing cylinder, the DFT by its definition and the inverse
DFT, the spectrum as one table entry per mode (whole-array and cell by
cell) and the top-k selection over such a table, the two oracles of
``harmonic.top_k_characters``, grid convolution and the Plancherel
gap.  For roth: the progression form by its spectral
identity, annihilator membership one frequency at a time, and the
quotient projection as a Fourier mask onto the annihilator and as one
whole-grid roll per subgroup element, the two oracles of the
coset-average projection.  For pcg64: SplitMix64 stepped one Python
int at a time, the oracle of ``pcg64.SplitMix64``.  For the
certificates: the verifier as one word scan of the whole bitset per
shift, which ``verify_certificate`` keeps only for shifts that no
residue fold clears; the band return bitset decided one n at a time,
the rejection-sampling band-disjointness probe that
``certificates.sample_band_disjointness`` replaced with direct draws
from the band set, the band-measure probe, and the product bitset
rebuilt from a certificate's recorded factors.  For the joinings: the
points and visit counts of a decomposed orbit, its orbit and coset
averages and the recount of its measure identity, the exact visit
decomposition of a quadratic orbit, the embedding of the grid orbit in
Z_q^(4d+r) and its offset projection, the weighted coset joining the
orbit projects to (the general affine joining, of which
``joinings.AffineJoining`` keeps only the Haar measure) and the two-step
projected closure that ``joinings.extract_affine_joining`` replaced with
the one generator (alpha, l^2*beta), the star-zero certificate one coset
at a time, the zero test of a root-of-unity sum by division by the
cyclotomic polynomial (the oracle of the p-gon fold
``joinings.root_of_unity_sum_is_zero``), and the star kernel and its
transform factor.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from reclab import weyl
from reclab.certificates import (
    BandWitness,
    Certificate,
    Verification,
    _sample_ball_points,
    band_return_bitset,
)
from reclab.harmonic import (
    Character,
    CoefficientTable,
    GridFunction,
    annihilating_cylinder,
    centered_residue,
    cylinder_coefficient_is_structural_zero,
)
from reclab.joinings import AffineJoining, root_of_unity_sum_is_zero
from reclab.lattice import SubgroupModel
from reclab.torus import (
    ApproxHammingBall,
    Cylinder,
    RationalLike,
    TorusPoint,
    as_fraction,
    orbit_residues,
    wrap_unit,
)
from reclab.weyl import AveragesTrace, GridWeylModel, RotationModel, WeylSystem, weighted_average


# ---------------------------------------------------------------------------
# fixture builders


def zero_point(dim: int) -> TorusPoint:
    """The origin of T^dim."""
    return TorusPoint((Fraction(0),) * dim)


#: a window that pins no coordinate: measure 1, so weight 1 at every n along FULL_DIRECTION
FULL_WINDOW = Cylinder(1, (), zero_point(1), Fraction(1, 2))
FULL_DIRECTION = (Fraction(0),)


# ---------------------------------------------------------------------------
# subgroups of Z_q^m with any number of generators, in Hermite normal form:
# the reference of the cyclic lattice.SubgroupModel and the model of the
# non-cyclic subgroups the oracles need (stabilizers, full grids, joins)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        t = old_r // r
        old_r, r = r, old_r - t * r
        old_x, x = x, old_x - t * x
        old_y, y = y, old_y - t * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hermite_normal_form(rows: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns an echelon basis with positive pivots and entries above
    each pivot reduced into [0, pivot).  For a full-rank lattice the
    result has one row per column with the pivot of row i in column i.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(width):
        carry = None
        rest = []
        for row in work:
            if row[col] == 0:
                rest.append(row)
                continue
            if carry is None:
                carry = row
                continue
            g, s, t = ext_gcd(carry[col], row[col])
            a, b = carry[col] // g, row[col] // g
            combined = [s * u + t * v for u, v in zip(carry, row)]
            eliminated = [a * v - b * u for u, v in zip(carry, row)]
            carry = combined
            rest.append(eliminated)
        work = [r for r in rest if any(r)]
        if carry is not None:
            if carry[col] < 0:
                carry = [-x for x in carry]
            basis.append(carry)
            pivots.append(col)
    # ascending pivot order: reducing by row i only touches columns >= its
    # pivot, so columns finished earlier stay reduced
    for i in range(len(basis)):
        p = pivots[i]
        for j in range(i):
            t = basis[j][p] // basis[i][p]
            if t:
                basis[j] = [a - t * b for a, b in zip(basis[j], basis[i])]
    return basis


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(D, U, V) with U @ A @ V = D diagonal, U and V unimodular.

    Diagonal entries are nonnegative and satisfy d_1 | d_2 | ... .
    """
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, t):
        a[i] = [x + t * y for x, y in zip(a[i], a[j])]
        u[i] = [x + t * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, t):
        for row in a:
            row[i] += t * row[j]
        for row in v:
            row[i] += t * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    while k < min(n, m):
        found = next(
            ((i, j) for i in range(k, n) for j in range(k, m) if a[i][j]), None
        )
        if found is None:
            break
        if found[0] != k:
            swap_rows(k, found[0])
        if found[1] != k:
            swap_cols(k, found[1])
        while True:
            # Euclidean clearing: each swap strictly shrinks the positive
            # pivot, so the passes terminate
            if a[k][k] < 0:
                negate_row(k)
            for i in range(k + 1, n):
                while a[i][k]:
                    add_row(i, k, -(a[i][k] // a[k][k]))
                    if a[i][k]:
                        swap_rows(k, i)
            col_swapped = False
            for j in range(k + 1, m):
                while a[k][j]:
                    add_col(j, k, -(a[k][j] // a[k][k]))
                    if a[k][j]:
                        swap_cols(k, j)
                        col_swapped = True
            if col_swapped or any(a[i][k] for i in range(k + 1, n)):
                continue
            stray = next(
                (
                    i
                    for i in range(k + 1, n)
                    for j in range(k + 1, m)
                    if a[i][j] % a[k][k]
                ),
                None,
            )
            if stray is None:
                break
            # folding a stray row in lets the next round shrink the pivot
            # to a divisor of both
            add_row(k, stray, 1)
        k += 1
    return a, u, v


def solve_linear_mod(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], q: int
) -> list[int] | None:
    """One solution x of A x = b (mod q), or None when none exists."""
    n = len(matrix)
    if n == 0:
        return []
    m = len(matrix[0])
    d, u, v = smith_normal_form(matrix)
    ub = [sum(u[i][j] * rhs[j] for j in range(n)) % q for i in range(n)]
    y = [0] * m
    for i in range(n):
        di = d[i][i] if i < m else 0
        if di == 0:
            if ub[i] % q:
                return None
            continue
        g = math.gcd(di, q)
        if ub[i] % g:
            return None
        inv = pow(di // g, -1, q // g) if q // g > 1 else 0
        y[i] = (ub[i] // g) * inv % (q // g)
    return [sum(v[i][j] * y[j] for j in range(m)) % q for i in range(m)]


@dataclass(frozen=True)
class HermiteSubgroup:
    """A subgroup of Z_q^m held as a canonical Hermite basis.

    Two models are equal exactly when they describe the same subgroup,
    because the reduced Hermite form is unique.  ``order`` and
    ``elements`` answer as ``lattice.SubgroupModel``'s do: the elements
    sorted, as read-only rows.
    """

    q: int
    dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(
        cls, q: int, dim: int, generators: Iterable[Sequence[int]]
    ) -> "HermiteSubgroup":
        if q < 1:
            raise ValueError("modulus must be positive")
        rows = [[int(x) % q for x in g] for g in generators]
        for row in rows:
            if len(row) != dim:
                raise ValueError(f"generator width {len(row)} does not match dim {dim}")
        rows.extend([q * int(i == j) for j in range(dim)] for i in range(dim))
        h = hermite_normal_form(rows, dim)
        return cls(q=q, dim=dim, basis=tuple(tuple(r) for r in h))

    def order(self) -> int:
        det = math.prod(row[i] for i, row in enumerate(self.basis))
        return self.q**self.dim // det

    def elements(self) -> np.ndarray:
        """Every mixed-radix combination of basis rows, one at a time in Python integers."""
        radices = [self.q // row[i] for i, row in enumerate(self.basis)]
        out = []
        for combo in itertools.product(*(range(r) for r in radices)):
            vec = [0] * self.dim
            for t, row in zip(combo, self.basis):
                if t:
                    vec = [(a + t * b) % self.q for a, b in zip(vec, row)]
            out.append(vec)
        out.sort()
        rows = np.array(out, dtype=np.int64 if self.q <= 2**63 else object)
        rows = rows.reshape(len(out), self.dim)
        rows.flags.writeable = False
        return rows


def hermite(model: SubgroupModel | HermiteSubgroup) -> HermiteSubgroup:
    """The Hermite model of a subgroup: itself, or the closure of a cyclic model's generator."""
    if isinstance(model, HermiteSubgroup):
        return model
    return HermiteSubgroup.from_generators(model.q, model.dim, [model.generator])


def trivial_subgroup(q: int, dim: int) -> SubgroupModel:
    return SubgroupModel(q, (0,) * dim)


def full_subgroup(q: int, dim: int) -> HermiteSubgroup:
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return HermiteSubgroup.from_generators(q, dim, eye)


def coset_representative(
    model: SubgroupModel | HermiteSubgroup, vec: Sequence[int]
) -> tuple[int, ...]:
    """The unique member of vec + subgroup inside the pivot box.

    Reduction against the triangular Hermite basis lands every coset at
    one point with 0 <= x[i] < basis[i][i], so representatives can be
    compared for coset equality.
    """
    model = hermite(model)
    x = [int(a) % model.q for a in vec]
    if len(x) != model.dim:
        raise ValueError(f"vector width {len(x)} does not match dim {model.dim}")
    for i, row in enumerate(model.basis):
        t = x[i] // row[i]
        if t:
            x = [a - t * b for a, b in zip(x, row)]
    return tuple(x)


def coset_elements(
    model: SubgroupModel | HermiteSubgroup, rep: Sequence[int]
) -> list[tuple[int, ...]]:
    """The coset rep + subgroup: elements() shifted by rep, in that order."""
    return [tuple((a + b) % model.q for a, b in zip(rep, s)) for s in model.elements().tolist()]


def subgroup_contains(model: SubgroupModel | HermiteSubgroup, vec: Sequence[int]) -> bool:
    """Whether vec lies in the subgroup: its canonical coset representative is 0."""
    return not any(coset_representative(model, vec))


def subgroup_join(
    a: SubgroupModel | HermiteSubgroup, b: SubgroupModel | HermiteSubgroup
) -> HermiteSubgroup:
    """Smallest subgroup containing both operands."""
    if (a.q, a.dim) != (b.q, b.dim):
        raise ValueError("subgroup models live in different ambient groups")
    a, b = hermite(a), hermite(b)
    return HermiteSubgroup.from_generators(a.q, a.dim, list(a.basis) + list(b.basis))


def scaled(point: TorusPoint, n: int) -> TorusPoint:
    """The point n * x of the torus, exactly."""
    return TorusPoint(tuple(n * a for a in point.coords))


def random_grid(dim: int, q: int, seed: int) -> GridFunction:
    """A complex Gaussian grid function, reproducible from its seed."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((q,) * dim) + 1j * rng.standard_normal((q,) * dim)
    return GridFunction(dim, q, vals)


def certificate_from_members(
    horizon: int,
    members: Iterable[int],
    shifts: Sequence[int],
    k: int,
    density_claim,
) -> Certificate:
    """A certificate whose base set B is listed element by element."""
    bits = 0
    for n in members:
        if not 0 <= n < horizon:
            raise ValueError(f"member {n} outside [0, {horizon})")
        bits |= 1 << n
    return Certificate(horizon, bits, tuple(shifts), k, density_claim)


def certificate_members(cert: Certificate) -> list[int]:
    """The elements of B in increasing order."""
    return [n for n in range(cert.horizon) if cert.bits >> n & 1]


def set_from_json(payload: dict) -> tuple[list[int], int]:
    """Inverse of bohr.set_to_json; returns (elements, horizon)."""
    elems: list[int] = []
    for start, length in payload["elems"]:
        elems.extend(range(start, start + length))
    return elems, payload["N"]


def pullback_by_index_grids(model, values: np.ndarray, n: int) -> np.ndarray:
    """f o T^n on a grid model: np.roll for the rotation, one broadcast index gather
    (with the (q, q) index grid of every y axis) for the skew product."""
    q, n = model.q, int(n)
    if isinstance(model, RotationModel):
        shift = tuple(-(n * s) % q for s in model.step)
        return np.roll(values, shift=shift, axis=tuple(range(model.d)))
    d = model.d
    binom = (n * (n - 1) // 2) % q
    n %= q
    axes = [np.arange(q).reshape((q,) + (1,) * (2 * d - 1 - ax)) for ax in range(2 * d)]
    xs, ys = axes[:d], axes[d:]
    rows = [(x + n * a) % q for x, a in zip(xs, model.alpha)]
    cols = [(y + n * x + binom * a) % q for x, y, a in zip(xs, ys, model.alpha)]
    return values[tuple(rows + cols)]


def mean_of_product(arrays: Sequence[np.ndarray]):
    """Mean of the elementwise product, exact for integer/bool/object arrays.

    Integer inputs ride int64 only when the worst-case product of entry
    bounds fits; otherwise they are lifted to Python integers.  Float
    inputs return a float (or complex) mean of the left-to-right product.
    """
    if all(weyl._is_exact_dtype(a) for a in arrays):
        size = arrays[0].size
        bound = size
        for a in arrays:
            if a.dtype != object:
                bound *= max(int(a.max()), -int(a.min()), 1)
        if bound < 2**62 and all(a.dtype != object for a in arrays):
            prod = arrays[0].astype(np.int64)
            for a in arrays[1:]:
                prod = prod * a.astype(np.int64)
            return Fraction(int(prod.sum()), size)
        prod = arrays[0].astype(object)
        for a in arrays[1:]:
            prod = prod * a.astype(object)
        return Fraction(prod.sum(), size)
    prod = arrays[0]
    for a in arrays[1:]:
        prod = prod * a
    out = prod.mean()
    return complex(out) if np.iscomplexobj(prod) else float(out)


def triple_integral(model, f, n: int):
    """avg f . (f o T^n) . (f o T^2n) on a grid model, for one n."""
    values = np.asarray(f.values if isinstance(f, GridFunction) else f)
    return mean_of_product(
        [values, pullback_by_index_grids(model, values, n),
         pullback_by_index_grids(model, values, 2 * n)]
    )


def triple_integrals_per_n(model, f, n_values: Iterable[int]) -> list:
    """One ``triple_integral`` per requested n, in request order."""
    return [triple_integral(model, f, int(n)) for n in n_values]


def pullback(system: WeylSystem, table: CoefficientTable, n: int) -> CoefficientTable:
    """Coefficients of f o S^n for a trig polynomial f on T^d x T^d.

    A character e(nu . x + mu . y) pulls back to the character with
    x-frequency nu + n mu and unchanged y-frequency, times the exact
    root of unity e(n nu . alpha + C(n, 2) mu . alpha).
    """
    d = system.dim
    if table.dim != 2 * d:
        raise ValueError(f"table dimension {table.dim} is not twice the system dim {d}")
    n = int(n)
    binom = n * (n - 1) // 2
    out = CoefficientTable(table.dim)
    for chi, coef in table:
        nu, mu = chi.freq[:d], chi.freq[d:]
        phase = sum(
            ((n * a + binom * b) * c for a, b, c in zip(nu, mu, system.alpha.coords)),
            Fraction(0),
        )
        shifted = Character(tuple(a + n * b for a, b in zip(nu, mu)) + mu)
        out[shifted] = out[shifted] + coef * unit(phase)
    return out


def trig_triple_integral(system: WeylSystem, table: CoefficientTable, n: int) -> complex:
    """avg f . (f o S^n) . (f o S^2n) at one n, by orthogonality of characters.

    The integral of a product of three characters is 1 when the
    frequencies cancel and 0 otherwise: the pointwise oracle of
    ``WeylSystem.correlation_series``.
    """
    t1 = pullback(system, table, n)
    t2 = pullback(system, table, 2 * n)
    total = 0j
    for chi0, c0 in table:
        for chi1, c1 in t1:
            c2 = t2[Character(tuple(-(a + b) for a, b in zip(chi0.freq, chi1.freq)))]
            if c2 != 0:
                total += c0 * c1 * c2
    return total


def grid_model_from_system(system: WeylSystem, q: int | None = None) -> GridWeylModel:
    """The grid model of a system whose rotation part lives on Z_q^d."""
    dens = [c.denominator for c in system.alpha.coords]
    q = math.lcm(*dens) if q is None else int(q)
    res = []
    for c in system.alpha.coords:
        if (c * q).denominator != 1:
            raise ValueError(f"rotation coordinate {c} does not live on a Z_{q} grid")
        res.append(int(c * q) % q)
    return GridWeylModel(q, tuple(res))


def l3_average(model, f, n_max: int):
    """The unweighted correlation average: ``weighted_average`` under the full window.

    On a grid model with generating rotation part and n_max one full
    period, the rotation-model value matches the closed form exactly.
    """
    return weighted_average(model, f, FULL_WINDOW, FULL_DIRECTION, n_max)


@dataclass(frozen=True)
class ObservablePair:
    """A grid or trig observable f, checked for type and range."""

    f: object

    def __post_init__(self) -> None:
        if not isinstance(self.f, (CoefficientTable, GridFunction, np.ndarray)):
            raise TypeError("f must be a CoefficientTable, GridFunction, or ndarray")

    def assert_unit_range(self) -> None:
        """Check 0 <= f <= 1 pointwise; only grid-backed observables qualify.

        Trig polynomials would need global optimization to verify a
        range, so they are rejected rather than half-checked.
        """
        if isinstance(self.f, CoefficientTable):
            raise TypeError("range check needs a grid-backed observable")
        values = self.f.values if isinstance(self.f, GridFunction) else np.asarray(self.f)
        if values.dtype == object:
            if any(v < 0 or v > 1 for v in values.ravel()):
                raise ValueError("observable leaves [0, 1]")
            return
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            if np.abs(arr.imag).max() > 1e-12:
                raise ValueError("observable is not real")
            arr = arr.real
        if arr.min() < -1e-12 or arr.max() > 1 + 1e-12:
            raise ValueError("observable leaves [0, 1]")


def quadratic_phase_powers(a: Fraction, b: Fraction, ns: np.ndarray) -> np.ndarray:
    """The vector e(a n + b n^2) over the integer vector ns.

    Phases are reduced mod 1 in integer arithmetic before the single
    float conversion, so the result is accurate to one ulp of exp even
    when n^2 b is astronomically larger than 1.
    """
    den = math.lcm(a.denominator, b.denominator)
    pa = a.numerator * (den // a.denominator)
    pb = b.numerator * (den // b.denominator)
    ph = (orbit_residues(ns, 1, pa, den) + orbit_residues(ns, 2, pb, den)) % den
    return np.exp(2j * np.pi * (ph.astype(np.float64) / den))


def unit(phase: Fraction) -> complex:
    """e(phase) for an exact rational phase, through its Fraction reduced mod 1."""
    return cmath.exp(2j * cmath.pi * float(wrap_unit(phase)))


def series_phases(nu1, nu2, mu1, mu2, alpha) -> tuple[Fraction, Fraction]:
    """The exact phase a n + b n^2 of one matching triple, as (a, b), in Fractions.

    The oracle of ``weyl._series_phases``, which forms the same phase as
    integer numerators over 2 lcm(alpha denominators).
    """
    lin = sum(
        ((b + 2 * c) * a for b, c, a in zip(nu1, nu2, alpha)),
        Fraction(0),
    ) - sum(
        ((Fraction(b, 2) + c) * a for b, c, a in zip(mu1, mu2, alpha)),
        Fraction(0),
    )
    quad = sum(
        ((Fraction(b, 2) + 2 * c) * a for b, c, a in zip(mu1, mu2, alpha)),
        Fraction(0),
    )
    return lin, quad


def series_terms_triple_loop(system: WeylSystem, table: CoefficientTable, n_max: int) -> list:
    """The terms of ``WeylSystem.series_plan`` over every triple of table entries.

    The phases of a triple are computed in Fractions (``series_phases``)
    before it is known to contribute; the triples that do are listed in
    the same order as the indexed loop, as (hit, coef * unit(hit a +
    hit^2 b), None) for a drift triple and (0, coef, (a, b) mod 1) for a
    family.
    """
    d = system.dim
    entries = [(chi.freq[:d], chi.freq[d:], coef) for chi, coef in table]
    alpha = system.alpha.coords
    terms = []
    for nu0, mu0, c0 in entries:
        for nu1, mu1, c1 in entries:
            for nu2, mu2, c2 in entries:
                if any(a + b + c for a, b, c in zip(mu0, mu1, mu2)):
                    continue
                base = tuple(a + b + c for a, b, c in zip(nu0, nu1, nu2))
                drift = tuple(b + 2 * c for b, c in zip(mu1, mu2))
                coef = c0 * c1 * c2
                lin, quad = series_phases(nu1, nu2, mu1, mu2, alpha)
                if not any(drift):
                    if any(base):
                        continue
                    terms.append((0, coef, (wrap_unit(lin), wrap_unit(quad))))
                    continue
                hit = None
                for bs, dr in zip(base, drift):
                    if dr == 0:
                        if bs != 0:
                            hit = 0
                            break
                        continue
                    if bs % dr:
                        hit = 0
                        break
                    cand = -(bs // dr)
                    if hit is None:
                        hit = cand
                    elif hit != cand:
                        hit = 0
                        break
                if hit and 1 <= hit <= n_max:
                    terms.append((hit, coef * unit(hit * lin + hit * hit * quad), None))
    return terms


def correlation_series_triple_loop(
    system: WeylSystem, table: CoefficientTable, n_max: int
) -> np.ndarray:
    """``WeylSystem.correlation_series`` over every triple of table entries.

    The terms of ``series_terms_triple_loop``, added in order.  Each
    family is ``coef * quadratic_phase_powers(...)`` over all of
    1..n_max, with two residue scans mod its own denominator.
    """
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    out = np.zeros(n_max, dtype=complex)
    for hit, term, key in series_terms_triple_loop(system, table, n_max):
        if hit:
            out[hit - 1] += term
        else:
            out += term * quadratic_phase_powers(*key, ns)
    return out


def checkpoint_averages_by_fraction_sum(terms: Sequence[Fraction], marks: Sequence[int]) -> list:
    """Running means of exact terms, one Fraction addition per term."""
    acc = Fraction(0)
    prev = 0
    out = []
    for mark in marks:
        acc += sum(terms[prev:mark], Fraction(0))
        prev = mark
        out.append((mark, acc / mark))
    return out


def float_checkpoint_averages_by_segment(
    re: np.ndarray, im: np.ndarray, marks: Sequence[int], ends: Sequence[int]
) -> list:
    """Running means of re + i im, one fsum per segment of the whole vectors.

    Each checkpoint is one fsum of the previous checkpoint's sum, already
    rounded, and the terms re[prev:end] + i im[prev:end] of its segment;
    the sum up to each end is divided by its mark.
    """
    acc_re, acc_im = 0.0, 0.0
    prev = 0
    out = []
    for mark, end in zip(marks, ends):
        acc_re = math.fsum([acc_re] + re[prev:end].tolist())
        acc_im = math.fsum([acc_im] + im[prev:end].tolist())
        prev = end
        if abs(acc_im) <= 1e-9 * max(1.0, abs(acc_re)):
            out.append((mark, acc_re / mark))
        else:
            out.append((mark, complex(acc_re, acc_im) / mark))
    return out


def float_checkpoint_averages_per_term(terms: Sequence, marks: Sequence[int]) -> list:
    """Running means of the terms, each converted with complex() before fsum."""
    acc_re, acc_im = 0.0, 0.0
    prev = 0
    out = []
    for mark in marks:
        chunk = [complex(t) for t in terms[prev:mark]]
        acc_re = math.fsum([acc_re] + [t.real for t in chunk])
        acc_im = math.fsum([acc_im] + [t.imag for t in chunk])
        prev = mark
        if abs(acc_im) <= 1e-9 * max(1.0, abs(acc_re)):
            out.append((mark, acc_re / mark))
        else:
            out.append((mark, complex(acc_re, acc_im) / mark))
    return out


def weighted_average_per_term(
    system: WeylSystem,
    f: CoefficientTable,
    window: Cylinder,
    direction: Sequence[Fraction],
    n_max: int,
) -> AveragesTrace:
    """The trig path of ``weyl.weighted_average``: the whole series, one term complex(v) * w per n."""
    marks = weyl._default_checkpoints(n_max)
    integrals = list(system.correlation_series(f, n_max))
    hits = window.orbit_contains(direction, np.arange(1, n_max + 1), 2)
    on_f = float(1 / window.measure())
    terms = [complex(v) * (on_f if hit else 0.0) for hit, v in zip(hits.tolist(), integrals)]
    return AveragesTrace(
        checkpoints=tuple(float_checkpoint_averages_per_term(terms, marks)),
        window_hits=int(hits.sum()),
        closed_form=weyl._closed_form(system, f),
    )


# ---------------------------------------------------------------------------
# torus membership in Fractions, one point at a time


def coordinate_norm(value: Fraction) -> Fraction:
    """Distance of a rational to the nearest integer."""
    c = wrap_unit(value)
    return min(c, 1 - c)


def deviation_count(point: TorusPoint, eps: RationalLike) -> int:
    """Number of coordinates of point at distance >= eps from zero."""
    e = as_fraction(eps)
    return sum(1 for c in point.coords if coordinate_norm(c) >= e)


def _check_dims(a: TorusPoint, b: TorusPoint) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def point_add(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    """a + b on the torus."""
    _check_dims(a, b)
    return TorusPoint(tuple(x + y for x, y in zip(a.coords, b.coords)))


def point_sub(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    """a - b on the torus."""
    _check_dims(a, b)
    return TorusPoint(tuple(x - y for x, y in zip(a.coords, b.coords)))


def ball_contains(ball: ApproxHammingBall, x: TorusPoint) -> bool:
    """At most k coordinates of center - x at distance >= eps."""
    return deviation_count(point_sub(ball.center, x), ball.eps) <= ball.k


def band_contains(witness: BandWitness, x: TorusPoint) -> bool:
    """At most t coordinates of x at distance >= a from zero."""
    if x.dim != witness.r:
        raise ValueError("dimension mismatch")
    return deviation_count(x, witness.a) <= witness.t


def cylinder_contains(cyl: Cylinder, x: TorusPoint) -> bool:
    """Every pinned coordinate of x strictly within eta of the center."""
    if x.dim != cyl.dim:
        raise ValueError("dimension mismatch")
    return all(
        coordinate_norm(x.coords[i - 1] - cyl.center.coords[i - 1]) < cyl.eta
        for i in cyl.index_set
    )


# ---------------------------------------------------------------------------
# harmonic


def character_value(chi: Character, x: TorusPoint) -> complex:
    """e(n . x) from the exact phase n . x mod 1."""
    phase = wrap_unit(sum((n * c for n, c in zip(chi.freq, x.coords)), Fraction(0)))
    return cmath.exp(2j * cmath.pi * float(phase))


def evaluate_table(table: CoefficientTable, x: TorusPoint) -> complex:
    """The trig polynomial at x, summed term by term."""
    return sum(v * character_value(chi, x) for chi, v in table)


def ball_cylinders(ball: ApproxHammingBall) -> list[Cylinder]:
    """All cylinders on r - k coordinates, centered like the ball, of width eps.

    Their union is exactly the ball.  Enumeration order is lexicographic
    in the index sets.
    """
    r = ball.dim
    return [
        Cylinder(dim=r, index_set=idx, center=ball.center, eta=ball.eps)
        for idx in itertools.combinations(range(1, r + 1), r - ball.k)
    ]


def cylinder_fourier(cyl: Cylinder, chi: Character) -> complex:
    """Fourier coefficient of the normalized cylinder indicator.

    Exactness note: structural zeros are exact; everything else is a
    product of sinc factors evaluated in double precision.
    """
    if cylinder_coefficient_is_structural_zero(cyl, chi):
        return 0j
    value = 1 + 0j
    eta = float(cyl.eta)
    pinned = set(cyl.index_set)
    two_pi = 2 * math.pi
    for i, n in enumerate(chi.freq):
        if n == 0 or (i + 1) not in pinned:
            continue
        y_i = float(cyl.center.coords[i])
        phase = cmath.exp(-2j * cmath.pi * n * y_i)
        value *= phase * math.sin(two_pi * n * eta) / (two_pi * n * eta)
    return value


def top_k_of_table(
    table: CoefficientTable,
    k: int,
    norm_bound: float,
    restrict: Callable[[Character], bool] | None = None,
) -> tuple[list[Character], float]:
    """The k largest |coefficient| characters of a table and the residual sup.

    Sorts every entry, ties broken lexicographically on the frequency
    tuple, smallest first, and raises the norm-bound errors of
    ``harmonic.top_k_characters``, which ranks a coefficient array instead.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    entries = [
        (chi, v) for chi, v in table if restrict is None or restrict(chi)
    ]
    entries.sort(key=lambda kv: (-abs(kv[1]), kv[0].freq))
    chosen = [chi for chi, _ in entries[:k]]
    residual = abs(entries[k][1]) if len(entries) > k else 0.0
    fuzz = 1e-12
    if residual >= norm_bound / math.sqrt(k) + fuzz:
        raise ValueError(
            f"residual {residual} violates norm_bound/sqrt(k); is the norm bound valid?"
        )
    if residual >= norm_bound / math.sqrt(1 + k) + fuzz:
        raise ValueError(
            f"residual {residual} violates the sharper norm_bound/sqrt(1+k) bound"
        )
    return chosen, residual


def top_k_by_table(
    hat: np.ndarray, k: int, norm_bound: float, split: int
) -> tuple[list[Character], float]:
    """``harmonic.top_k_characters`` through one table entry per mode above 1e-12."""
    return top_k_of_table(
        spectrum_table(hat, 1e-12), k, norm_bound, restrict=lambda chi: any(chi.freq[split:])
    )


def top_k_outcome(top_k: Callable, hat: np.ndarray, k: int, norm_bound: float, split: int):
    """The frequencies and residual bits a top-k selection returns, or its error message."""
    try:
        chosen, residual = top_k(hat, k, norm_bound, split)
    except ValueError as exc:
        return str(exc)
    return [chi.freq for chi in chosen], residual.hex()


def uniformizing_cylinder(
    ball: ApproxHammingBall,
    table: CoefficientTable,
    norm_bound: float = 1.0,
    restrict: Callable[[Character], bool] | None = None,
) -> tuple[Cylinder, dict]:
    """Box whose density convolution flattens the k largest coefficients.

    Selection runs over nontrivial characters only (the trivial one is
    preserved: the box density has mean coefficient 1).  Off the selected
    set, |fhat . ghat| <= |fhat| < norm_bound / sqrt(k).
    """

    def keep(chi: Character) -> bool:
        if chi.trivial:
            return False
        return restrict is None or restrict(chi)

    chosen, residual = top_k_of_table(table, ball.k, norm_bound, restrict=keep)
    cyl = annihilating_cylinder(ball, chosen)
    report = {
        "selected": [list(c.freq) for c in chosen],
        "residual": residual,
    }
    return cyl, report


def grid_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Normalized convolution (f * g)(x) = q^(-d) sum_t f(t) g(x - t)."""
    if (g.dim, g.q) != (f.dim, f.q):
        raise ValueError("grid mismatch")
    fh = np.fft.fftn(f.values)
    gh = np.fft.fftn(g.values)
    return GridFunction(f.dim, f.q, np.fft.ifftn(fh * gh) / f.size())


def grid_dft_direct(f: GridFunction) -> GridFunction:
    """GridFunction.dft by its definition, one frequency n at a time:
    fhat(n) = q^(-d) sum_x f(x) e(-n.x/q), with n.x reduced mod q in integers."""
    points = np.indices(f.values.shape).reshape(f.dim, -1)
    flat = f.values.ravel()
    hat = [flat @ np.exp(-2j * np.pi * ((n @ points) % f.q) / f.q) for n in points.T]
    return GridFunction(f.dim, f.q, np.reshape(hat, f.values.shape) / f.size())


def spectrum_table(hat: np.ndarray, tol: float = 0.0) -> CoefficientTable:
    """A coefficient array as a table with centered frequencies, in C order.

    Keeps the entries whose np.abs exceeds ``tol``, the cut that
    ``harmonic.top_k_characters`` makes at 1e-12.
    """
    q = hat.shape[0]
    support = np.nonzero(np.abs(hat) > tol)
    # the centered residue of each index, n - q on the upper half
    freqs = np.stack([np.where(2 * i > q, i - q, i) for i in support], axis=1)
    out = CoefficientTable(hat.ndim)
    for freq, v in zip(freqs.tolist(), hat[support].tolist()):
        out[Character(tuple(freq))] = v
    return out


def spectrum_table_per_cell(f: GridFunction, tol: float = 0.0) -> CoefficientTable:
    """``spectrum_table`` of f's DFT one cell at a time, in np.ndindex order."""
    hat = f.dft()
    out = CoefficientTable(f.dim)
    for idx in np.ndindex(*hat.values.shape):
        v = complex(hat.values[idx])
        if abs(v) > tol:
            out[Character(tuple(centered_residue(i, f.q) for i in idx))] = v
    return out


def grid_idft(hat: GridFunction) -> GridFunction:
    """Inverse of GridFunction.dft by the direct kernel: f(x) = sum fhat(n) e(n.x/q)."""
    j = np.arange(hat.q)
    kernel = np.exp(2j * np.pi * np.outer(j, j) / hat.q)
    out = hat.values
    for _ in range(hat.dim):
        out = np.tensordot(out, kernel, axes=([0], [1]))
    return GridFunction(hat.dim, hat.q, out)


def roll_to(values: np.ndarray, shift: Sequence[int]) -> np.ndarray:
    """Array a with a[x] = values[x + shift]."""
    return np.roll(values, shift=tuple(-int(s) for s in shift), axis=tuple(range(values.ndim)))


def roth_form_roll_loop(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> complex:
    """roth.roth_form one shift at a time: two whole-grid rolls and one mean per s."""
    q, dim = f0.q, f0.dim
    total = 0j
    for s in np.ndindex(*(q,) * dim):
        term = f0.values * roll_to(f1.values, s) * roll_to(f2.values, [2 * a for a in s])
        total += term.mean()
    return complex(total / q**dim)


def roth_form_exact_roll_loop(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> Fraction:
    """roth.roth_form_exact one shift at a time, in Python integers throughout."""
    scaled = []
    for a in (a0, a1, a2):
        fracs = [Fraction(v) for v in a.astype(object).flat]
        den = math.lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (den // f.denominator) for f in fracs]
        scaled.append((np.array(ints, dtype=object).reshape(a.shape), den))
    (i0, d0), (i1, d1), (i2, d2) = scaled
    total = 0
    for s in np.ndindex(*a0.shape):
        total += int((i0 * roll_to(i1, s) * roll_to(i2, [2 * a for a in s])).sum())
    return Fraction(total, d0 * d1 * d2 * a0.size**2)


def roth_form_spectral(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> complex:
    """roth.roth_form through sum_n fhat0(n) fhat1(-2n) fhat2(n); odd grids only.

    On even q doubling frequencies is not a permutation, so the identity
    does not hold and the route raises.
    """
    if not (f0.dim == f1.dim == f2.dim and f0.q == f1.q == f2.q):
        raise ValueError("all three functions must live on the same grid")
    q = f0.q
    if q % 2 == 0:
        raise ValueError(f"spectral route needs an odd grid, got q={q}; use the direct route")
    h0, h1, h2 = (f.dft().values for f in (f0, f1, f2))
    idx = np.indices(h1.shape)
    h1_at_minus_2n = h1[tuple((-2 * comp) % q for comp in idx)]
    return complex(np.sum(h0 * h1_at_minus_2n * h2))


def annihilator_contains(
    subgroup: SubgroupModel | HermiteSubgroup, freq: Sequence[int]
) -> bool:
    """Whether the character with this frequency is trivial on the subgroup's Hermite basis."""
    if len(freq) != subgroup.dim:
        raise ValueError("frequency width must match the subgroup ambient")
    q = subgroup.q
    return all(
        sum(n * k for n, k in zip(freq, row)) % q == 0 for row in hermite(subgroup).basis
    )


def quotient_project_spectral(f: GridFunction, subgroup: SubgroupModel) -> GridFunction:
    """roth.quotient_project as a Fourier mask onto the annihilator."""
    if (subgroup.dim, subgroup.q) != (f.dim, f.q):
        raise ValueError("subgroup must live on the same grid as f")
    hat = f.dft()
    masked = np.zeros_like(hat.values)
    for idx in np.ndindex(*hat.values.shape):
        if annihilator_contains(subgroup, idx):
            masked[idx] = hat.values[idx]
    return grid_idft(GridFunction(f.dim, f.q, masked))


def quotient_project_roll_loop(f: GridFunction, subgroup: SubgroupModel) -> GridFunction:
    """roth.quotient_project with one whole-grid roll per subgroup element."""
    acc = np.zeros_like(f.values)
    elems = subgroup.elements().tolist()
    for k in elems:
        acc += roll_to(f.values, k)
    return GridFunction(f.dim, f.q, acc / len(elems))


def grid_plancherel_gap(f: GridFunction) -> float:
    """|sum |fhat|^2 - q^(-d) sum |f|^2|, should be ~machine epsilon."""
    hat = f.dft()
    lhs = float(np.sum(np.abs(hat.values) ** 2))
    return abs(lhs - f.norm_sq())


# ---------------------------------------------------------------------------
# pcg64


def splitmix64_outputs(key: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 from state ``key``, one Python int at a time.

    The generator of Steele, Lea and Flood (OOPSLA 2014) as its reference
    C code steps it: add gamma to the state, then mix a copy.
    """
    mask = (1 << 64) - 1
    state, out = key, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        out.append(z ^ z >> 31)
    return out


# ---------------------------------------------------------------------------
# certificates


def _exact_point(row: np.ndarray) -> TorusPoint:
    return TorusPoint.of([Fraction(float(v)) for v in row])


def sample_band_measure(
    witness: BandWitness, samples: int = 1_000_000, seed: int = 2026
) -> Fraction:
    """Empirical frequency of E under uniform sampling.

    Rows are classified with float comparisons; any row with a
    coordinate within 1e-9 of the band edge is reclassified exactly,
    so the returned count is free of float boundary artifacts.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    a_f = float(witness.a)
    hits = 0
    remaining = samples
    chunk_rows = max(1, 4_000_000 // witness.r)
    while remaining:
        n = min(remaining, chunk_rows)
        remaining -= n
        x = rng.random((n, witness.r))
        dist = np.minimum(x, 1.0 - x)
        w = (dist >= a_f).sum(axis=1)
        near_edge = (np.abs(dist - a_f) < 1e-9).any(axis=1)
        hits += int(((w <= witness.t) & ~near_edge).sum())
        for i in np.flatnonzero(near_edge):
            if band_contains(witness, _exact_point(x[i])):
                hits += 1
    return Fraction(hits, samples)


def band_return_bitset_per_n(witness: BandWitness, beta: TorusPoint, n_max: int) -> int:
    """certificates.band_return_bitset deciding each n*beta with band_contains."""
    bits = 0
    for n in range(n_max):
        if band_contains(witness, scaled(beta, n)):
            bits |= 1 << n
    return bits


def sample_band_disjointness_by_rejection(
    witness: BandWitness,
    ball: ApproxHammingBall,
    samples: int = 100_000,
    seed: int = 2026,
) -> int:
    """``sample_band_disjointness`` keeping the uniform rows of [0, 1)^r that lie in E.

    Each round draws about 1.25 / m(E) rows per point still wanted, all
    at once; the ball points (``certificates._sample_ball_points``) and
    the exact confirmation are the probe's.
    """
    if ball.dim != witness.r:
        raise ValueError("witness and ball dimensions differ")
    rng = np.random.default_rng(seed)
    r = witness.r
    a_f = float(witness.a)
    accept = float(witness.measure())
    chunk_rows = max(1, 4_000_000 // r)
    violations = 0
    produced = 0
    rounds = 0
    while produced < samples:
        rounds += 1
        if rounds > 500:
            raise RuntimeError("band acceptance rate too low for sampling")
        want = samples - produced
        draw = min(chunk_rows, int(want / max(accept, 1e-6) * 1.25) + 64)
        x = rng.random((draw, r))
        wx = (np.minimum(x, 1.0 - x) >= a_f).sum(axis=1)
        x = x[wx <= witness.t][:want]
        n = len(x)
        if n == 0:
            continue
        produced += n
        u = _sample_ball_points(rng, ball, n).T
        total = x + u
        total -= total >= 1.0
        dist = np.minimum(total, 1.0 - total)
        w_sum = (dist >= a_f + 1e-9).sum(axis=1)
        for i in np.flatnonzero(w_sum <= witness.t):
            xp = _exact_point(x[i])
            up = _exact_point(u[i])
            if (
                band_contains(witness, xp)
                and ball_contains(ball, up)
                and band_contains(witness, point_add(xp, up))
            ):
                violations += 1
    return violations


def verify_certificate_by_scan(cert: Certificate) -> Verification:
    """``verify_certificate`` with every shift tested on the whole bitset, in increasing order.

    Bit i of the AND of bits >> (j*s) over j = 0..k is set when i, i+s,
    ..., i+k*s all lie in B; the first shift with a set bit violates.
    """
    violating = start = None
    for s in cert.shifts:
        acc = cert.bits
        for j in range(1, cert.k + 1):
            step = j * s
            acc &= cert.bits >> step if step >= 0 else cert.bits << -step
        if acc:
            violating, start = s, (acc & -acc).bit_length() - 1
            break
    size = cert.bits.bit_count()
    density_ok = size >= cert.density_claim * cert.horizon
    return Verification(
        ok=density_ok and violating is None,
        size=size,
        density=Fraction(size, cert.horizon),
        required=cert.density_claim,
        density_ok=density_ok,
        violating_shift=violating,
        witness_start=start,
    )


def product_bits_from_factors(cert: Certificate) -> int:
    """AND of freshly built band return bitsets of the recorded factors."""
    prov = cert.provenance
    if prov["kind"] == "rotation":
        entries = [prov]
    else:
        assert prov["kind"] == "rotation-product"
        entries = prov["factors"]
    bits = (1 << cert.horizon) - 1
    for entry in entries:
        witness = BandWitness.from_json(entry["witness"])
        bits &= band_return_bitset(witness, TorusPoint.from_json(entry["beta"]), cert.horizon)
    return bits


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
    stabilizer: HermiteSubgroup
    cosets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]


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
    stabilizer = HermiteSubgroup.from_generators(q, dim, stab_gens)
    order = stabilizer.order()

    classes: dict[tuple[int, ...], int] = defaultdict(int)
    class_sizes: Counter = Counter()
    for x in support:
        rep = coset_representative(stabilizer, x)
        classes[rep] += counts[x]
        class_sizes[rep] += 1
    if any(size != order for size in class_sizes.values()):
        raise ArithmeticError("support does not split into full stabilizer cosets")

    cosets = tuple(sorted(classes))
    return OrbitDecomposition(
        q=q,
        dim=dim,
        period=2 * q,
        linear=c,
        quadratic=u,
        stabilizer=stabilizer,
        cosets=cosets,
        weights=tuple(Fraction(classes[rep], q) for rep in cosets),
    )


def lift_orbit(
    linear: Sequence[RationalLike], quadratic: Sequence[RationalLike], modulus: int | None = None
) -> tuple[list[int], list[int], int]:
    """(c, u, q): both parts written over their common denominator q (a multiple of modulus)."""
    fracs = [as_fraction(a) for a in [*linear, *quadratic]]
    q = math.lcm(modulus or 1, *(f.denominator for f in fracs))
    lifted = [f.numerator * (q // f.denominator) % q for f in fracs]
    return lifted[: len(linear)], lifted[len(linear) :], q


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


@dataclass(frozen=True)
class WeightedJoining:
    """Weighted coset shifts of a base subgroup of Z_q^(d+r): the general affine joining.

    The blocks are those of ``joinings.AffineJoining``, whose Haar
    measure is the one-shift case.  Weights are positive rationals
    summing to 1; the base is stored in Hermite form and the shifts as
    canonical coset representatives, sorted, so equality is measure
    equality.
    """

    base: SubgroupModel | HermiteSubgroup
    d: int
    r: int
    shifts: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        AffineJoining(self.base, self.d, self.r)  # the block checks
        object.__setattr__(self, "base", hermite(self.base))
        if len(self.shifts) != len(self.weights) or not self.shifts:
            raise ValueError("need equally many shifts and weights, at least one")
        canonical = tuple(coset_representative(self.base, s) for s in self.shifts)
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
    def of(cls, joining: "AffineJoining | WeightedJoining") -> "WeightedJoining":
        """A weighted joining as it is; a Haar joining as its one zero shift of weight 1."""
        if isinstance(joining, WeightedJoining):
            return joining
        zero = (0,) * joining.base.dim
        return cls(joining.base, joining.d, joining.r, (zero,), (Fraction(1),))


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


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    poly = [-1] + [0] * (n - 1) + [1]
    for dd in range(1, n):
        if n % dd == 0:
            poly, rem = _poly_div(poly, list(cyclotomic(dd)))
            assert not rem, "cyclotomic division left a remainder"
    return tuple(poly)


def root_of_unity_sum_is_zero_by_division(weights: Sequence[int]) -> bool:
    """Whether sum_t weights[t] * e(t/q) is 0: the q-th cyclotomic polynomial
    divides the weight polynomial.  The oracle of
    ``joinings.root_of_unity_sum_is_zero``, which folds rotated p-gons.
    """
    ints = [int(w) for w in weights]
    return not _poly_div(ints, list(cyclotomic(len(ints))))[1]


def verify_star_zero_per_character(
    joining: AffineJoining, freq: Sequence[int], cyl: Cylinder, scale: int
) -> None:
    """``joinings._verify_star_zero`` enumerating the base anew for one character.

    Raises the same ArithmeticError when the sum over the base of
    e(scale * freq . w1 / q) g(w2) is not certifiably zero.
    """
    q, d = joining.q, joining.d
    step = np.array([scale * n % q for n in freq], dtype=np.int64)
    w = np.array(joining.base.elements(), dtype=np.int64)
    inside = cyl.orbit_contains([Fraction(1, q)] * joining.r, w[:, d:])
    if not root_of_unity_sum_is_zero(np.bincount(w[inside, :d] @ step % q, minlength=q)):
        raise ArithmeticError(
            f"coefficient for frequency {tuple(freq)} is not certifiably zero; "
            "the joining is too sparse for this cylinder"
        )


def verify_star_zero_per_coset(
    joining: "AffineJoining | WeightedJoining", freq: Sequence[int], cyl: Cylinder, scale: int
) -> bool:
    """Whether sum e(scale * freq . w1 / q) g(w2) is certifiably 0 on every coset.

    One certificate per coset of the weighted joining, each by the
    cyclotomic division; on a Haar joining, one zero shift, it is the
    oracle of ``joinings._verify_star_zero``.
    """
    joining = WeightedJoining.of(joining)
    q, d = joining.q, joining.d
    grid = [Fraction(1, q)] * joining.r
    step = np.array([scale * n % q for n in freq], dtype=np.int64)
    for rep in joining.shifts:
        w = np.array(coset_elements(joining.base, rep), dtype=np.int64)
        inside = cyl.orbit_contains(grid, w[:, d:])
        counts = np.bincount(w[inside, :d] @ step % q, minlength=q)
        if not root_of_unity_sum_is_zero_by_division(counts):
            return False
    return True


def decomposition_joining(
    linear: Sequence[RationalLike],
    quadratic: Sequence[RationalLike],
    d: int,
    r: int,
    modulus: int | None = None,
) -> WeightedJoining:
    """The orbit's exact visit decomposition projected to the (w1, w2) offsets.

    Refines joinings.extract_affine_joining, whose Haar measure on the
    projected closure of the quadratic part is the single-component
    idealization of this weighted coset measure.
    """
    c, u, q = lift_orbit(linear, quadratic, modulus)
    dec = quadratic_orbit_decomposition(c, u, q)
    base = HermiteSubgroup.from_generators(
        q, d + r, [offset_projection(row, d, r, q) for row in dec.stabilizer.basis]
    )
    merged: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for rep, w in zip(dec.cosets, dec.weights):
        merged[coset_representative(base, offset_projection(rep, d, r, q))] += w
    shifts = tuple(sorted(merged))
    return WeightedJoining(
        base=base, d=d, r=r, shifts=shifts, weights=tuple(merged[s] for s in shifts)
    )


def projected_closure(
    linear: Sequence[RationalLike],
    quadratic: Sequence[RationalLike],
    d: int,
    r: int,
    modulus: int | None = None,
) -> HermiteSubgroup:
    """The closure of the quadratic part in Z_q^(4d+r), then projected to the offsets."""
    _, u, q = lift_orbit(linear, quadratic, modulus)
    closure = HermiteSubgroup.from_generators(q, 4 * d + r, [u])
    return HermiteSubgroup.from_generators(
        q, d + r, [offset_projection(row, d, r, q) for row in closure.basis]
    )


def orbit_point(dec: OrbitDecomposition, n: int) -> tuple[int, ...]:
    """The n-th point n*c + n^2*u of the decomposed orbit."""
    return tuple((n * c + n * n * u) % dec.q for c, u in zip(dec.linear, dec.quadratic))


def visit_counts(dec: OrbitDecomposition) -> Counter:
    """Counts over n in [0, q); one period doubles every count."""
    return Counter(orbit_point(dec, n) for n in range(dec.q))


def orbit_average(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Mean of fn along one period of the decomposed orbit."""
    total = sum(fn(orbit_point(dec, n)) for n in range(dec.q))
    return total / dec.q


def coset_average(base: SubgroupModel | HermiteSubgroup, reps, weights, fn: Callable[[tuple[int, ...]], object]):
    """sum_j weights[j] * the average of fn over the coset reps[j] + base."""
    total = 0
    for rep, w in zip(reps, weights):
        elems = coset_elements(base, rep)
        total += w * (sum(fn(x) for x in elems) / len(elems))
    return total


def decomposition_average(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Weighted mean of fn's coset averages."""
    return coset_average(dec.stabilizer, dec.cosets, dec.weights, fn)


def averaging_gap(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Orbit average minus decomposition average; exactly 0 when fn is exact."""
    return orbit_average(dec, fn) - decomposition_average(dec, fn)


def verify_measure_identity(dec: OrbitDecomposition) -> bool:
    """Recount the orbit and check the pointwise measure identity."""
    counts = visit_counts(dec)
    if sum(dec.weights, Fraction(0)) != 1:
        return False
    order = dec.stabilizer.order()
    seen: set[tuple[int, ...]] = set()
    for rep, w in zip(dec.cosets, dec.weights):
        for x in coset_elements(dec.stabilizer, rep):
            if x in seen:
                return False
            seen.add(x)
            if Fraction(counts.get(x, 0), dec.q) != w / order:
                return False
    return seen == set(counts)


def star_kernel(
    f_values: np.ndarray, g_values: np.ndarray, joining: AffineJoining | WeightedJoining
) -> np.ndarray:
    """(f *_joining g)(x, y) = sum_j w_j avg_{(w1,w2)} f(x, y + 2*w1) g(w2).

    f_values has 2d axes of length q (x block then y block), g_values has
    r axes of length q.  Object arrays of Fractions stay exact; anything
    else accumulates in complex.
    """
    joining = WeightedJoining.of(joining)
    d, r, q = joining.d, joining.r, joining.q
    f = np.asarray(f_values)
    g = np.asarray(g_values)
    if f.ndim != 2 * d or any(s != q for s in f.shape):
        raise ValueError(f"f must have 2*{d} axes of length {q}")
    if g.ndim != r or any(s != q for s in g.shape):
        raise ValueError(f"g must have {r} axes of length {q}")
    exact = f.dtype == object and g.dtype == object
    out = np.zeros(f.shape, dtype=object if exact else complex)
    y_axes = tuple(range(d, 2 * d))
    for rep, weight in zip(joining.shifts, joining.weights):
        elems = coset_elements(joining.base, rep)
        scale = weight / len(elems) if exact else float(weight) / len(elems)
        for w in elems:
            w1, w2 = w[:d], w[d:]
            gv = g[w2] if exact else complex(g[w2])
            if gv == 0:
                continue
            rolled = np.roll(f, shift=tuple(-(2 * a) % q for a in w1), axis=y_axes)
            out = out + rolled * (scale * gv)
    return out


def star_transform_factor(
    joining: AffineJoining | WeightedJoining, psi: Character, g_values: np.ndarray
) -> complex:
    """The factor multiplying every (chi, psi) coefficient under the kernel.

    Equals sum_j w_j avg_{(w1,w2)} e(2 * psi . w1 / q) * g(w2).
    """
    joining = WeightedJoining.of(joining)
    d, q = joining.d, joining.q
    if psi.dim != d:
        raise ValueError("psi must act on the w1 block")
    g = np.asarray(g_values)
    total = 0j
    for rep, weight in zip(joining.shifts, joining.weights):
        elems = coset_elements(joining.base, rep)
        acc = 0j
        for w in elems:
            ph = sum(2 * n * a for n, a in zip(psi.freq, w[:d])) % q
            acc += cmath.exp(2j * cmath.pi * ph / q) * complex(g[w[d:]])
        total += float(weight) * acc / len(elems)
    return total
