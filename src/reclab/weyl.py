"""Two-step skew products on the torus and their correlation averages.

The map S(x, y) = (x + alpha, y + x) on T^d x T^d has the polynomial
orbit formula

    S^n(x, y) = (x + n alpha, y + n x + C(n, 2) alpha),

so every orbit quantity here is computed in exact rational arithmetic.
Observables come in two backends that must agree wherever both apply:
trigonometric polynomials (CoefficientTable over character pairs, with
integrals collapsed by orthogonality) and finite models on Z_q^d x Z_q^d
(full summation over int, bool or Fraction grids, the only observables
they take, so their integrals are exact).  Quadrature is never used;
that keeps inequality checks honest.

On top of the map sit the triple correlation averages: the running
average of n -> avg f . f o S^n . f o S^2n arithmetically weighted by a
cylinder window evaluated along n^2 l^2 beta (a window that pins no
coordinate gives the plain average), and the closed form it is
compared against, namely the progression form of the first-coordinate
marginal (the rotation factor carries all of the limit for generic
rotation parts).  Rational rotation parts make every run a periodic
model, so the closed form is a comparison, not a claimed limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .harmonic import Character, CoefficientTable, GridFunction
from .roth import product_dtype, roth_form, roth_form_exact, sum_dtype
from .torus import SCAN_BLOCK, Cylinder, TorusPoint, orbit_residues, reduce_mod, scan_blocks

__all__ = [
    "AveragesTrace",
    "GridWeylModel",
    "RotationModel",
    "WeylSystem",
    "kronecker_projection",
    "marginal_form_exact",
    "max_triple_intersection",
    "trig_progression_form",
    "triple_integrals",
    "weighted_average",
]

Observable = Union[CoefficientTable, np.ndarray]


def _unit(num: int, den: int) -> complex:
    """e(num / den) for integers num and den > 0.

    num is reduced mod den in integers first; Python's int division is
    correctly rounded, so the phase is the double ``float(wrap_unit(
    Fraction(num, den)))``.
    """
    return cmath.exp(2j * cmath.pi * (num % den / den))


#: numpy computes ``c * P`` for a temporary complex128 vector P of 256 KiB
#: or more (16384 entries) as ``P * c`` in P's buffer (temporary elision),
#: and the two operand orders round a complex product differently.  The
#: series multiplies each phase vector in the order of that expression over
#: the whole horizon 1..n_max, whatever the number of n it is evaluated at,
#: and into a fresh array: a product written over a one-entry operand
#: rounds differently again.
ELIDED_PRODUCT_TERMS = 16384


def _family_phase_powers(
    a: Fraction, b: Fraction, r1: np.ndarray, r2: np.ndarray, modulus: int
) -> np.ndarray:
    """The vector e(a n + b n^2), given r1 = n mod L and r2 = n^2 mod L.

    L = ``modulus`` is a multiple of the denominator den of the phase, so
    the phase is reduced mod L in integer arithmetic before the single
    float conversion: on int64 residues L < 2^53, and ph / L is the same
    double as the phase reduced mod den over den; Python-int residues are
    divided by L / den first.  On int64 residues (L - 1)^2 < 2^63, and the
    first product is reduced (``torus.reduce_mod``) before the second is
    added, so the sum stays below L + (L - 1)^2, which fits too.
    """
    den = math.lcm(a.denominator, b.denominator)
    scale = modulus // den
    pa = a.numerator * (den // a.denominator) * scale % modulus
    pb = b.numerator * (den // b.denominator) * scale % modulus
    if r1.dtype == object:
        ph = (r1 * pa % modulus + r2 * pb % modulus) % modulus // scale
        modulus = den
    else:
        ph = reduce_mod(r1 * pa, modulus)
        ph += r2 * pb
        reduce_mod(ph, modulus)
    return np.exp(2j * np.pi * (ph.astype(np.float64) / modulus))


def _as_values(f: Observable) -> np.ndarray:
    """The values of an exact grid observable: an int, bool or object array."""
    if isinstance(f, (CoefficientTable, GridFunction)):
        raise TypeError(f"a grid model needs an exact array, not a {type(f).__name__}")
    values = np.asarray(f)
    if not _is_exact_dtype(values):
        raise TypeError(f"a grid model needs an int, bool or object array, not {values.dtype}")
    return values


def _is_exact_dtype(arr: np.ndarray) -> bool:
    return arr.dtype == object or arr.dtype == bool or np.issubdtype(arr.dtype, np.integer)


def marginal_form_exact(values: np.ndarray, d: int) -> Fraction:
    """The progression form of the marginal of an exact grid on its first d axes.

    That is the form of its sums over blocks of B cells, over B^3; the sums are
    int64 while B * max|values| < 2^63, else (and for object grids) Python ints.
    """
    block = math.prod(values.shape[d:])
    wide = values.dtype == object or block * max(int(values.max()), -int(values.min()), 1) >= 2**63
    sums = values.sum(axis=tuple(range(d, values.ndim)), dtype=object if wide else np.int64)
    return roth_form_exact(sums, sums, sums) / block**3


# ---- the continuous system, trig polynomial backend ----


@dataclass(frozen=True)
class WeylSystem:
    """The skew product S(x, y) = (x + alpha, y + x) on T^d x T^d."""

    alpha: TorusPoint

    @property
    def dim(self) -> int:
        return self.alpha.dim

    def correlation_series(
        self, table: CoefficientTable, n_max: int, at: np.ndarray | None = None
    ) -> np.ndarray:
        """The vector of triple integrals for n = 1..n_max, or at the n in ``at``, in one pass.

        The series of ``series_plan(table, n_max)`` evaluated at ``at``, a
        strictly increasing integer vector inside 1..n_max (default all
        of it); entry i of the result has the bits of entry at[i] - 1 of
        the series over 1..n_max.
        """
        plan = self.series_plan(table, n_max)
        if at is None:
            ns = np.arange(1, n_max + 1, dtype=np.int64)
        else:
            ns = np.asarray(at, dtype=np.int64)
            if ns.ndim != 1 or ns.size and (
                ns[0] < 1 or ns[-1] > n_max or np.any(ns[1:] <= ns[:-1])
            ):
                raise ValueError("at must be strictly increasing inside 1..n_max")
        return plan.evaluate(ns)

    def series_plan(self, table: CoefficientTable, n_max: int) -> "_SeriesPlan":
        """The matching frequency triples of the series over 1..n_max, enumerated once.

        Matching triples split by the drift mu_1 + 2 mu_2 of the
        x-cancellation condition: zero drift gives a family active at
        every n with phase a n + b n^2, anything else is satisfied by at
        most one n.  Enumeration costs O(support^3); evaluating the plan
        costs O(len(ns) * distinct (a, b) + families) per block of n.
        """
        d = self.dim
        if table.dim != 2 * d:
            raise ValueError(f"table dimension {table.dim} is not twice the system dim {d}")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        entries = [(chi.freq[:d], chi.freq[d:], coef) for chi, coef in table]
        by_mu: dict[tuple[int, ...], list] = {}
        for entry in entries:
            by_mu.setdefault(entry[1], []).append(entry)
        weights, den = _phase_weights(self.alpha.coords)
        terms = []
        for nu0, mu0, c0 in entries:
            for nu1, mu1, c1 in entries:
                # the y-frequencies must cancel: only mu_2 = -(mu_0 + mu_1) can match
                partners = by_mu.get(tuple(-(a + b) for a, b in zip(mu0, mu1)), ())
                for nu2, mu2, c2 in partners:
                    base = tuple(a + b + c for a, b, c in zip(nu0, nu1, nu2))
                    drift = tuple(b + 2 * c for b, c in zip(mu1, mu2))
                    hit = 0
                    if not any(drift):
                        if any(base):
                            continue
                    else:
                        hit = _drift_hit(base, drift)
                        if not 1 <= hit <= n_max:
                            continue
                    lin, quad = _series_phases(nu1, nu2, mu1, mu2, weights)
                    coef = c0 * c1 * c2
                    if hit:
                        terms.append((hit, coef * _unit(hit * lin + hit * hit * quad, den), None))
                    else:
                        key = (Fraction(lin % den, den), Fraction(quad % den, den))
                        terms.append((0, coef, key))
        dens = [x.denominator for hit, _, key in terms if not hit for x in key]
        return _SeriesPlan(n_max, tuple(terms), math.lcm(*dens) if dens else 0)


@dataclass(frozen=True)
class _SeriesPlan:
    """The contributing triples of a correlation series over 1..n_max, in loop order.

    A drift triple is (hit, its term at n = hit, None); a family active
    at every n is (0, coefficient, (a, b)), with a and b reduced mod 1.
    ``modulus`` is L, the lcm of the families' denominators (0 when there
    is no family).
    """

    n_max: int
    terms: tuple[tuple[int, complex, tuple[Fraction, Fraction] | None], ...]
    modulus: int

    def evaluate(self, ns: np.ndarray) -> np.ndarray:
        """The series at ns, a strictly increasing int64 vector inside 1..n_max.

        Entry i has the bits of entry ns[i] - 1 of the series over
        1..n_max: the terms are added in loop order, and the operand
        order of each family's product depends on n_max alone.  n mod L
        and n^2 mod L are computed once, the phase vector once per
        distinct (a, b), and the positions of the drift hits in ns by one
        binary search (-1 where ns lacks the hit).
        """
        out = np.zeros(len(ns), dtype=complex)
        if not len(ns):
            return out
        if self.modulus:
            r1 = orbit_residues(ns, 1, 1, self.modulus)
            r2 = orbit_residues(ns, 2, 1, self.modulus)
        hits = np.array([hit for hit, _, _ in self.terms if hit], dtype=np.int64)
        pos = np.searchsorted(ns, hits)
        found = ns[np.minimum(pos, len(ns) - 1)] == hits
        slots = iter(np.where(found, pos, -1).tolist())
        elided = self.n_max >= ELIDED_PRODUCT_TERMS
        phases: dict[tuple[Fraction, Fraction], np.ndarray] = {}
        for hit, coef, key in self.terms:
            if hit:
                slot = next(slots)
                if slot >= 0:
                    out[slot] += coef
                continue
            if key not in phases:
                phases[key] = _family_phase_powers(*key, r1, r2, self.modulus)
            powers = phases[key]
            out += np.multiply(powers, coef) if elided else np.multiply(coef, powers)
        return out


def _phase_weights(alpha: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(w, D) with D = 2 lcm(alpha denominators) and alpha_i = 2 w_i / D."""
    half = math.lcm(*(a.denominator for a in alpha))
    return tuple(a.numerator * (half // a.denominator) for a in alpha), 2 * half


def _series_phases(nu1, nu2, mu1, mu2, weights) -> tuple[int, int]:
    """The phase a n + b n^2 of one matching triple, as the numerators (a D, b D).

    ``weights`` and D come from ``_phase_weights``.  Over D the phase
    a = sum (nu_1 + 2 nu_2 - mu_1 / 2 - mu_2) alpha and b = sum
    (mu_1 / 2 + 2 mu_2) alpha have integer numerators, since alpha_i D / 2
    = w_i is an integer.
    """
    lin = sum(
        (2 * (b + 2 * c) - m - 2 * n) * w for b, c, m, n, w in zip(nu1, nu2, mu1, mu2, weights)
    )
    quad = sum((m + 4 * n) * w for m, n, w in zip(mu1, mu2, weights))
    return lin, quad


def _drift_hit(base: tuple[int, ...], drift: tuple[int, ...]) -> int:
    """The one n with base + n drift = 0, or 0 when there is none."""
    hit = None
    for bs, dr in zip(base, drift):
        if dr == 0:
            if bs != 0:
                return 0
            continue
        if bs % dr:
            return 0
        cand = -(bs // dr)
        if hit is None:
            hit = cand
        elif hit != cand:
            return 0
    return hit or 0


# ---- finite grid models ----


@dataclass(frozen=True)
class _Windows:
    """One observable on a grid model, prepared for any number of pullbacks.

    ``values`` is the observable in the dtype its triple products are
    taken in, and ``view`` holds every q-wide window along the last axis
    of a copy of it doubled along that axis (``_GridModel._windows``).
    """

    values: np.ndarray
    view: np.ndarray


class _GridModel:
    """What the two grid models share: the pullback as a gather of whole windows.

    Both maps shift the last axis of the phase space by an amount that
    depends only on the point of the other axes (n step_d for the
    rotation, n x_d + C(n, 2) alpha_d for the skew product), and move
    that point too.  On a copy of f doubled along the last axis each row
    of f o T^n along it is one q-wide window, so the pullback is one
    gather.  For a vector of b powers, ``_window_index(ns)`` gives an
    index array for every other axis and then the window offset, all
    broadcasting to (b,) + the phase space without its last axis, so
    one gather pulls f back along every power at once
    (``pullback_values``).  Only one axis is doubled, so the copy has
    2 * size cells for every d.
    """

    def _windows(self, values: np.ndarray) -> _Windows:
        if values.shape != self.phase_space_shape:
            raise ValueError(f"values must have shape {self.phase_space_shape}")
        doubled = np.concatenate([values, values], axis=-1)
        return _Windows(values, sliding_window_view(doubled, self.q, axis=-1))

    def _gather(self, windows: _Windows, ns: Sequence[int]) -> np.ndarray:
        # every index is an array, so this is a fresh copy, never a view of the windows
        shape = (len(ns),) + self.phase_space_shape
        return windows.view[self._window_index(ns)].reshape(shape)


def _key_column(values: Sequence[int], axes: int) -> np.ndarray:
    """Index terms reduced in Python ints, as an int64 column ahead of ``axes`` unit axes."""
    return np.array(values, dtype=np.int64).reshape((len(values),) + (1,) * axes)


@dataclass(frozen=True)
class RotationModel(_GridModel):
    """Rotation T(x) = x + step on the grid Z_q^d."""

    q: int
    step: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        step = tuple(int(s) % self.q for s in self.step)
        if not step:
            raise ValueError("step must have dimension >= 1")
        object.__setattr__(self, "step", step)

    @property
    def d(self) -> int:
        return len(self.step)

    @property
    def phase_space_shape(self) -> tuple[int, ...]:
        return (self.q,) * self.d

    @property
    def period(self) -> int:
        """Least P >= 1 with T^P the identity."""
        return math.lcm(*(self.q // math.gcd(s, self.q) for s in self.step))

    @property
    def is_generating(self) -> bool:
        """Whether the orbit of 0 sweeps the whole grid group."""
        return self.period == self.q**self.d

    def _window_index(self, ns: Sequence[int]) -> tuple[np.ndarray, ...]:
        # g[x] = f[x + n step]; n step is reduced mod q in Python ints
        q, d = self.q, self.d
        shifts = [_key_column([int(n) * s % q for n in ns], d - 1) for s in self.step]
        axes = [np.arange(q).reshape((q,) + (1,) * (d - 2 - ax)) for ax in range(d - 1)]
        return tuple((x + s) % q for x, s in zip(axes, shifts)) + (shifts[-1],)

    def pullback_values(self, windows: _Windows, ns: Sequence[int]) -> np.ndarray:
        """Arrays g with g[x] = f[x + n step], one per n in ns along a leading axis,
        for f prepared by ``_windows``."""
        return self._gather(windows, ns)


@dataclass(frozen=True)
class GridWeylModel(_GridModel):
    """The skew product S(x, y) = (x + alpha, y + x) on Z_q^d x Z_q^d.

    alpha holds the integer residues a with rotation part a/q; the
    binomial term of the orbit formula is reduced mod q in arbitrary
    precision before it ever scales anything, so there is no overflow
    path.
    """

    q: int
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")
        alpha = tuple(int(a) % self.q for a in self.alpha)
        if not alpha:
            raise ValueError("alpha must have dimension >= 1")
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def phase_space_shape(self) -> tuple[int, ...]:
        return (self.q,) * (2 * self.d)

    @property
    def period(self) -> int:
        """Least P >= 1 with S^P the identity on all of Z_q^d x Z_q^d.

        The y-update forces q | P, and then only the binomial phase can
        obstruct: C(q, 2) is divisible by q for odd q, while for even q
        it is q/2, which dies exactly when every alpha entry is even.
        """
        if self.q % 2 == 1 or all(a % 2 == 0 for a in self.alpha):
            return self.q
        return 2 * self.q

    @property
    def is_generating(self) -> bool:
        """Whether the rotation part alone sweeps the first factor."""
        orbit = math.lcm(*(self.q // math.gcd(a, self.q) for a in self.alpha))
        return orbit == self.q**self.d

    def _window_index(self, ns: Sequence[int]) -> tuple[np.ndarray, ...]:
        # g[x, y] = f[x + n alpha, y + n x + C(n, 2) alpha].  n and C(n, 2) are
        # reduced mod q in Python ints, so no index term reaches 2 q^2.
        q, d = self.q, self.d
        ns = [int(n) for n in ns]
        binom = _key_column([n * (n - 1) // 2 % q for n in ns], 2 * d - 1)
        n = _key_column([n % q for n in ns], 2 * d - 1)
        # axes x_1..x_d, y_1..y_(d-1): the last y axis is the window axis
        axes = [np.arange(q).reshape((q,) + (1,) * (2 * d - 2 - ax)) for ax in range(2 * d - 1)]
        xs, ys = axes[:d], axes[d:]
        rows = [(x + n * a) % q for x, a in zip(xs, self.alpha)]
        shifts = [(n * x + binom * a) % q for x, a in zip(xs, self.alpha)]
        cols = [(y + s) % q for y, s in zip(ys, shifts)]
        return tuple(rows + cols + shifts[-1:])

    def pullback_values(self, windows: _Windows, ns: Sequence[int]) -> np.ndarray:
        """Arrays g with g[x, y] = f[x + n alpha, y + n x + C(n, 2) alpha], one per
        n in ns along a leading axis, for f prepared by ``_windows``."""
        return self._gather(windows, ns)


Model = Union[WeylSystem, RotationModel, GridWeylModel]


# ---- observables ----


def kronecker_projection(table: CoefficientTable, d: int) -> CoefficientTable:
    """Average out the second coordinate block: keep the terms of y-frequency zero.

    Exact grids have ``marginal_form_exact`` instead.
    """
    if not 1 <= d < table.dim:
        raise ValueError(f"split point {d} outside 1..{table.dim - 1}")
    out = CoefficientTable(d)
    for chi, coef in table:
        if not any(chi.freq[d:]):
            kept = Character(chi.freq[:d])
            out[kept] = out[kept] + coef
    return out


def trig_progression_form(table: CoefficientTable) -> complex:
    """The progression form avg_{x,s} h(x) h(x+s) h(x+2s) of a trig polynomial.

    Orthogonality leaves the frequency matches nu, -2 nu, nu, so the
    form is sum over nu of h_hat(nu)^2 h_hat(-2 nu).
    """
    total = 0j
    for chi, coef in table:
        partner = table[Character(tuple(-2 * a for a in chi.freq))]
        if partner != 0:
            total += coef * coef * partner
    return total


# ---- averaging drivers ----


@dataclass(frozen=True)
class AveragesTrace:
    """Running averages (N, value) at strictly increasing checkpoints.

    Values are Fractions on the grid models and floats (or complex) on
    the trig backend; window_hits counts the n up to the last checkpoint
    where the window is on; closed_form, when present, is the projected
    progression form the trace is converging toward (or being compared
    against).
    """

    checkpoints: tuple[tuple[int, object], ...]
    window_hits: int
    closed_form: object = None

    def __post_init__(self) -> None:
        pts = tuple((int(n), v) for n, v in self.checkpoints)
        if not pts:
            raise ValueError("a trace needs at least one checkpoint")
        for (a, _), (b, _) in zip(pts, pts[1:]):
            if b <= a:
                raise ValueError("checkpoint positions must be strictly increasing")
        if pts[0][0] < 1:
            raise ValueError("checkpoint positions start at 1")
        object.__setattr__(self, "checkpoints", pts)

    @property
    def value(self):
        return self.checkpoints[-1][1]

    def rows(self) -> list[tuple]:
        out = []
        for n, v in self.checkpoints:
            if self.closed_form is None:
                out.append((n, v, None, None))
            else:
                out.append((n, v, self.closed_form, v - self.closed_form))
        return out

    def to_csv(self) -> str:
        lines = ["N,value,closed_form,gap"]
        for n, v, cf, gap in self.rows():
            cells = [str(n)] + [_csv_cell(w) for w in (v, cf, gap)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _csv_cell(w) -> str:
    if w is None:
        return ""
    # a non-real cell is written as repr(complex), such as (0.5+1j), which holds no comma
    return repr(complex(w)) if isinstance(w, complex) and w.imag else repr(float(w.real))


def _default_checkpoints(n_max: int) -> list[int]:
    pts = []
    p = 1
    while p < n_max:
        pts.append(p)
        p *= 2
    pts.append(n_max)
    return pts


def triple_integrals(
    model: Union[RotationModel, GridWeylModel], f: np.ndarray, n_values: Iterable[int]
) -> list[Fraction]:
    """The per-step integrals avg f . f o S^n . f o S^2n for each requested n, in order.

    Grid models only: the trig backend's integrals are
    ``WeylSystem.correlation_series``.  S^P is the identity for
    P = model.period, so the integral depends only on r = n mod P, and
    the gathered arrays are the same as at n; substituting x -> S^2n x
    also shows I(n) = I(-n).  Each distinct key min(r, P - r) is
    evaluated once.  The observable is lifted and windowed once per
    call.  The keys go in blocks of as many as fit, with their doubles,
    in the bytes of ``torus.SCAN_BLOCK`` int64 cells (one key at least),
    so a block holds 8 times as many int8 keys as int64 ones; a block
    costs one gather at its keys n and 2n together, one product and one
    sum per key.
    """
    sums, where, size = _triple_sums(model, f, n_values)
    values = [Fraction(t, size) for t in sums]
    return list(map(values.__getitem__, where))


def _triple_sums(
    model: Union[RotationModel, GridWeylModel], f: np.ndarray, n_values: Iterable[int]
) -> tuple[list, list[int], int]:
    """(sums, where, size): the integral at the i-th requested n is sums[where[i]] / size.

    sums holds one sum per distinct key, in increasing key order.
    """
    if isinstance(model, WeylSystem):
        raise TypeError("the trig backend's integrals are WeylSystem.correlation_series")
    windows = _lifted_windows(model, f)
    period = model.period
    residues = _residues(n_values, period)
    distinct, where = np.unique(np.minimum(residues, period - residues), return_inverse=True)
    per_block = _keys_per_block(windows.values)
    sums: list = []
    for lo in range(0, len(distinct), per_block):
        sums += _triple_block_sums(model, windows, distinct[lo : lo + per_block].tolist())
    return sums, where.tolist(), windows.values.size


def _keys_per_block(values: np.ndarray) -> int:
    """Keys whose gathers at n and 2n fit the bytes of ``SCAN_BLOCK`` int64 cells, one at least."""
    return max(1, SCAN_BLOCK * np.dtype(np.int64).itemsize // (2 * values.nbytes))


def _residues(n_values: Iterable[int], period: int) -> np.ndarray:
    """n mod period for each n, as int64; n past int64 are reduced in Python ints."""
    n_values = list(n_values)
    try:
        ns = np.asarray(n_values, dtype=np.int64)
    except OverflowError:
        ns = np.array(n_values, dtype=object)
    return np.asarray(ns % period, dtype=np.int64)


def _lifted_windows(model: Union[RotationModel, GridWeylModel], f: np.ndarray) -> _Windows:
    """The windows of f in the narrowest dtype its triple products are exact in.

    Every pullback permutes the entries of f, so one bound serves every
    product: integer and bool grids ride the ``roth.product_dtype`` of
    (f, f, f), int8 while max|f|^3 <= 127 and up to int64 while
    size * max|f|^3 < 2^62, and Python ints otherwise.  Object grids stay
    as they are.
    """
    values = _as_values(f)
    if values.dtype != object:
        values = values.astype(product_dtype(values.size, values, values, values), copy=False)
    return model._windows(values)


def _triple_block_sums(model, windows: _Windows, ns: Sequence[int]) -> list:
    """sum f . (f o S^n) . (f o S^2n) for each n, from one gather at every n and 2n.

    The products are formed in the buffer of the f o S^n half, in the
    dtype of the windows, and summed in int64 (Python objects for object
    grids).
    """
    both = model.pullback_values(windows, list(ns) + [2 * n for n in ns])
    first, second = both[: len(ns)], both[len(ns) :]
    np.multiply(windows.values, first, out=first)
    first *= second
    # tolist gives Python ints from int64 sums and leaves object sums as they are
    return first.reshape(len(ns), -1).sum(axis=1, dtype=sum_dtype(first.dtype)).tolist()


def _checkpoint_averages(
    terms: Sequence[Fraction], marks: Sequence[int], ends: Sequence[int], weight: Fraction
) -> list[tuple[int, Fraction]]:
    """Running means weight * sum(terms[:end]) / mark at each mark and its end.

    The terms are summed as numerators over one denominator, and the
    weight is applied once per mark.
    """
    den = math.lcm(*(t.denominator for t in terms))
    nums = [t.numerator * (den // t.denominator) for t in terms]
    acc = 0
    prev = 0
    out = []
    for mark, end in zip(marks, ends):
        acc += sum(nums[prev:end])
        prev = end
        out.append((mark, Fraction(acc * weight.numerator, den * weight.denominator * mark)))
    return out


def _fsum_expansion(terms: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of terms, by repeated fsum.

    Each part is the fsum of the terms less the parts so far, so no
    earlier rounding is lost: fsum([acc] + _fsum_expansion(a) + b) is
    fsum([acc] + a + b).  A sum that is exactly zero gives [].
    """
    parts: list[float] = []
    while part := math.fsum(terms + [-p for p in parts]):
        parts.append(part)
    return parts


class _FloatCheckpoints:
    """Running means of re + i im at each mark, folded in one block of n at a time.

    Each checkpoint is one fsum of the previous checkpoint's sum, already
    rounded, and the terms since: correctly rounded for those operands,
    not for all terms so far (terms 1e16, 1, 1 with marks 2 and 3 sum to
    1e16 at mark 3, where the correctly rounded total is 1e16 + 2).  The
    earlier blocks of a segment that spans blocks wait in ``pending_re``
    and ``pending_im`` as their exact fsum expansions, a few floats each,
    so every checkpoint has the bits of one fsum over the whole segment.
    """

    def __init__(self, marks: Sequence[int]) -> None:
        self.marks = list(marks)
        self.points: list[tuple[int, object]] = []
        self.acc_re = self.acc_im = 0.0
        self.pending_re: list[float] = []
        self.pending_im: list[float] = []

    def add(self, last: int, ns: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
        """Fold in the terms re + i im at the increasing n in ns, a block ending at n = last."""
        re, im = re.tolist(), im.tolist()
        cut = 0
        while len(self.points) < len(self.marks) and self.marks[len(self.points)] <= last:
            mark = self.marks[len(self.points)]
            end = int(np.searchsorted(ns, mark, side="right"))
            self.acc_re = math.fsum([self.acc_re] + self.pending_re + re[cut:end])
            self.acc_im = math.fsum([self.acc_im] + self.pending_im + im[cut:end])
            self.pending_re, self.pending_im = [], []
            cut = end
            if abs(self.acc_im) <= 1e-9 * max(1.0, abs(self.acc_re)):
                self.points.append((mark, self.acc_re / mark))
            else:
                self.points.append((mark, complex(self.acc_re, self.acc_im) / mark))
        if cut < len(re):
            self.pending_re += _fsum_expansion(re[cut:])
            self.pending_im += _fsum_expansion(im[cut:])


def _trig_checkpoint_averages(
    plan: _SeriesPlan,
    window: Cylinder,
    direction: Sequence[Fraction],
    weight: float,
    marks: Sequence[int],
) -> tuple[list[tuple[int, object]], int]:
    """The float checkpoints of the windowed series and the window's hit count.

    Walks 1..n_max in scan blocks: the window, the series at its hits
    and the weighted terms are formed one block at a time, so nothing of
    the horizon's size is held.  Only the terms the window keeps enter
    the sums: zeros do not change an fsum whose accumulator starts at +0.0.
    """
    sums = _FloatCheckpoints(marks)
    hits = 0
    for ns in scan_blocks(1, plan.n_max + 1):
        last = int(ns[-1])
        ns = ns[window.orbit_contains(direction, ns, 2)]
        hits += len(ns)
        series = plan.evaluate(ns)
        sums.add(last, ns, series.real * weight, series.imag * weight)
    return sums.points, hits


def _closed_form(model: Model, f: Observable):
    """The progression form of the rotation-factor marginal, when meaningful.

    For the continuous system this is always the limit candidate.  Grid
    models report it only when the rotation part generates the first
    factor; a non-generating model averages over a proper subgroup and
    the comparison would be apples to oranges.
    """
    if isinstance(model, WeylSystem):
        value = trig_progression_form(kronecker_projection(f, model.dim))
        if abs(value.imag) <= 1e-9 * max(1.0, abs(value.real)):
            return value.real
        return value
    if not model.is_generating:
        return None
    values = _as_values(f)
    if values.ndim == model.d or values.dtype == object:
        return marginal_form_exact(values, model.d)
    # an integer skew-product grid keeps the float marginal its trace CSV has always carried
    grid = GridFunction(model.d, model.q, values.mean(axis=tuple(range(model.d, values.ndim))))
    value = roth_form(grid, grid, grid)
    return value.real if abs(value.imag) <= 1e-9 else value


def weighted_average(
    model: Model,
    f: Observable,
    window: Cylinder,
    direction: Sequence[Fraction],
    n_max: int,
) -> AveragesTrace:
    """The running averages (1/N) sum_{n<=N} g(n^2 direction) avg f . f o S^n . f o S^2n.

    g is the cylinder ``window`` normalized to density 1/measure on it
    and 0 off it, decided by exact membership of n^2 direction, where
    ``direction`` holds the r coordinates l^2 beta the window is read
    along; the trace's window_hits counts the n <= n_max where g is on.
    A window that pins no coordinate has measure 1 and is on at every
    n, which gives the plain correlation average.  Grid models average
    their exact integrals in Fractions.  The trig backend plans its
    series once, then walks 1..n_max in blocks of ``torus.SCAN_BLOCK``:
    it evaluates the series only where g is on and folds the terms into
    float sums with the bits of one pass over the whole horizon, so its
    memory does not grow with n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    marks = _default_checkpoints(n_max)
    weight = 1 / window.measure()
    if isinstance(model, WeylSystem):
        plan = model.series_plan(f, n_max)
        points, hits = _trig_checkpoint_averages(plan, window, direction, float(weight), marks)
    else:
        integrals = triple_integrals(model, f, range(1, n_max + 1))
        on = window.orbit_contains(direction, np.arange(1, n_max + 1), 2)
        # only the terms the window keeps enter the sums: zeros do not change an exact sum
        terms = list(compress(integrals, on.tolist()))
        ends = np.searchsorted(np.flatnonzero(on) + 1, marks, side="right").tolist()
        hits = len(terms)
        points = _checkpoint_averages(terms, marks, ends, weight)
    return AveragesTrace(
        checkpoints=tuple(points),
        window_hits=hits,
        closed_form=_closed_form(model, f),
    )


def max_triple_intersection(
    model: Union[RotationModel, GridWeylModel],
    mask: np.ndarray,
    steps: Iterable[int],
    n_max: int,
):
    """Best return strength of a set along the allowed powers.

    Scans n in steps with 0 <= n <= n_max (n = 0 is the identity power)
    and returns (n*, measure of A intersect T^-n A intersect T^-2n A)
    at the maximizing n*, smallest first on ties.  The measure is the
    mean of the product of the three pulled-back indicators, so integer
    masks give exact rational values.
    """
    values = _as_values(mask)
    if values.shape != model.phase_space_shape:
        raise ValueError(f"mask must have shape {model.phase_space_shape}")
    candidates = sorted({int(n) for n in steps if 0 <= int(n) <= int(n_max)})
    if not candidates:
        raise ValueError("no admissible powers: steps has nothing in [0, n_max]")
    # the integrals share the denominator size, so their sums order them
    sums, where, size = _triple_sums(model, values, candidates)
    per_n = list(map(sums.__getitem__, where))
    best = per_n.index(max(per_n))  # first maximum on ties
    return candidates[best], Fraction(per_n[best], size)
