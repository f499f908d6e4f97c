"""Exact arithmetic on finite-dimensional tori.

Points carry Fraction coordinates reduced into [0, 1).  The distance of a
coordinate c to the nearest integer is min(c, 1 - c).  The basic
neighborhoods here allow a bounded number of coordinates to stray: a point x is
(k, eps)-close to a center y when at most k coordinates of y - x sit at
distance >= eps from zero.  Such a neighborhood is a finite union of
axis-aligned boxes ("cylinders") that pin all but k coordinates.

Boundary conventions are fixed once and used everywhere: a coordinate
counts as deviating when its distance is >= eps, and cylinder membership
is strict (< eta).  With eta = eps the union-of-cylinders identity is then
exact, with no boundary mismatch.

All measures are exact rationals.  Membership has one kernel:
orbit_deviations tests orbit points n^e * beta (e = 1 or 2) on integer
residues, and each region's orbit_contains calls it (a point x is 1 * x).
Its Fraction oracles, point by point, live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str]

#: orbit scans over [1, N] pass this many multipliers at a time to the kernel;
#: the trig weighted average also evaluates its series and folds its sums
#: one such block at a time, so every power-of-two checkpoint from 2^14 up
#: ends a block
SCAN_BLOCK = 1 << 14


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def wrap_unit(value: Fraction) -> Fraction:
    """Reduce a rational into [0, 1)."""
    return value - (value.numerator // value.denominator)


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^r with exact rational coordinates in [0, 1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("torus points need dimension >= 1")
        object.__setattr__(
            self, "coords", tuple(wrap_unit(as_fraction(c)) for c in self.coords)
        )

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> "TorusPoint":
        return cls(tuple(as_fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def to_json(self) -> list[str]:
        return [fraction_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "TorusPoint":
        return cls.of(data)

    def __repr__(self) -> str:
        return "TorusPoint(" + ", ".join(fraction_str(c) for c in self.coords) + ")"


def _check_radius(eps: Fraction, name: str) -> None:
    # Radii beyond 1/2 wrap around the torus; refuse instead of clamping silently.
    if not (0 < eps <= Fraction(1, 2)):
        raise ValueError(f"{name} must lie in (0, 1/2], got {eps}")


@dataclass(frozen=True)
class Cylinder:
    """Box pinning the coordinates in index_set to within eta of the center.

    index_set holds 1-based coordinate indices.  Membership is strict:
    every pinned coordinate must satisfy dist(x_i, y_i) < eta.
    """

    dim: int
    index_set: tuple[int, ...]
    center: TorusPoint
    eta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", as_fraction(self.eta))
        object.__setattr__(self, "index_set", tuple(sorted(set(self.index_set))))
        _check_radius(self.eta, "eta")
        if self.center.dim != self.dim:
            raise ValueError("center dimension does not match cylinder dimension")
        for i in self.index_set:
            if not 1 <= i <= self.dim:
                raise ValueError(f"index {i} outside 1..{self.dim}")

    def orbit_contains(self, beta: Sequence[RationalLike], ns, e: int = 1) -> np.ndarray:
        """Whether each point ns^e * beta (one per row of ns) lies in the box, exactly."""
        if len(beta) != self.dim:
            raise ValueError("dimension mismatch")
        pinned = [i - 1 for i in self.index_set]
        ns = np.asarray(ns)
        return orbit_deviations(
            [beta[i] for i in pinned],
            [self.center.coords[i] for i in pinned],
            self.eta,
            ns if ns.ndim == 1 else ns[:, pinned],
            e,
        ) == 0

    def measure(self) -> Fraction:
        return (2 * self.eta) ** len(self.index_set)

    def normalized_value(self, x: TorusPoint) -> Fraction:
        """Value of the density (1/measure) * indicator at x."""
        if self.orbit_contains(x.coords, [1])[0]:
            return 1 / self.measure()
        return Fraction(0)


@dataclass(frozen=True)
class ApproxHammingBall:
    """Points x with at most k coordinates of center - x at distance >= eps.

    Needs 0 <= k < dim and eps in (0, 1/2].  Haar measure is the exact
    binomial tail sum_{j<=k} C(r,j) (1-2 eps)^j (2 eps)^(r-j).
    """

    center: TorusPoint
    k: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", as_fraction(self.eps))
        _check_radius(self.eps, "eps")
        if not 0 <= self.k < self.center.dim:
            raise ValueError(f"need 0 <= k < r, got k={self.k}, r={self.center.dim}")

    @property
    def dim(self) -> int:
        return self.center.dim

    def orbit_contains(self, beta: Sequence[RationalLike], ns, e: int = 1) -> np.ndarray:
        """Whether each point ns^e * beta (one per row of ns) lies in the ball, exactly."""
        return orbit_deviations(beta, self.center.coords, self.eps, ns, e) <= self.k

    def measure(self) -> Fraction:
        return binomial_tail(self.dim, self.k, self.eps)

    def to_json(self) -> dict:
        return {
            "r": self.dim,
            "y": self.center.to_json(),
            "k": self.k,
            "eps": fraction_str(self.eps),
        }


def binomial_tail(r: int, t: int, eps: Fraction) -> Fraction:
    """Haar measure of the points of T^r with at most t coordinates at distance >= eps from 0.

    Each coordinate deviates with probability 1 - 2 eps, independently,
    so the measure is sum_{j<=t} C(r, j) (1 - 2 eps)^j (2 eps)^(r - j);
    t = r gives the whole torus.
    """
    p_dev = 1 - 2 * eps
    return sum(comb(r, j) * p_dev**j * (2 * eps) ** (r - j) for j in range(t + 1))


def scan_blocks(start: int, stop: int) -> Iterator[np.ndarray]:
    """The multipliers start, ..., stop - 1 as int64 arrays of SCAN_BLOCK at most."""
    for lo in range(start, stop, SCAN_BLOCK):
        yield np.arange(lo, min(lo + SCAN_BLOCK, stop), dtype=np.int64)


def reduce_mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m, in place in the int64 array x, as x - (x // m) * m; returns x.

    numpy divides an integer array by a scalar with a multiply and a
    shift (division by an invariant integer), where ``x % m`` takes one
    hardware division per element.  Needs every x >= -2^62 and
    0 < m with (m - 1)^2 < 2^63, the int64 guard of ``orbit_residues``.
    Then (x // m) * m lies in (x - m, x], so it cannot overflow, and the
    difference is the residue in [0, m).
    """
    q = x // m
    q *= m
    x -= q
    return x


def orbit_residues(ns, e: int, num: int, modulus: int) -> np.ndarray:
    """ns^e * num mod modulus, elementwise and exactly, for e in {1, 2}.

    Residues are int64 when (modulus - 1)^2 < 2^63, so every product of
    two residues fits, and are reduced by ``reduce_mod`` in a copy of ns,
    whose int64 multipliers must then be at least -2^62; otherwise they
    are Python ints in an object array.
    """
    if e not in (1, 2):
        raise ValueError(f"orbit exponent must be 1 or 2, got {e}")
    num %= modulus
    if (modulus - 1) ** 2 >= 2**63:
        m = np.asarray(ns, dtype=object) % modulus
        if e == 2:
            m = m * m % modulus
        return m * num % modulus
    m = reduce_mod(np.array(ns, dtype=np.int64), modulus)
    if e == 2:
        m *= m
        reduce_mod(m, modulus)
    m *= num
    return reduce_mod(m, modulus)


def orbit_deviations(
    beta: Sequence[RationalLike],
    center: Sequence[RationalLike],
    eps: RationalLike,
    ns,
    e: int = 1,
) -> np.ndarray:
    """Per row of ns, how many i have ||ns_i^e * beta_i - center_i|| >= eps.

    ns is 1-D (one multiplier shared by every coordinate) or 2-D (one
    column per coordinate).  With Q the common denominator of beta_i,
    center_i and eps, the test is min(t, Q - t) >= eps * Q on the residue
    t of (n^e * beta_i - center_i) * Q, exactly as tests/oracles.py counts.
    With s the residue of n^e * beta_i * Q and c that of center_i * Q, the
    difference u = s - c lies in (-Q, Q), and min(t, Q - t) is
    min(|u|, Q - |u|), so no second reduction is needed.
    """
    eps, ns = as_fraction(eps), np.asarray(ns)
    if len(center) != len(beta) or ns.ndim not in (1, 2) or ns.shape[1:] not in ((), (len(beta),)):
        raise ValueError(f"multipliers of shape {ns.shape} do not fit {len(beta)} coordinates")
    count = np.zeros(len(ns), dtype=np.int64)
    for b, y, col in zip(beta, center, [ns] * len(beta) if ns.ndim == 1 else ns.T):
        b, y = as_fraction(b), as_fraction(y)
        big_q = math.lcm(b.denominator, y.denominator, eps.denominator)
        u = orbit_residues(col, e, b.numerator * (big_q // b.denominator), big_q)
        u -= y.numerator * (big_q // y.denominator) % big_q
        u = np.abs(u, out=u)
        count += np.minimum(u, big_q - u) >= eps.numerator * (big_q // eps.denominator)
    return count
