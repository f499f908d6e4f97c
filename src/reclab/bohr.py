"""Bohr-Hamming sets of integers and their square-root sets.

A rational frequency vector beta in T^r turns integer multiplication
into a finite rotation n -> n*beta mod 1.  The Bohr-Hamming ball
attached to beta and an approximate Hamming ball U collects the
integers whose multiple lands in U; the square-root set collects the
integers whose square does.  Membership is decided on integer residues
by torus.orbit_deviations, so every enumeration in this module is an
exact statement about the rational model rather than a float
approximation.

Irrational frequencies are represented by continued-fraction
convergents p/q with q up to 2**62; density diagnostics then require
the horizon N to stay well below q so the rational model is still
equidistributing at the scale being sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .torus import ApproxHammingBall, TorusPoint, orbit_deviations, scan_blocks

__all__ = [
    "CONVERGENT_DENOMINATOR_CAP",
    "BohrHammingBall",
    "DensityReport",
    "EnumerationResult",
    "Frequency",
    "continued_fraction_convergents",
    "convergent_frequency",
    "density_vs_measure",
    "dilate",
    "dilate_divide",
    "named_convergent",
    "set_enumerate",
    "set_from_json",
    "set_to_json",
    "sqrt_set_enumerate",
    "square_set",
]

CONVERGENT_DENOMINATOR_CAP = 2**62


@dataclass(frozen=True)
class Frequency:
    """A rational frequency vector with its common denominator.

    The generating flag records the caller's intent that this vector
    stands in for a generator of T^r (typically a convergent of an
    irrational target).  It gates the density diagnostics, which are
    meaningless for a frequency that visits only a few points.
    """

    beta: TorusPoint
    generating: bool = False
    q: int = field(init=False)
    numerators: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        q = math.lcm(*(c.denominator for c in self.beta.coords))
        nums = tuple(int(c * q) for c in self.beta.coords)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "numerators", nums)

    @classmethod
    def of(cls, *coords, generating: bool = False) -> "Frequency":
        return cls(TorusPoint.of(coords), generating=generating)

    @property
    def dim(self) -> int:
        return self.beta.dim

    def multiple(self, n: int) -> TorusPoint:
        """n*beta reduced mod 1, computed exactly."""
        return self.beta.scale(n)

    def scale(self, m: int) -> "Frequency":
        """The frequency m*beta mod 1.

        The generating flag survives only when gcd(m, q) = 1, since the
        scaled vector then visits exactly the same finite orbit.
        """
        if m == 0:
            raise ValueError("scaling a frequency by zero collapses it to a point")
        keep = self.generating and math.gcd(m, self.q) == 1
        return Frequency(self.beta.scale(m), generating=keep)


@dataclass(frozen=True)
class BohrHammingBall:
    """Integers n with n*beta inside a fixed approximate Hamming ball.

    Membership is decided by torus.orbit_deviations on integer residues:
    n*beta lies in the ball when at most k coordinates of n*beta - y sit
    at circular distance >= eps.
    """

    freq: Frequency
    ball: ApproxHammingBall

    def __post_init__(self):
        if self.freq.dim != self.ball.dim:
            raise ValueError(
                f"frequency dim {self.freq.dim} does not match ball dim {self.ball.dim}"
            )

    @property
    def dim(self) -> int:
        return self.freq.dim

    @property
    def proper(self) -> bool:
        return self.freq.generating

    def contains(self, n: int) -> bool:
        """Whether n*beta lies in the ball (at most k deviating coordinates)."""
        return bool(self._inside(np.asarray([n]), 1)[0])

    def _inside(self, ns: np.ndarray, e: int) -> np.ndarray:
        beta, ball = self.freq.beta, self.ball
        return orbit_deviations(beta.coords, ball.center.coords, ball.eps, ns, e) <= ball.k


class EnumerationResult(NamedTuple):
    elems: list[int]
    density: Fraction


class DensityReport(NamedTuple):
    density: Fraction
    measure: Fraction
    gap: float


def _enumerate(bh: BohrHammingBall, n_max: int, e: int) -> EnumerationResult:
    if n_max < 1:
        raise ValueError("enumeration horizon must be at least 1")
    elems: list[int] = []
    for ns in scan_blocks(1, n_max + 1):
        elems.extend(ns[bh._inside(ns, e)].tolist())
    return EnumerationResult(elems, Fraction(len(elems), n_max))


def set_enumerate(bh: BohrHammingBall, n_max: int) -> EnumerationResult:
    """All n in [1, n_max] with n*beta in the ball, plus their density."""
    return _enumerate(bh, n_max, 1)


def sqrt_set_enumerate(bh: BohrHammingBall, n_max: int) -> EnumerationResult:
    """All n in [1, n_max] with n^2*beta in the ball, plus their density."""
    return _enumerate(bh, n_max, 2)


def dilate(elems: Iterable[int], m: int) -> list[int]:
    """The dilated set {m*s : s in elems}, sorted."""
    if m == 0:
        raise ValueError("dilation by zero is not invertible")
    return sorted(m * s for s in set(elems))


def dilate_divide(elems: Iterable[int], m: int) -> list[int]:
    """The quotient set {n : m*n in elems}, sorted."""
    if m == 0:
        raise ValueError("division of a set by zero is not defined")
    return sorted(s // m for s in set(elems) if s % m == 0)


def square_set(elems: Iterable[int]) -> list[int]:
    """The set of squares {s*s : s in elems}, sorted without duplicates."""
    return sorted({s * s for s in elems})


def density_vs_measure(bh: BohrHammingBall, n_max: int) -> DensityReport:
    """Empirical square-root-set density against the exact ball measure.

    Purely diagnostic: equidistribution makes the two agree in the
    limit, but no tolerance is enforced here.  Requires a generating
    frequency, n_max >= 1000 for a meaningful sample, and
    n_max <= q/100 so the finite rational orbit has not wrapped into
    visibly periodic behaviour over the sampled range.
    """
    if not bh.proper:
        raise ValueError("density diagnostics need a frequency with generating intent")
    if n_max < 1000:
        raise ValueError("density diagnostics need a horizon of at least 1000")
    if 100 * n_max > bh.freq.q:
        raise ValueError(
            f"horizon {n_max} too close to denominator {bh.freq.q}; need n_max <= q/100"
        )
    _, density = sqrt_set_enumerate(bh, n_max)
    measure = bh.ball.measure()
    return DensityReport(density, measure, float(abs(density - measure)))


def continued_fraction_convergents(
    digits: Iterable[int], q_cap: int = CONVERGENT_DENOMINATOR_CAP
) -> list[Fraction]:
    """Convergents p/q of a continued fraction, stopping once q exceeds q_cap.

    Accepts finite digit sequences or infinite generators; the cap
    guarantees termination either way.
    """
    out: list[Fraction] = []
    p_prev, q_prev = 0, 1
    p_cur, q_cur = 1, 0
    for a in digits:
        if a < 1 and q_cur > 0:
            raise ValueError("continued fraction digits past the first must be >= 1")
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
        if q_cur > q_cap:
            break
        out.append(Fraction(p_cur, q_cur))
    return out


def _named_digits(name: str) -> Iterator[int]:
    if name == "sqrt2":
        yield 1
        while True:
            yield 2
    elif name == "sqrt3":
        yield 1
        while True:
            yield 1
            yield 2
    elif name == "golden":
        while True:
            yield 1
    else:
        raise ValueError(f"unknown target {name!r}; built-ins are sqrt2, sqrt3, golden")


def named_convergent(name: str, q_cap: int = CONVERGENT_DENOMINATOR_CAP) -> Fraction:
    """The largest-denominator convergent of a built-in target with q <= q_cap."""
    cs = continued_fraction_convergents(_named_digits(name), q_cap)
    if not cs:
        raise ValueError(f"denominator cap {q_cap} admits no convergent of {name}")
    return cs[-1]


def convergent_frequency(
    names: Sequence[str],
    q_cap: int = CONVERGENT_DENOMINATOR_CAP,
    generating: bool = True,
) -> Frequency:
    """A frequency whose coordinates are built-in convergents, reduced mod 1."""
    coords = [named_convergent(name, q_cap) for name in names]
    return Frequency.of(*coords, generating=generating)


def set_to_json(elems: Iterable[int], horizon: int) -> dict:
    """Serialize an integer set as {N, elems} with [start, length] runs."""
    runs: list[list[int]] = []
    for x in sorted(set(elems)):
        if runs and x == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return {"N": horizon, "elems": runs}


def set_from_json(payload: dict) -> tuple[list[int], int]:
    """Inverse of set_to_json; returns (elements, horizon)."""
    elems: list[int] = []
    for start, length in payload["elems"]:
        elems.extend(range(start, start + length))
    return elems, payload["N"]
