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
convergents p/q with q up to CONVERGENT_DENOMINATOR_CAP unless a cap is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .torus import ApproxHammingBall, TorusPoint, scan_blocks

__all__ = [
    "CONVERGENT_DENOMINATOR_CAP",
    "BohrHammingBall",
    "EnumerationResult",
    "continued_fraction_convergents",
    "named_convergent",
    "set_enumerate",
    "set_to_json",
    "sqrt_set_enumerate",
]

#: the cap of a bare ``sqrt2`` on the command line and of ``{"convergent": "sqrt2"}``
CONVERGENT_DENOMINATOR_CAP = 10**9


@dataclass(frozen=True)
class BohrHammingBall:
    """Integers n with n*beta inside a fixed approximate Hamming ball.

    freq is the frequency vector beta.  Membership is decided by the
    ball's orbit_contains on integer residues: n*beta lies in the ball
    when at most k coordinates of n*beta - y sit at circular distance
    >= eps.
    """

    freq: TorusPoint
    ball: ApproxHammingBall

    def __post_init__(self):
        if self.freq.dim != self.ball.dim:
            raise ValueError(
                f"frequency dim {self.freq.dim} does not match ball dim {self.ball.dim}"
            )


class EnumerationResult(NamedTuple):
    elems: list[int]
    density: Fraction


def _enumerate(bh: BohrHammingBall, n_max: int, e: int) -> EnumerationResult:
    if n_max < 1:
        raise ValueError("enumeration horizon must be at least 1")
    elems: list[int] = []
    for ns in scan_blocks(1, n_max + 1):
        elems.extend(ns[bh.ball.orbit_contains(bh.freq.coords, ns, e)].tolist())
    return EnumerationResult(elems, Fraction(len(elems), n_max))


def set_enumerate(bh: BohrHammingBall, n_max: int) -> EnumerationResult:
    """All n in [1, n_max] with n*beta in the ball, plus their density."""
    return _enumerate(bh, n_max, 1)


def sqrt_set_enumerate(bh: BohrHammingBall, n_max: int) -> EnumerationResult:
    """All n in [1, n_max] with n^2*beta in the ball, plus their density."""
    return _enumerate(bh, n_max, 2)


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


def set_to_json(elems: Iterable[int], horizon: int) -> dict:
    """Serialize an integer set as {N, elems} with [start, length] runs."""
    runs: list[list[int]] = []
    for x in sorted(set(elems)):
        if runs and x == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return {"N": horizon, "elems": runs}
