"""Triple correlation forms on grid groups and quotient projections.

The central object is the progression form

    I(f0, f1, f2) = avg_{x, s} f0(x) f1(x + s) f2(x + 2s)

over Z_q^d, computed from the definition: in floats for complex grid
functions, and in integers for exact arrays.  The tests check it
against the spectral identity

    I = sum_n fhat0(n) fhat1(-2n) fhat2(n),

which holds on odd grids, where n -> -2n permutes the frequencies.

Projecting one slot of the form onto the functions invariant under a
subgroup K is a Fourier truncation to the annihilator of K, so the cost
of projecting is controlled by the largest coefficient outside the
annihilator.  The projection averages over cosets; the tests check it
against the Fourier mask onto the annihilator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .harmonic import GridFunction
from .lattice import SubgroupModel

__all__ = [
    "annihilator_contains",
    "quotient_gap_bound",
    "quotient_project",
    "roth_form",
    "roth_form_exact",
]


def _check_triple(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> None:
    if not (f0.dim == f1.dim == f2.dim and f0.q == f1.q == f2.q):
        raise ValueError("all three functions must live on the same grid")


def _roll_to(values: np.ndarray, shift: Sequence[int]) -> np.ndarray:
    """Array a with a[x] = values[x + shift]."""
    return np.roll(values, shift=tuple(-int(s) for s in shift), axis=tuple(range(values.ndim)))


def roth_form(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> complex:
    """The progression form avg_{x,s} f0(x) f1(x+s) f2(x+2s), from the definition."""
    _check_triple(f0, f1, f2)
    q, dim = f0.q, f0.dim
    total = 0j
    for s in np.ndindex(*(q,) * dim):
        term = f0.values * _roll_to(f1.values, s) * _roll_to(f2.values, [2 * a for a in s])
        total += term.mean()
    return complex(total / q**dim)


def roth_form_exact(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> Fraction:
    """The progression form for integer or rational arrays, no floats anywhere.

    The shifts s are summed on the arrays scaled to Python integers; one
    Fraction is built at the end.
    """
    if not (a0.shape == a1.shape == a2.shape):
        raise ValueError("shape mismatch")
    (i0, d0), (i1, d1), (i2, d2) = (_integer_scaled(a) for a in (a0, a1, a2))
    total = 0
    for s in np.ndindex(*a0.shape):
        total += int((i0 * _roll_to(i1, s) * _roll_to(i2, [2 * a for a in s])).sum())
    return Fraction(total, d0 * d1 * d2 * a0.size**2)


def _integer_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(integers, den) with integers / den == values, as Python ints in an object array."""
    fracs = [Fraction(v) for v in values.astype(object).flat]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    return np.array(ints, dtype=object).reshape(values.shape), den


# ---- quotient projections ----


def annihilator_contains(subgroup: SubgroupModel, freq: Sequence[int]) -> bool:
    """Whether the character with this frequency is trivial on the subgroup."""
    if len(freq) != subgroup.dim:
        raise ValueError("frequency width must match the subgroup ambient")
    q = subgroup.q
    return all(
        sum(n * k for n, k in zip(freq, row)) % q == 0 for row in subgroup.basis
    )


def quotient_project(f: GridFunction, subgroup: SubgroupModel) -> GridFunction:
    """Average f over cosets of the subgroup: the invariant part of f."""
    if (subgroup.dim, subgroup.q) != (f.dim, f.q):
        raise ValueError("subgroup must live on the same grid as f")
    acc = np.zeros_like(f.values)
    elems = subgroup.elements()
    for k in elems:
        acc += _roll_to(f.values, k)
    return GridFunction(f.dim, f.q, acc / len(elems))


def quotient_gap_bound(
    f0: GridFunction,
    f1: GridFunction,
    f2: GridFunction,
    subgroup: SubgroupModel,
) -> dict:
    """How much projecting the last slot moves the form, with its bound.

    kappa is the largest |fhat2| outside the annihilator of the subgroup;
    by Cauchy-Schwarz on the spectral identity the move is at most
    kappa * ||f0||_2 * ||f1||_2.  Odd grids only, since the identity's
    frequency pairing must be a permutation for the norms to match.
    """
    _check_triple(f0, f1, f2)
    if f0.q % 2 == 0:
        raise ValueError(f"gap bound needs an odd grid, got q={f0.q}")
    if (subgroup.dim, subgroup.q) != (f0.dim, f0.q):
        raise ValueError("subgroup must live on the same grid")
    h2 = f2.dft().values
    kappa = 0.0
    for idx in np.ndindex(*h2.shape):
        if not annihilator_contains(subgroup, idx):
            kappa = max(kappa, abs(complex(h2[idx])))
    bound = kappa * math.sqrt(f0.norm_sq() * f1.norm_sq())
    form = roth_form(f0, f1, f2)
    projected_form = roth_form(f0, f1, quotient_project(f2, subgroup))
    return {
        "kappa": kappa,
        "bound": bound,
        "form": form,
        "projected_form": projected_form,
        "gap": abs(form - projected_form),
    }
