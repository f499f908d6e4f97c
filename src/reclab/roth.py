"""Triple correlation forms on grid groups and quotient projections.

The central object is the progression form

    I(f0, f1, f2) = avg_{x, s} f0(x) f1(x + s) f2(x + 2s)

over Z_q^d, computed from the definition: in floats for complex grid
functions, and in integers for exact arrays.  The shifts s come in
blocks, in ``np.ndindex`` order.  For each shift of the outer axes f1
and f2 are rolled once; every shift along the last axis then comes at
once, as q-wide windows of the roll doubled along that axis (x + s) and
tripled along it, taken with stride 2 (x + 2s).  Row j of a block is
one shift, laid out like f0, and a block holds as many rows as fit in
``BLOCK_CELLS`` cells.  The tests check the form against the spectral
identity

    I = sum_n fhat0(n) fhat1(-2n) fhat2(n),

which holds on odd grids, where n -> -2n permutes the frequencies.

Projecting one slot of the form onto the functions invariant under a
cyclic subgroup K = <g> (``lattice.SubgroupModel``) is a Fourier
truncation to the annihilator of K, the frequencies n with n . g = 0
mod q, so the cost of projecting is controlled by the largest
coefficient outside the annihilator.  The projection averages over
cosets; the tests check it against the Fourier mask onto the
annihilator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .harmonic import GridFunction
from .lattice import SubgroupModel

__all__ = [
    "product_dtype",
    "quotient_gap_bound",
    "quotient_project",
    "roth_form",
    "roth_form_exact",
    "sum_dtype",
]

#: most cells in one block of shifts; a block holds at least one row
BLOCK_CELLS = 1 << 14

#: the exact integer dtypes of ``product_dtype``, narrowest first
_EXACT_INTS = (np.int8, np.int16, np.int32, np.int64)


def _check_triple(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> None:
    if not (f0.dim == f1.dim == f2.dim and f0.q == f1.q == f2.q):
        raise ValueError("all three functions must live on the same grid")


def _shift_blocks(a1: np.ndarray, a2: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows of a1 at x + s, rows of a2 at x + 2s) for blocks of shifts s.

    The shifts run in ``np.ndindex`` order; both blocks have the shape
    (rows,) + a1.shape and are read-only views of one roll of the outer
    axes, doubled (a1) or tripled (a2) along the last axis.
    """
    q = a1.shape[-1]
    outer = tuple(range(a1.ndim - 1))
    doubled = np.concatenate([a1, a1], axis=-1)
    tripled = np.concatenate([a2, a2, a2], axis=-1)
    rows = max(1, min(q, BLOCK_CELLS // a1.size))
    for s in np.ndindex(*a1.shape[:-1]):
        r1 = np.roll(doubled, [-a for a in s], axis=outer)
        r2 = np.roll(tripled, [-2 * a for a in s], axis=outer)
        # row t starts t cells (x + t) or 2t cells (x + 2t) along the last axis
        w1 = as_strided(r1, (q,) + a1.shape, r1.strides[-1:] + r1.strides, writeable=False)
        w2 = as_strided(r2, (q,) + a2.shape, (2 * r2.strides[-1],) + r2.strides, writeable=False)
        for t in range(0, q, rows):
            yield w1[t : t + rows], w2[t : t + rows]


def roth_form(f0: GridFunction, f1: GridFunction, f2: GridFunction) -> complex:
    """The progression form avg_{x,s} f0(x) f1(x+s) f2(x+2s), from the definition.

    Each block is multiplied left to right into fresh, C-ordered arrays,
    and the mean of each row is added to the total one row at a time, in
    shift order: every term is the mean of f0 * f1(. + s) * f2(. + 2s)
    over a contiguous grid, as a loop over the shifts would take it.
    """
    _check_triple(f0, f1, f2)
    q, dim = f0.q, f0.dim
    total = 0j
    for w1, w2 in _shift_blocks(f1.values, f2.values):
        rows, order = len(w1), "C"
        if rows == 1:
            # one shift, multiplied as a plain product in f0's shape: numpy
            # rounds a broadcast or C-ordered single-cell complex product
            # (q = 1) with another loop
            w1, w2, order = w1[0], w2[0], "K"
        first = np.multiply(f0.values, w1, order=order)
        prod = np.multiply(first, w2, order=order)
        for mean in prod.reshape(rows, -1).mean(axis=1):
            total += mean
    return complex(total / q**dim)


def product_dtype(size: int, *factors: np.ndarray) -> type:
    """The narrowest exact dtype for a sum of size products, one entry of each factor.

    One product is at most P = max|a| * ... over the factors, each max|a|
    taken as at least 1 (so an int8 -128 counts as 128).  The dtype is
    the narrowest of int8, int16, int32 and int64 that holds P, when
    size * P < 2^62; object (Python integers) otherwise.  The products
    fit the dtype; their sums are taken in int64 (``sum_dtype``).
    """
    bound = 1
    for a in factors:
        # max |a| without an abs() temporary, and exact even for the int64 minimum
        bound *= max(int(a.max()), -int(a.min()), 1)
    if size * bound >= 2**62:
        return object
    return next(t for t in _EXACT_INTS if bound <= np.iinfo(t).max)


def sum_dtype(dtype) -> type:
    """The accumulator of products in ``dtype``: int64, or object for Python integers."""
    return object if np.dtype(dtype) == object else np.int64


def roth_form_exact(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> Fraction:
    """The progression form for integer or rational arrays, no floats anywhere.

    The arrays are scaled to integers, each by its own common
    denominator; the products are taken in the ``product_dtype`` of the
    three, summed per shift in int64 (Python integers past its bound),
    and one Fraction is built at the end.
    """
    if not (a0.shape == a1.shape == a2.shape):
        raise ValueError("shape mismatch")
    (i0, d0), (i1, d1), (i2, d2) = (_integer_scaled(a) for a in (a0, a1, a2))
    dtype = product_dtype(a0.size, i0, i1, i2)
    i0, i1, i2 = (a.astype(dtype, copy=False) for a in (i0, i1, i2))
    total = 0
    for w1, w2 in _shift_blocks(i1, i2):
        prod = np.multiply(i0, w1, order="C")
        prod *= w2
        # one row is one shift, within the bound; the rows are added in Python
        total += sum(prod.reshape(len(prod), -1).sum(axis=1, dtype=sum_dtype(dtype)).tolist())
    return Fraction(total, d0 * d1 * d2 * a0.size**2)


def _integer_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(integers, den) with integers / den == values; integer dtypes come back as they are."""
    if values.dtype == bool or np.issubdtype(values.dtype, np.integer):
        return values, 1
    fracs = [Fraction(v) for v in values.astype(object).flat]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    return np.array(ints, dtype=object).reshape(values.shape), den


# ---- quotient projections ----


def _annihilator_mask(subgroup: SubgroupModel) -> np.ndarray:
    """Boolean grid, true at the frequencies whose characters are trivial on the subgroup.

    A frequency n is in the annihilator of <g> when n . g = 0 mod q.
    Both factors are below q and the q^dim cells are held in memory, so
    the dot products stay far inside int64.
    """
    freqs = np.indices((subgroup.q,) * subgroup.dim)
    g = np.array(subgroup.generator, dtype=np.int64)
    return np.tensordot(g, freqs, axes=(0, 0)) % subgroup.q == 0


def quotient_project(f: GridFunction, subgroup: SubgroupModel) -> GridFunction:
    """Average f over cosets of the subgroup: the invariant part of f."""
    if (subgroup.dim, subgroup.q) != (f.dim, f.q):
        raise ValueError("subgroup must live on the same grid as f")
    acc = np.zeros_like(f.values)
    elems = subgroup.elements().tolist()
    outer = tuple(range(f.dim - 1))
    doubled = np.concatenate([f.values, f.values], axis=-1)
    prefix = None
    for k in elems:
        # elements() is sorted, so one roll of the outer axes serves every
        # element with the same outer coordinates; the last is a window
        if k[:-1] != prefix:
            prefix = k[:-1]
            rolled = np.roll(doubled, [-a for a in prefix], axis=outer)
        acc += rolled[..., k[-1] : k[-1] + f.q]
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
    # Python's complex abs: np.abs rounds some moduli to a neighbouring double
    outside = h2[~_annihilator_mask(subgroup)].tolist()
    kappa = max(map(abs, outside), default=0.0)
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
