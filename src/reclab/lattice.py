"""Exact subgroup models of Z_q^m via integer lattice normal forms.

A subgroup of Z_q^m generated by integer vectors is the image of the
lattice L = span_Z(generators) + q*Z^m.  The Hermite normal form of L
is a canonical upper-triangular basis whose pivots divide q, which
makes equal subgroups equal models and gives the exact order q^m / det
and duplicate free enumeration by mixed-radix combinations of basis rows.
The Smith normal form supplies a solver for linear systems mod q, used
to extend characters from a subgroup to the full group.

Everything here is integer arithmetic; there are no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SubgroupModel",
    "ext_gcd",
    "hermite_normal_form",
    "smith_normal_form",
    "solve_linear_mod",
]

ENUMERATION_CAP = 10**6


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
class SubgroupModel:
    """A subgroup of Z_q^m held as a canonical Hermite basis.

    Two models are equal exactly when they describe the same subgroup,
    because the reduced Hermite form is unique.
    """

    q: int
    dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(
        cls, q: int, dim: int, generators: Iterable[Sequence[int]]
    ) -> "SubgroupModel":
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

    def elements(self, cap: int = ENUMERATION_CAP) -> list[tuple[int, ...]]:
        """All elements, sorted; mixed-radix combinations of basis rows.

        Every combination comes at once: the mixed-radix digits
        ``np.indices(radices)`` times the basis, reduced mod q, then
        sorted by ``lexsort``.  Digits and basis entries are at most q,
        so int64 holds the products when dim * q^2 < 2^63; Python
        integers do otherwise.
        """
        order = self.order()
        if order > cap:
            raise ValueError(f"order {order} exceeds enumeration cap {cap}")
        radices = [self.q // row[i] for i, row in enumerate(self.basis)]
        dtype = np.int64 if self.dim * self.q**2 < 2**63 else object
        digits = np.indices(radices).reshape(self.dim, order).T.astype(dtype)
        basis = np.array(self.basis, dtype=dtype).reshape(self.dim, self.dim)
        vecs = digits @ basis % self.q
        if self.dim:  # Z_q^0 has one element and lexsort no key
            # lexsort takes its last key as the primary one
            vecs = vecs[np.lexsort(vecs.T[::-1])]
        return list(map(tuple, vecs.tolist()))
