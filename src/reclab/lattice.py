"""Exact cyclic subgroups of Z_q^dim.

Every subgroup reclab builds is generated by one vector: the joining
base <(alpha, l^2 beta)> of ``joinings`` and the last coordinate axis
<e_d> of ``roth check``.  The cyclic subgroup <g> has order
q / gcd(q, g_1, ..., g_dim), and its elements are the multiples j*g mod q
for j below the order, each once.

Everything here is integer arithmetic; there are no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SubgroupModel"]

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class SubgroupModel:
    """The cyclic subgroup <generator> of Z_q^dim, dim = len(generator).

    The generator is held reduced mod q, so two models are equal exactly
    when their generators are congruent.
    """

    q: int
    generator: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "generator", tuple(int(a) % self.q for a in self.generator))

    @property
    def dim(self) -> int:
        return len(self.generator)

    def order(self) -> int:
        return self.q // math.gcd(self.q, *self.generator)

    def elements(self, cap: int = ENUMERATION_CAP) -> np.ndarray:
        """All elements as read-only rows, sorted lexicographically.

        Row j*g mod q for j below the order, then ``lexsort``.  A product
        j*g is below order * q, so int64 holds the rows when that is below
        2^63; Python integers (object dtype) do otherwise.
        """
        order = self.order()
        if order > cap:
            raise ValueError(f"order {order} exceeds enumeration cap {cap}")
        dtype = np.int64 if order * self.q < 2**63 else object
        steps = np.arange(order).astype(dtype)
        vecs = steps[:, None] * np.array(self.generator, dtype=dtype) % self.q
        if self.dim:  # Z_q^0 has one element and lexsort no key
            # lexsort takes its last key as the primary one
            vecs = vecs[np.lexsort(vecs.T[::-1])]
        vecs.flags.writeable = False
        return vecs
