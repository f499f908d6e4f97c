"""Reference code that only the tests call.

The per-n loop that ``weyl.triple_integrals`` replaced on the grid
models, and the weyl helpers nothing in the library uses: the grid model
of a rational system, the unweighted average, and the observable range
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from reclab.harmonic import CoefficientTable, GridFunction
from reclab.weyl import GridWeylModel, WeylSystem, weighted_average


def triple_integrals_per_n(model, f, n_values: Iterable[int]) -> list:
    """One ``model.triple_integral`` per requested n, in request order."""
    return [model.triple_integral(f, int(n)) for n in n_values]


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


def l3_average(model, f, n_max: int | None = None, checkpoints: Sequence[int] | None = None):
    """The unweighted correlation average, with its closed form attached.

    Equivalent to weighted_average with the constant weight; on a grid
    model with generating rotation part and n_max one full period, the
    rotation-model value matches the closed form exactly.
    """
    return weighted_average(model, f, n_max=n_max, checkpoints=checkpoints)


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
