"""Characters and Fourier coefficients on tori and on cyclic grids.

Two function models appear side by side.  Trigonometric polynomials on T^r
are finitely supported coefficient tables indexed by integer frequency
vectors; their L2 theory is exact through the coefficients.  Grid
functions live on Z_q^d with normalized counting measure and are handled
by a DFT whose convention matches the continuous one:

    fhat(n) = q^(-d) * sum_x f(x) e(-n.x / q),      f(x) = sum_n fhat(n) e(n.x / q)

so Plancherel reads sum |fhat|^2 = q^(-d) sum |f|^2 and the hat of the
normalized convolution (1/q^d) sum_t f(t) g(x - t) is the pointwise
product.

The Fourier coefficient of the normalized indicator of a cylinder box has
a closed form: coordinates outside the pinned set integrate a full
character (zero unless that frequency vanishes), pinned ones contribute
e(-n_i y_i) sin(2 pi n_i eta) / (2 pi n_i eta).  This makes certain
coefficients vanish *structurally*, i.e. by the integer support pattern
alone, and those zeros are asserted without floating point.  Only the
zero pattern is library code; the sinc values, the convolution and the
Plancherel gap are computed by the tests' oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .torus import ApproxHammingBall, Cylinder

@dataclass(frozen=True)
class Character:
    """Character x -> e(sum n_i x_i) of T^r, given by its frequency vector."""

    freq: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "freq", tuple(int(n) for n in self.freq))
        if len(self.freq) == 0:
            raise ValueError("characters need dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.freq)

    @property
    def trivial(self) -> bool:
        return all(n == 0 for n in self.freq)


class CoefficientTable:
    """Finitely supported map Character -> complex coefficient on T^r."""

    def __init__(self, dim: int, entries: Mapping[Character, complex] | None = None):
        if dim < 1:
            raise ValueError("dimension >= 1 required")
        self.dim = dim
        self._data: dict[Character, complex] = {}
        if entries:
            for chi, v in entries.items():
                self[chi] = v

    def __getitem__(self, chi: Character) -> complex:
        return self._data.get(chi, 0j)

    def __setitem__(self, chi: Character, value: complex) -> None:
        if chi.dim != self.dim:
            raise ValueError("dimension mismatch")
        v = complex(value)
        if v == 0:
            self._data.pop(chi, None)
        else:
            self._data[chi] = v

    def __iter__(self):
        return iter(self._data.items())

    def __len__(self) -> int:
        return len(self._data)


# ---- cylinder coefficients ----


def cylinder_coefficient_is_structural_zero(cyl: Cylinder, chi: Character) -> bool:
    """True when the coefficient vanishes by support pattern alone.

    Any nonzero frequency on a coordinate outside the pinned set
    integrates a full nontrivial character, so the product is exactly 0.
    """
    if chi.dim != cyl.dim:
        raise ValueError("dimension mismatch")
    pinned = set(cyl.index_set)
    return any(n != 0 and (i + 1) not in pinned for i, n in enumerate(chi.freq))


# ---- top-k selection ----


def top_k_characters(
    hat: np.ndarray, k: int, norm_bound: float, split: int
) -> tuple[list[Character], float]:
    """The k largest |coefficient| modes of a grid spectrum, and the residual sup.

    The modes of the coefficient array ``hat`` with np.abs(hat) > 1e-12 and
    a centered frequency nonzero on the axes from ``split`` on are ranked
    by Python's abs, largest first, then by frequency tuple, smallest first.
    np.abs preselects those within a few ulps of the (k+1)-th largest, so
    only they are ranked in Python and only the k chosen become Characters.
    Every excluded mode has |coeff| < norm_bound / sqrt(k); the sharper
    bound norm_bound / sqrt(1 + k) is asserted as well.  Both follow from
    Plancherel when norm_bound really dominates the L2 norm.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    q = hat.shape[0]
    mag = np.abs(hat)
    live = mag > 1e-12
    live[(slice(None),) * split + (0,) * (hat.ndim - split)] = False
    flat = np.flatnonzero(live)
    size = mag.ravel()[flat]
    if flat.size > k + 1:
        # np.abs and Python's abs of one complex differ by a few ulps at most
        cut = np.partition(size, flat.size - k - 1)[flat.size - k - 1]
        flat = flat[size >= cut * (1 - 8 * np.finfo(float).eps)]
    # the centered residue of each index, n - q on the upper half
    index = np.unravel_index(flat, hat.shape)
    freqs = zip(*(np.where(2 * i > q, i - q, i).tolist() for i in index))
    entries = sorted(zip(hat.ravel()[flat].tolist(), freqs), key=lambda e: (-abs(e[0]), e[1]))
    residual = abs(entries[k][0]) if len(entries) > k else 0.0
    if residual >= norm_bound / math.sqrt(k) + 1e-12:
        raise ValueError(
            f"residual {residual} violates norm_bound/sqrt(k); is the norm bound valid?"
        )
    if residual >= norm_bound / math.sqrt(1 + k) + 1e-12:
        raise ValueError(f"residual {residual} violates the sharper norm_bound/sqrt(1+k) bound")
    return [Character(freq) for _, freq in entries[:k]], residual


# ---- annihilating cylinders ----


def annihilating_cylinder(
    ball: ApproxHammingBall, chars: Sequence[Character]
) -> Cylinder:
    """A box on r - k coordinates killing every listed character's coefficient.

    For each character, drop its smallest-index nonzero coordinate; if the
    drops collide, remove the largest still-pinned indices until exactly k
    coordinates are free.  Every translate of the result keeps the zeros,
    since translation only multiplies coefficients by a phase.
    """
    r, k = ball.dim, ball.k
    if len(chars) > k:
        raise ValueError(f"at most k={k} characters can be annihilated, got {len(chars)}")
    removed: set[int] = set()
    for chi in chars:
        if chi.dim != r:
            raise ValueError("character dimension mismatch")
        if chi.trivial:
            raise ValueError("cannot annihilate the trivial character")
        idx = next(i + 1 for i, n in enumerate(chi.freq) if n != 0)
        removed.add(idx)
    # pad with the largest surviving indices so |I| = r - k exactly
    for i in range(r, 0, -1):
        if len(removed) == k:
            break
        removed.add(i)
    index_set = tuple(i for i in range(1, r + 1) if i not in removed)
    cyl = Cylinder(dim=r, index_set=index_set, center=ball.center, eta=ball.eps)
    for chi in chars:
        assert cylinder_coefficient_is_structural_zero(cyl, chi)
    return cyl


# ---- grid functions ----

_DIRECT_DFT_LIMIT = 4096


@dataclass
class GridFunction:
    """Complex function on Z_q^d, stored as a (q, ..., q) array."""

    dim: int
    q: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.q < 1 or self.dim < 1:
            raise ValueError("need q >= 1 and dim >= 1")
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.q,) * self.dim:
            raise ValueError(f"values must have shape {(self.q,) * self.dim}")
        self.values = arr

    def size(self) -> int:
        return self.q**self.dim

    def norm_sq(self) -> float:
        """Squared L2 norm under normalized counting measure."""
        return float(np.mean(np.abs(self.values) ** 2))

    def dft(self) -> "GridFunction":
        """Coefficient array fhat(n) = q^(-d) sum f(x) e(-n.x/q)."""
        if self.size() <= _DIRECT_DFT_LIMIT:
            out = self.values
            kernel = _dft_kernel(self.q)
            for axis in range(self.dim):
                out = np.tensordot(out, kernel, axes=([0], [1]))
            # tensordot cycles axes; after dim applications order is restored
            return GridFunction(self.dim, self.q, out / self.size())
        return GridFunction(self.dim, self.q, np.fft.fftn(self.values) / self.size())

    def spectrum_table(self) -> np.ndarray:
        """The spectrum as the coefficient array of ``dft``, for ``top_k_characters``."""
        return self.dft().values


@functools.lru_cache(maxsize=4)
def _dft_kernel(q: int) -> np.ndarray:
    """The matrix e(-j k / q), built once per q and shared read-only."""
    j = np.arange(q)
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / q)
    kernel.flags.writeable = False
    return kernel


def centered_residue(n: int, q: int) -> int:
    """Representative of n mod q in (-q/2, q/2]."""
    m = n % q
    return m - q if 2 * m > q else m
