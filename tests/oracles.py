"""Reference code that only the tests call.

The per-n loop that ``weyl.triple_integrals`` replaced on the grid
models, and the weyl helpers nothing in the library uses: the grid model
of a rational system, the unweighted average, and the observable range
check.  For the certificates: the one-draw band-disjointness probe that
``certificates.sample_band_disjointness`` replaced with row blocks, the
band-measure probe, and the product bitset rebuilt from a certificate's
recorded factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from reclab.bohr import Frequency
from reclab.certificates import BandWitness, Certificate, band_return_bitset
from reclab.harmonic import CoefficientTable, GridFunction
from reclab.torus import ApproxHammingBall, TorusPoint
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


# ---------------------------------------------------------------------------
# certificates


def _exact_point(row: np.ndarray) -> TorusPoint:
    return TorusPoint.of([Fraction(float(v)) for v in row])


def sample_band_measure(
    witness: BandWitness, samples: int = 1_000_000, seed: int = 2026
) -> Fraction:
    """Empirical frequency of E under uniform sampling.

    Rows are classified with float comparisons; any row with a
    coordinate within 1e-9 of the band edge is reclassified exactly,
    so the returned count is free of float boundary artifacts.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    a_f = float(witness.a)
    hits = 0
    remaining = samples
    chunk_rows = max(1, 4_000_000 // witness.r)
    while remaining:
        n = min(remaining, chunk_rows)
        remaining -= n
        x = rng.random((n, witness.r))
        dist = np.minimum(x, 1.0 - x)
        w = (dist >= a_f).sum(axis=1)
        near_edge = (np.abs(dist - a_f) < 1e-9).any(axis=1)
        hits += int(((w <= witness.t) & ~near_edge).sum())
        for i in np.flatnonzero(near_edge):
            if witness.contains(_exact_point(x[i])):
                hits += 1
    return Fraction(hits, samples)


def sample_band_disjointness_one_draw(
    witness: BandWitness,
    ball: ApproxHammingBall,
    samples: int = 100_000,
    seed: int = 2026,
) -> int:
    """``sample_band_disjointness`` drawing each round's rows at once."""
    if ball.dim != witness.r:
        raise ValueError("witness and ball dimensions differ")
    rng = np.random.default_rng(seed)
    r = witness.r
    a_f = float(witness.a)
    eps_f = float(ball.eps)
    accept = float(witness.measure())
    chunk_rows = max(1, 4_000_000 // r)
    violations = 0
    produced = 0
    rounds = 0
    while produced < samples:
        rounds += 1
        if rounds > 500:
            raise RuntimeError("band acceptance rate too low for sampling")
        want = samples - produced
        draw = min(chunk_rows, int(want / max(accept, 1e-6) * 1.25) + 64)
        x = rng.random((draw, r))
        wx = (np.minimum(x, 1.0 - x) >= a_f).sum(axis=1)
        x = x[wx <= witness.t][:want]
        n = len(x)
        if n == 0:
            continue
        produced += n
        u = 0.5 + (rng.random((n, r)) * 2.0 - 1.0) * eps_f * (1.0 - 1e-12)
        if ball.k:
            order = rng.random((n, r)).argsort(axis=1)[:, : ball.k]
            u[np.arange(n)[:, None], order] = rng.random((n, ball.k))
        total = x + u
        total -= total >= 1.0
        dist = np.minimum(total, 1.0 - total)
        w_sum = (dist >= a_f + 1e-9).sum(axis=1)
        for i in np.flatnonzero(w_sum <= witness.t):
            xp = _exact_point(x[i])
            up = _exact_point(u[i])
            if (
                witness.contains(xp)
                and ball.contains(up)
                and witness.contains(xp + up)
            ):
                violations += 1
    return violations


def product_bits_from_factors(cert: Certificate) -> int:
    """AND of freshly built band return bitsets of the recorded factors."""
    prov = cert.provenance
    if prov["kind"] == "rotation":
        entries = [prov]
    else:
        assert prov["kind"] == "rotation-product"
        entries = prov["factors"]
    bits = (1 << cert.horizon) - 1
    for entry in entries:
        witness = BandWitness.from_json(entry["witness"])
        beta = Frequency(TorusPoint.from_json(entry["beta"]))
        bits &= band_return_bitset(witness, beta, cert.horizon)
    return bits
