"""Reference code that only the tests call.

The per-n loop that ``weyl.triple_integrals`` replaced on the grid
models, and the weyl helpers nothing in the library uses: the grid model
of a rational system, the unweighted average, and the observable range
check.  The float path of ``weyl.weighted_average`` one Python complex
term at a time, and the O(support^3) triple loop that
``WeylSystem.correlation_series`` replaced with a y-frequency index.
For harmonic: the sinc closed form of a cylinder coefficient, the
uniformizing cylinder, grid convolution, the Plancherel gap and
pointwise evaluation of a trig polynomial.  For the certificates: the
one-draw band-disjointness probe that
``certificates.sample_band_disjointness`` replaced with row blocks, the
band-measure probe, and the product bitset rebuilt from a certificate's
recorded factors.  For the joinings: the orbit and coset averages of an
orbit decomposition and the recount of its measure identity, the star
kernel and its transform factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from reclab import weyl
from reclab.bohr import Frequency
from reclab.certificates import BandWitness, Certificate, band_return_bitset
from reclab.harmonic import (
    Character,
    CoefficientTable,
    GridFunction,
    annihilating_cylinder,
    cylinder_coefficient_is_structural_zero,
    top_k_characters,
)
from reclab.joinings import AffineJoining, OrbitDecomposition
from reclab.torus import ApproxHammingBall, Cylinder, TorusPoint
from reclab.weyl import AveragesTrace, GridWeylModel, WeylSystem, weighted_average


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


def correlation_series_triple_loop(
    system: WeylSystem, table: CoefficientTable, n_max: int
) -> np.ndarray:
    """``WeylSystem.correlation_series`` over every triple of table entries.

    The phases of a triple are computed before it is known to contribute;
    the triples that do are added in the same order as the indexed loop.
    """
    d = system.dim
    entries = [(chi.freq[:d], chi.freq[d:], coef) for chi, coef in table]
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    out = np.zeros(n_max, dtype=complex)
    alpha = system.alpha.coords
    for nu0, mu0, c0 in entries:
        for nu1, mu1, c1 in entries:
            for nu2, mu2, c2 in entries:
                if any(a + b + c for a, b, c in zip(mu0, mu1, mu2)):
                    continue
                base = tuple(a + b + c for a, b, c in zip(nu0, nu1, nu2))
                drift = tuple(b + 2 * c for b, c in zip(mu1, mu2))
                coef = c0 * c1 * c2
                lin = sum(
                    ((b + 2 * c) * a for b, c, a in zip(nu1, nu2, alpha)),
                    Fraction(0),
                ) - sum(
                    ((Fraction(b, 2) + c) * a for b, c, a in zip(mu1, mu2, alpha)),
                    Fraction(0),
                )
                quad = sum(
                    ((Fraction(b, 2) + 2 * c) * a for b, c, a in zip(mu1, mu2, alpha)),
                    Fraction(0),
                )
                if not any(drift):
                    if any(base):
                        continue
                    out += coef * weyl._quadratic_phase_powers(lin, quad, ns)
                    continue
                hit = None
                for bs, dr in zip(base, drift):
                    if dr == 0:
                        if bs != 0:
                            hit = 0
                            break
                        continue
                    if bs % dr:
                        hit = 0
                        break
                    cand = -(bs // dr)
                    if hit is None:
                        hit = cand
                    elif hit != cand:
                        hit = 0
                        break
                if hit and 1 <= hit <= n_max:
                    out[hit - 1] += coef * weyl._unit(hit * lin + hit * hit * quad)
    return out


def float_checkpoint_averages_per_term(terms: Sequence, marks: Sequence[int]) -> list:
    """Running means of the terms, each converted with complex() before fsum."""
    acc_re, acc_im = 0.0, 0.0
    prev = 0
    out = []
    for mark in marks:
        chunk = [complex(t) for t in terms[prev:mark]]
        acc_re = math.fsum([acc_re] + [t.real for t in chunk])
        acc_im = math.fsum([acc_im] + [t.imag for t in chunk])
        prev = mark
        if abs(acc_im) <= 1e-9 * max(1.0, abs(acc_re)):
            out.append((mark, acc_re / mark))
        else:
            out.append((mark, complex(acc_re, acc_im) / mark))
    return out


def weighted_average_per_term(
    model,
    f,
    g: Cylinder | None = None,
    beta: TorusPoint | None = None,
    ell: int = 1,
    n_max: int | None = None,
    checkpoints: Sequence[int] | None = None,
    integrals: Sequence | None = None,
) -> AveragesTrace:
    """The float path of ``weyl.weighted_average``, one term complex(v) * w per n."""
    n_max = weyl._resolve_n_max(model, n_max)
    marks = weyl._default_checkpoints(n_max)
    if checkpoints:
        marks = sorted({int(m) for m in checkpoints})
    if integrals is None:
        if isinstance(model, WeylSystem):
            integrals = list(model.correlation_series(f, n_max))
        else:
            integrals = triple_integrals_per_n(model, f, range(1, n_max + 1))
    assert not all(isinstance(v, Fraction) for v in integrals), "exact integrals"
    meta = weyl._model_metadata(model)
    meta["n_max"] = n_max
    if g is None:
        terms = list(integrals)
    else:
        hits = g.orbit_contains(
            [int(ell) ** 2 * b for b in beta.coords], np.arange(1, n_max + 1), 2
        )
        on_f = float(1 / g.measure())
        terms = [complex(v) * (on_f if hit else 0.0) for hit, v in zip(hits.tolist(), integrals)]
        meta["weight_measure"] = str(g.measure())
        meta["ell"] = int(ell)
        meta["beta"] = beta.to_json()
        meta["window_hits"] = int(hits.sum())
    return AveragesTrace(
        checkpoints=tuple(float_checkpoint_averages_per_term(terms, marks)),
        closed_form=weyl._closed_form(model, f),
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# harmonic


def evaluate_table(table: CoefficientTable, x: TorusPoint) -> complex:
    """The trig polynomial at x, summed term by term."""
    return sum(v * chi.value_at(x) for chi, v in table)


def cylinder_fourier(cyl: Cylinder, chi: Character) -> complex:
    """Fourier coefficient of the normalized cylinder indicator.

    Exactness note: structural zeros are exact; everything else is a
    product of sinc factors evaluated in double precision.
    """
    if cylinder_coefficient_is_structural_zero(cyl, chi):
        return 0j
    value = 1 + 0j
    eta = float(cyl.eta)
    pinned = set(cyl.index_set)
    two_pi = 2 * math.pi
    for i, n in enumerate(chi.freq):
        if n == 0 or (i + 1) not in pinned:
            continue
        y_i = float(cyl.center.coords[i])
        phase = cmath.exp(-2j * cmath.pi * n * y_i)
        value *= phase * math.sin(two_pi * n * eta) / (two_pi * n * eta)
    return value


def uniformizing_cylinder(
    ball: ApproxHammingBall,
    table: CoefficientTable,
    norm_bound: float = 1.0,
    restrict: Callable[[Character], bool] | None = None,
) -> tuple[Cylinder, dict]:
    """Box whose density convolution flattens the k largest coefficients.

    Selection runs over nontrivial characters only (the trivial one is
    preserved: the box density has mean coefficient 1).  Off the selected
    set, |fhat . ghat| <= |fhat| < norm_bound / sqrt(k).
    """

    def keep(chi: Character) -> bool:
        if chi.trivial:
            return False
        return restrict is None or restrict(chi)

    chosen, residual = top_k_characters(table, ball.k, norm_bound, restrict=keep)
    cyl = annihilating_cylinder(ball, chosen)
    report = {
        "selected": [list(c.freq) for c in chosen],
        "residual": residual,
        "bound": norm_bound / math.sqrt(ball.k),
        "sharper_bound": norm_bound / math.sqrt(1 + ball.k),
    }
    return cyl, report


def grid_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Normalized convolution (f * g)(x) = q^(-d) sum_t f(t) g(x - t)."""
    if (g.dim, g.q) != (f.dim, f.q):
        raise ValueError("grid mismatch")
    fh = np.fft.fftn(f.values)
    gh = np.fft.fftn(g.values)
    return GridFunction(f.dim, f.q, np.fft.ifftn(fh * gh) / f.size())


def grid_plancherel_gap(f: GridFunction) -> float:
    """|sum |fhat|^2 - q^(-d) sum |f|^2|, should be ~machine epsilon."""
    hat = f.dft()
    lhs = float(np.sum(np.abs(hat.values) ** 2))
    return abs(lhs - f.norm_sq())


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


def orbit_average(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Mean of fn along one period of the decomposed orbit."""
    total = sum(fn(dec.orbit_point(n)) for n in range(dec.q))
    return total / dec.q


def decomposition_average(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Weighted mean of fn's coset averages."""
    total = 0
    for j, w in enumerate(dec.weights):
        elems = dec.coset_elements(j)
        total += w * (sum(fn(x) for x in elems) / len(elems))
    return total


def averaging_gap(dec: OrbitDecomposition, fn: Callable[[tuple[int, ...]], object]):
    """Orbit average minus decomposition average; exactly 0 when fn is exact."""
    return orbit_average(dec, fn) - decomposition_average(dec, fn)


def verify_measure_identity(dec: OrbitDecomposition) -> bool:
    """Recount the orbit and check the pointwise measure identity."""
    counts = dec.visit_counts()
    if sum(dec.weights, Fraction(0)) != 1:
        return False
    order = dec.stabilizer.order()
    seen: set[tuple[int, ...]] = set()
    for j, w in enumerate(dec.weights):
        for x in dec.coset_elements(j):
            if x in seen:
                return False
            seen.add(x)
            if Fraction(counts.get(x, 0), dec.q) != w / order:
                return False
    return seen == set(counts)


def star_kernel(
    f_values: np.ndarray, g_values: np.ndarray, joining: AffineJoining
) -> np.ndarray:
    """(f *_joining g)(x, y) = sum_j w_j avg_{(w1,w2)} f(x, y + 2*w1) g(w2).

    f_values has 2d axes of length q (x block then y block), g_values has
    r axes of length q.  Object arrays of Fractions stay exact; anything
    else accumulates in complex.
    """
    d, r, q = joining.d, joining.r, joining.q
    f = np.asarray(f_values)
    g = np.asarray(g_values)
    if f.ndim != 2 * d or any(s != q for s in f.shape):
        raise ValueError(f"f must have 2*{d} axes of length {q}")
    if g.ndim != r or any(s != q for s in g.shape):
        raise ValueError(f"g must have {r} axes of length {q}")
    exact = f.dtype == object and g.dtype == object
    out = np.zeros(f.shape, dtype=object if exact else complex)
    y_axes = tuple(range(d, 2 * d))
    for j, weight in enumerate(joining.weights):
        elems = joining.coset_elements(j)
        scale = weight / len(elems) if exact else float(weight) / len(elems)
        for w in elems:
            w1, w2 = w[:d], w[d:]
            gv = g[w2] if exact else complex(g[w2])
            if gv == 0:
                continue
            rolled = np.roll(f, shift=tuple(-(2 * a) % q for a in w1), axis=y_axes)
            out = out + rolled * (scale * gv)
    return out


def star_transform_factor(
    joining: AffineJoining, psi: Character, g_values: np.ndarray
) -> complex:
    """The factor multiplying every (chi, psi) coefficient under the kernel.

    Equals sum_j w_j avg_{(w1,w2)} e(2 * psi . w1 / q) * g(w2).
    """
    d, q = joining.d, joining.q
    if psi.dim != d:
        raise ValueError("psi must act on the w1 block")
    g = np.asarray(g_values)
    total = 0j
    for j, weight in enumerate(joining.weights):
        elems = joining.coset_elements(j)
        acc = 0j
        for w in elems:
            ph = sum(2 * n * a for n, a in zip(psi.freq, w[:d])) % q
            acc += cmath.exp(2j * cmath.pi * ph / q) * complex(g[w[d:]])
        total += float(weight) * acc / len(elems)
    return total
