"""Finite certificates of shifted-progression avoidance, and their algebra.

A certificate packages a horizon N, a subset B of {0, ..., N-1} stored
as a bitset, a finite shift set S, a progression length k, and a
rational density claim.  It asserts two finite facts: B holds at least
deltaPrime * N elements, and for every s in S the sets B, B - s, ...,
B - k*s have empty common intersection.  Both are checked exactly.
The intersection test runs first on residue folds: if i, i+s, ...,
i+k*s all lie in B, then i mod L lies in G, G - s, ..., G - k*s taken
mod L, where G is the set of residues mod L of B's members, so an
empty cyclic intersection of those L-bit sets clears s for any L.  The
periods L come from the band frequencies the provenance records (a
band return set along beta repeats with the lcm of beta's
denominators), and each residue s mod L is decided once.  A shift no
fold clears falls back to the word-parallel test on B itself, since
bit i of the AND of the right-shifted bitsets B >> (j*s) records
whether the progression i, i+s, ..., i+k*s lies entirely inside B.

Certificates are manufactured three ways.  The rotation route takes a
band set E on the torus (at most t coordinates further than a from 0)
together with an approximate Hamming ball U around the all-halves
point; when 2a + eps <= 1/2 and r > 2t + k, a point of E plus a point
of U always has more than t coordinates pushed out of the band, so E
and E + U are disjoint and B = {n : n*beta in E} avoids every return
time of beta to U; the caller names the shifts to certify.  The
combination route merges two certificates into one for S1 union m*S2,
preferring the product of their band rotations when that ancestry is
recorded.  The square route rewrites S through s -> s*s.  None of the
constructions is trusted: every certificate emitted by this module has
passed verify_certificate, and a failed candidate surfaces as a typed
rejection rather than a bad object.  Each certificate is checked once,
where it is made or loaded: the constructions verify what they emit,
not their inputs, so a certificate read from a file is verified first.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .pcg64 import SplitMix64
from .torus import (
    SCAN_BLOCK,
    ApproxHammingBall,
    RationalLike,
    TorusPoint,
    as_fraction,
    binomial_tail,
    fraction_str,
    orbit_deviations,
    scan_blocks,
)

__all__ = [
    "BandWitness",
    "Certificate",
    "CertificateRejected",
    "SearchExhausted",
    "Verification",
    "band_ball_disjoint",
    "band_return_bitset",
    "build_band_witness",
    "certificate_from_json",
    "certificate_text",
    "certificate_to_json",
    "combine_certificates",
    "load_certificate",
    "rotation_certificate",
    "sample_band_disjointness",
    "search_min_m",
    "square_certificate",
    "verify_certificate",
]

FILE_FORMAT_VERSION = 1

_WORD_BITS = 64


class CertificateRejected(Exception):
    """A constructed candidate failed verification.

    Raised by the rotation, combination and square operations when no
    candidate base set passes the checks at the requested parameters.
    Carries the dilation factor (when one is in play) and the
    per-candidate diagnostics, so a search loop can report why each
    attempt died.
    """

    def __init__(self, message: str, diagnostics=None, m: int | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
        self.m = m


class SearchExhausted(Exception):
    """A bounded search ran out of budget without a hit."""

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


# ---------------------------------------------------------------------------
# the certificate object and its verifier


@dataclass(frozen=True)
class Certificate:
    """Exact finite witness that B avoids k-step progressions of gap s.

    bits is an arbitrary-precision integer whose bit n records whether
    n lies in B; only bits below horizon may be set.  density_claim is
    the promised lower bound |B| >= density_claim * horizon, kept as a
    Fraction so the comparison is exact.  provenance is free-form JSON
    recording how the certificate was built.  It may only supply period
    hints that speed verification up; the verdict depends on bits,
    shifts, k and the claim alone.
    """

    horizon: int
    bits: int
    shifts: tuple[int, ...]
    k: int
    density_claim: Fraction
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.bits < 0:
            raise ValueError("bitset must be nonnegative")
        if self.bits >> self.horizon:
            raise ValueError("bitset has members at or beyond the horizon")
        object.__setattr__(
            self, "shifts", tuple(sorted({int(s) for s in self.shifts}))
        )
        if self.k < 1:
            raise ValueError("progression length k must be at least 1")
        claim = as_fraction(self.density_claim)
        if not 0 <= claim <= 1:
            raise ValueError("density claim must lie in [0, 1]")
        object.__setattr__(self, "density_claim", claim)
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.horizon)


@dataclass(frozen=True)
class Verification:
    """Outcome of checking a certificate, with enough detail to debug.

    violating_shift is the smallest s in S whose progression test
    failed, and witness_start the smallest i with i, i+s, ..., i+k*s
    all in B.  Both are None when the emptiness condition holds.
    """

    ok: bool
    size: int
    density: Fraction
    required: Fraction
    density_ok: bool
    violating_shift: int | None = None
    witness_start: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _progression_hits(bits: int, s: int, k: int) -> int:
    """Bitset of starts i with i, i+s, ..., i+k*s all in the given set."""
    acc = bits
    for j in range(1, k + 1):
        step = j * s
        acc &= bits >> step if step >= 0 else bits << -step
        if not acc:
            return 0
    return acc


def _period_hints(cert: Certificate) -> list[int]:
    """Periods L < horizon of the band frequencies in the provenance, smallest first.

    Only a hint: verification is sound for any L, so a provenance that
    cannot be read gives no hint rather than an error.
    """
    try:
        factors = _rotation_factors(cert.provenance)
        if factors is None:
            return []
        periods = {math.lcm(*(c.denominator for c in beta.coords)) for _, beta in factors}
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return []
    return sorted(L for L in periods if L < cert.horizon)


def _fold(bits: int, width: int, period: int) -> int:
    """The residues mod period of the members of bits (all below width), as a bitset.

    Each pass ORs the part above a multiple of period, at least half
    the width, onto the part below it, so the passes cost O(width / 64)
    words in all.
    """
    while width > period:
        half = (-(-width // period) + 1) // 2 * period
        bits = (bits & ((1 << half) - 1)) | bits >> half
        width = half
    return bits


def _cyclic_progression_free(fold: int, period: int, s: int, k: int) -> bool:
    """Whether no residue i has i, i+s, ..., i+k*s all in fold, taken mod period."""
    acc = fold
    for j in range(1, k + 1):
        t = j * s % period
        # rotate right by t; acc holds no bit at or above period, so it masks the rest
        acc &= fold >> t | fold << (period - t)
        if not acc:
            return True
    return False


def verify_certificate(cert: Certificate) -> Verification:
    """Check the density and progression-emptiness conditions exactly.

    Shifts are taken in increasing order and the first violation is
    reported.  A shift passes outright when a residue fold (module
    docstring) for one of the provenance's periods has no cyclic
    progression at its residue, each residue decided once per period;
    any other shift is tested on the whole bitset.
    """
    size = cert.bits.bit_count()
    density = Fraction(size, cert.horizon)
    density_ok = size >= cert.density_claim * cert.horizon
    folds = [(L, _fold(cert.bits, cert.horizon, L), {}) for L in _period_hints(cert)]
    violating = start = None
    for s in cert.shifts:
        for period, fold, cleared in folds:
            r = s % period
            if r not in cleared:
                cleared[r] = _cyclic_progression_free(fold, period, r, cert.k)
            if cleared[r]:
                break
        else:
            hit = _progression_hits(cert.bits, s, cert.k)
            if hit:
                violating, start = s, (hit & -hit).bit_length() - 1
                break
    ok = density_ok and violating is None
    return Verification(
        ok=ok,
        size=size,
        density=density,
        required=cert.density_claim,
        density_ok=density_ok,
        violating_shift=violating,
        witness_start=start,
    )


# ---------------------------------------------------------------------------
# band witnesses on the torus


@dataclass(frozen=True)
class BandWitness:
    """The set E of points with at most t coordinates off the zero band.

    A coordinate is off the band when its circular distance to 0 is a
    or more, so E = {x in T^r : w_a(x) <= t}.  Under the product
    measure the off-band count is Binomial(r, 1 - 2a), which makes
    m(E) an exact rational tail sum.  t = r is allowed and makes E the
    whole torus; that degenerate witness is useful in tests precisely
    because it can never be disjoint from its own translates.
    """

    r: int
    a: Fraction
    t: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("dimension r must be positive")
        a = as_fraction(self.a)
        if not 0 < a <= Fraction(1, 2):
            raise ValueError("band radius a must lie in (0, 1/2]")
        object.__setattr__(self, "a", a)
        if not 0 <= self.t <= self.r:
            raise ValueError("threshold t must lie in [0, r]")

    def orbit_contains(self, beta: Sequence[RationalLike], ns, e: int = 1) -> np.ndarray:
        """Whether each point ns^e * beta (one per row of ns) lies in E, exactly."""
        return orbit_deviations(beta, (0,) * self.r, self.a, ns, e) <= self.t

    def measure(self) -> Fraction:
        return binomial_tail(self.r, self.t, self.a)

    def to_json(self) -> dict:
        return {"r": self.r, "a": fraction_str(self.a), "t": self.t}

    @classmethod
    def from_json(cls, data: dict) -> "BandWitness":
        return cls(r=int(data["r"]), a=as_fraction(data["a"]), t=int(data["t"]))


def band_ball_disjoint(witness: BandWitness, ball: ApproxHammingBall) -> bool:
    """Exact sufficient condition for E and E + U to be disjoint.

    Requires the ball centered at the all-halves point.  For x in E
    and u in U, every coordinate where neither deviates satisfies
    ||x_i + u_i|| > 1/2 - eps - a >= a as soon as 2a + eps <= 1/2
    (strict memberships absorb the boundary case), and there are at
    least r - t - k such coordinates.  With r > 2t + k that exceeds t,
    so x + u cannot lie in E.
    """
    if ball.dim != witness.r:
        raise ValueError("witness and ball dimensions differ")
    half = Fraction(1, 2)
    if any(c != half for c in ball.center.coords):
        return False
    if 2 * witness.a + ball.eps > half:
        return False
    return witness.r > 2 * witness.t + ball.k


def _halves(r: int) -> TorusPoint:
    return TorusPoint.of([Fraction(1, 2)] * r)


_EPS_MENU = (
    Fraction(1, 8),
    Fraction(1, 16),
    Fraction(1, 64),
    Fraction(1, 256),
    Fraction(1, 1024),
)


def build_band_witness(
    k: int,
    eta,
    r_max: int = 200,
    samples: int = 100_000,
    seed: int = 7,
) -> tuple[BandWitness, ApproxHammingBall, dict]:
    """Search for a band set of measure above eta disjoint from E + U.

    Scans r upward, pairing the largest threshold allowed by the
    counting argument (t = (r - k - 1) // 2) with a menu of shrinking
    ball radii; a candidate is accepted on an exact binomial-tail
    comparison m(E) > eta.  The returned proof dict records the
    counting parameters and a Monte Carlo disjointness probe of the
    accepted pair.  Large eta forces large r: the tail tends to 1/2
    from below as r grows, which is why eta < 1/2 is required.
    """
    eta = as_fraction(eta)
    if not 0 < eta < Fraction(1, 2):
        raise ValueError("need 0 < eta < 1/2")
    if k < 0:
        raise ValueError("ball parameter k must be nonnegative")
    for r in range(k + 1, r_max + 1):
        t = (r - k - 1) // 2
        for eps in _EPS_MENU:
            a = Fraction(1, 4) - eps
            witness = BandWitness(r=r, a=a, t=t)
            if witness.measure() <= eta:
                continue
            ball = ApproxHammingBall(center=_halves(r), k=k, eps=eps)
            if not band_ball_disjoint(witness, ball):
                raise RuntimeError("internal: counting argument violated")
            hits = sample_band_disjointness(witness, ball, samples=samples, seed=seed)
            if hits:
                raise RuntimeError(
                    f"internal: Monte Carlo found {hits} points of E in E + U"
                )
            proof = {
                "r": r,
                "t": t,
                "k": k,
                "a": fraction_str(a),
                "eps": fraction_str(eps),
                "slack": r - 2 * t - k,
                "measure": fraction_str(witness.measure()),
                "eta": fraction_str(eta),
                "mc_samples": samples,
                "mc_violations": hits,
            }
            return witness, ball, proof
    raise SearchExhausted(
        f"no band witness of measure above {eta} found with r up to {r_max}",
        details={"r_max": r_max, "eta": fraction_str(eta), "k": k},
    )


# ---------------------------------------------------------------------------
# Monte Carlo probes (float prefilter, exact confirmation)


# cells (coordinates x samples) per (r, n) block of sample_band_disjointness
PROBE_BLOCK = SCAN_BLOCK


def _exact_point(column: np.ndarray) -> list[Fraction]:
    # floats are dyadic rationals, so this conversion is lossless
    return [Fraction(float(v)) for v in column]


def _off_band(x: np.ndarray, a: float) -> np.ndarray:
    """The entries of x in [0, 1) at float distance >= a from 0.

    x >= a together with 1 - x >= a is exactly min(x, 1 - x) >= a.
    """
    return (x >= a) & (1.0 - x >= a)


def _choose_subsets(rng: SplitMix64, r: int, need) -> np.ndarray:
    """(r, n) bool whose column j is a uniform need[j]-subset of the r coordinates.

    Selection sampling: coordinate i is chosen with probability (still
    to choose) / (r - i), so every column gets exactly its count.  When
    every count is 0 nothing is drawn.
    """
    left = np.array(need, dtype=np.float64)
    if not left.any():
        return np.zeros((r, len(left)), dtype=bool)
    keys = rng.random((r, len(left)))
    keys *= np.arange(r, 0, -1)[:, None]
    chosen = np.empty(keys.shape, dtype=bool)
    for key, pick in zip(keys, chosen):
        np.less(key, left, out=pick)
        left -= pick
    return chosen


def _band_cuts(witness: BandWitness) -> np.ndarray:
    """P(J <= j | J <= t) for j < t, J the Binomial(r, 1 - 2a) off-band count."""
    tails = [binomial_tail(witness.r, j, witness.a) for j in range(witness.t + 1)]
    return np.array([float(tail / tails[-1]) for tail in tails[:-1]])


def _sample_band_points(
    rng: SplitMix64, witness: BandWitness, cuts: np.ndarray, n: int
) -> np.ndarray:
    """n points of E as the columns of an (r, n) array in [0, 1], uniform on E.

    Under the uniform measure on E the off-band count J is Binomial(r,
    1 - 2a) conditioned on J <= t, the off-band coordinates form a
    uniform J-subset, and each coordinate is uniform on its arc.  J is
    the number of cuts (_band_cuts) at or below a uniform draw (at t = 0
    there are no cuts and nothing is drawn), the subset comes from
    _choose_subsets, in-band coordinates are squeezed strictly inside
    (-a, a) mod 1 and off-band ones lie on [a, 1 - a].
    Each value is picked by multiplying by 0.0 or 1.0 and adding 0.0,
    which is exact, and rounding can only move an off-band coordinate
    into the band, so every column lies in E exactly.
    """
    a_f = float(witness.a)
    j = (rng.random(n) >= cuts[:, None]).sum(axis=0) if len(cuts) else np.zeros(n, dtype=np.intp)
    off = _choose_subsets(rng, witness.r, j)
    v = rng.random((witness.r, n))
    inner = (v * 2.0 - 1.0) * (a_f * (1.0 - 1e-12))
    inner += inner < 0.0
    inner *= ~off
    v *= 1.0 - 2.0 * a_f
    v += a_f
    v *= off
    v += inner
    return v


def _sample_ball_points(rng: SplitMix64, ball: ApproxHammingBall, n: int) -> np.ndarray:
    """n points of U as the columns of an (r, n) array in [0, 1), for a ball at the halves.

    k coordinates, chosen by _choose_subsets, are uniform on [0, 1) and
    the rest are squeezed strictly inside the eps window around 1/2; one
    uniform draw serves both and is picked as in _sample_band_points.
    Every column lies in U, though not uniformly: a falsification probe
    only needs coverage.
    """
    v = rng.random((ball.dim, n))
    u = 0.5 + (v * 2.0 - 1.0) * (float(ball.eps) * (1.0 - 1e-12))
    free = _choose_subsets(rng, ball.dim, np.full(n, ball.k))
    u *= ~free
    v *= free
    u += v
    return u


def sample_band_disjointness(
    witness: BandWitness,
    ball: ApproxHammingBall,
    samples: int = 100_000,
    seed: int = 2026,
) -> int:
    """Count sampled pairs (x, u) in E x U whose sum lands back in E.

    A correct disjointness argument makes the answer 0.  x is drawn
    uniformly from E itself (_sample_band_points) and u from U
    (_sample_ball_points); both pick their coordinate subsets with one
    sampler.  Suspect sums are flagged with a slack of 1e-9 and every
    flagged pair is re-verified in exact arithmetic before it may count
    as a violation.  Pairs are drawn as (r, n) blocks of at most
    PROBE_BLOCK cells (one column at least), so memory does not grow
    with r or samples; the thresholds for J are computed once per call.
    The uniforms come from ``SplitMix64(seed)``: a disjoint pair gives 0
    whatever the stream, so the probe needs a seeded one, not numpy's.
    """
    if ball.dim != witness.r:
        raise ValueError("witness and ball dimensions differ")
    rng = SplitMix64(seed)
    cuts = _band_cuts(witness)
    a_probe = float(witness.a) + 1e-9
    rows = max(1, PROBE_BLOCK // witness.r)
    violations = 0
    for start in range(0, samples, rows):
        n = min(rows, samples - start)
        x = _sample_band_points(rng, witness, cuts, n)
        u = _sample_ball_points(rng, ball, n)
        total = x + u
        total -= total >= 1.0
        for i in np.flatnonzero(_off_band(total, a_probe).sum(axis=0) <= witness.t):
            xp, up = _exact_point(x[:, i]), _exact_point(u[:, i])
            if (
                witness.orbit_contains(xp, [1])[0]
                and ball.orbit_contains(up, [1])[0]
                and witness.orbit_contains([a + b for a, b in zip(xp, up)], [1])[0]
            ):
                violations += 1
    return violations


# ---------------------------------------------------------------------------
# the rotation construction


def band_return_bitset(witness: BandWitness, beta: TorusPoint, n_max: int) -> int:
    """Bitset of {n in [0, n_max) : n*beta lies in E}, decided exactly.

    Whether n*beta lies in E depends only on n mod L, L the lcm of the
    denominators of beta, so one period [0, min(L, n_max)) is scanned
    by the witness's orbit_contains on integer residues, one block of n
    at a time.  The period is then tiled by doubling and cut to n_max bits.
    """
    if beta.dim != witness.r:
        raise ValueError("witness and frequency dimensions differ")
    if n_max < 1:
        raise ValueError("horizon must be positive")
    length = min(math.lcm(*(c.denominator for c in beta.coords)), n_max)
    bits = 0
    for ns in scan_blocks(0, length):
        inside = witness.orbit_contains(beta.coords, ns)
        packed = np.packbits(inside, bitorder="little").tobytes()
        bits |= int.from_bytes(packed, "little") << int(ns[0])
    while length < n_max:
        bits |= bits << length
        length *= 2
    return bits & ((1 << n_max) - 1)


def rotation_certificate(
    witness: BandWitness,
    ball: ApproxHammingBall,
    beta: TorusPoint,
    n_max: int,
    shifts: Sequence[int],
) -> Certificate:
    """Certificate from the orbit of beta through a band set.

    B collects the n in [0, n_max) with n*beta in E; S is the given
    shift set; k = 1.  The density claim is the achieved |B| / n_max,
    and the target measure m(E) is kept in the provenance for
    comparison.  When the band and ball satisfy the disjointness
    counting argument, every return time of beta to the ball passes;
    any shift that fails surfaces as a typed rejection carrying the
    verification, never as a certificate.
    """
    if beta.dim != witness.r or ball.dim != witness.r:
        raise ValueError("witness, ball, and frequency dimensions must agree")
    bits = band_return_bitset(witness, beta, n_max)
    cert = Certificate(
        horizon=n_max,
        bits=bits,
        shifts=tuple(shifts),
        k=1,
        density_claim=Fraction(bits.bit_count(), n_max),
        provenance={
            "kind": "rotation",
            "beta": beta.to_json(),
            "witness": witness.to_json(),
            "ball": ball.to_json(),
            "target_density": fraction_str(witness.measure()),
            "disjoint": band_ball_disjoint(witness, ball),
        },
    )
    check = verify_certificate(cert)
    if not check:
        raise CertificateRejected(
            f"band set does not avoid shift {check.violating_shift}",
            diagnostics=[("rotation", check)],
        )
    return cert


# ---------------------------------------------------------------------------
# combination, search over the dilation factor, and the square map


def _rotation_factors(provenance: dict) -> list[tuple[BandWitness, TorusPoint]] | None:
    """Band-rotation ancestry of a certificate, when recorded."""
    kind = provenance.get("kind")
    if kind == "rotation":
        witness = BandWitness.from_json(provenance["witness"])
        beta = TorusPoint.from_json(provenance["beta"])
        return [(witness, beta)]
    if kind == "rotation-product":
        out = []
        for entry in provenance["factors"]:
            out.append(
                (BandWitness.from_json(entry["witness"]), TorusPoint.from_json(entry["beta"]))
            )
        return out
    return None


def _factors_provenance(factors) -> dict:
    return {
        "kind": "rotation-product",
        "factors": [
            {"witness": w.to_json(), "beta": beta.to_json()} for w, beta in factors
        ],
    }


def combine_certificates(c1: Certificate, c2: Certificate, m: int) -> Certificate:
    """Merge two k=1 certificates into one for S1 union m*S2.

    The merged density claim is 2 * d1 * d2, rejected when above 1.
    When both inputs carry
    band-rotation ancestry the principled candidate is the product
    witness: the second factor's frequencies are divided by m, so a
    shift m*s moves them by s*beta2 exactly and the band argument
    applies coordinate-block by coordinate-block.  Plain intersections
    and the parent sets are tried as fallbacks.  Every candidate is
    verified, and the output is sound whatever the inputs hold; if none
    passes, the typed rejection carries the diagnostics.

    The product candidate reuses bitsets it already holds.  A
    certificate of rotation or rotation-product ancestry, as
    rotation_certificate and this function build it, holds in its bits
    the AND of its factors' band return bitsets over its horizon.  So
    the candidate starts from c1's bits, ANDs in c2's bits when m = 1,
    and rebuilds only the divided factors beta / m when m > 1.  A
    certificate whose bits break this invariant yields a different
    candidate, never an unsound one: it is verified like the others.

    A dilation whose surviving shifts are all already in S1 is
    rejected as vacuous: the merge would certify nothing beyond c1.
    An empty dilation (every m*s beyond the horizon) is allowed and
    reduces to c1 on the shared horizon.
    """
    if m < 1:
        raise ValueError("dilation factor m must be positive")
    for name, cert in (("first", c1), ("second", c2)):
        if cert.k != 1:
            raise ValueError(f"{name} certificate has k={cert.k}, need k=1")
    n_max = min(c1.horizon, c2.horizon)
    kept = sorted(s for s in c1.shifts if s <= n_max)
    dilated = sorted(m * s for s in c2.shifts if m * s <= n_max)
    if dilated and set(dilated) <= set(kept):
        raise CertificateRejected(
            f"dilation by {m} adds no shifts beyond the first certificate",
            m=m,
        )
    shifts = tuple(sorted(set(kept) | set(dilated)))
    claim = 2 * c1.density_claim * c2.density_claim
    if claim > 1:
        raise CertificateRejected(f"merged claim {fraction_str(claim)} exceeds 1", m=m)
    mask = (1 << n_max) - 1
    candidates: list[tuple[str, int, dict]] = []
    f1 = _rotation_factors(c1.provenance)
    f2 = _rotation_factors(c2.provenance)
    if f1 is not None and f2 is not None:
        divided = [
            (w, TorusPoint.of([c / m for c in beta.coords])) for w, beta in f2
        ]
        bits = c1.bits & mask
        if m == 1:
            bits &= c2.bits
        else:
            for w, beta in divided:
                bits &= band_return_bitset(w, beta, n_max)
        candidates.append(("product-rotation", bits, _factors_provenance(f1 + divided)))
    base_prov = {
        "kind": "combined",
        "m": m,
        "parents": [
            c1.provenance.get("kind", "bare"),
            c2.provenance.get("kind", "bare"),
        ],
    }
    candidates.append(("intersection", c1.bits & c2.bits & mask, base_prov))
    candidates.append(("first", c1.bits & mask, base_prov))
    candidates.append(("second", c2.bits & mask, base_prov))
    failures = []
    for label, bits, prov in candidates:
        cert = Certificate(
            horizon=n_max,
            bits=bits,
            shifts=shifts,
            k=1,
            density_claim=claim,
            provenance={**prov, "candidate": label, "m": m},
        )
        check = verify_certificate(cert)
        if check:
            return cert
        failures.append((label, check))
    raise CertificateRejected(
        f"no candidate base set verifies for S1 union {m}*S2",
        diagnostics=failures,
        m=m,
    )


def search_min_m(c1: Certificate, c2: Certificate, m_max: int) -> tuple[int, Certificate]:
    """Smallest dilation factor in [1, m_max] that combines, with proof.

    Linear scan; on exhaustion the raised error lists every attempted
    m with the reason it was rejected.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    attempts = []
    for m in range(1, m_max + 1):
        try:
            return m, combine_certificates(c1, c2, m)
        except CertificateRejected as exc:
            attempts.append((m, str(exc)))
    raise SearchExhausted(
        f"no dilation factor up to {m_max} yields a verified combination",
        details=attempts,
    )


def square_certificate(cert: Certificate) -> Certificate:
    """Rewrite the shift set through s -> s*s and verify the result.

    The base set is the input certificate's.  Shifts whose square
    exceeds the horizon stay in the set (their condition is vacuously
    true over a finite window).
    """
    squared = tuple(sorted({s * s for s in cert.shifts}))
    out = Certificate(
        horizon=cert.horizon,
        bits=cert.bits,
        shifts=squared,
        k=cert.k,
        density_claim=cert.density_claim,
        provenance={"kind": "square", "parent": dict(cert.provenance)},
    )
    check = verify_certificate(out)
    if not check:
        raise CertificateRejected(
            "base set does not certify the squared shifts",
            diagnostics=[("square", check)],
        )
    return out


# ---------------------------------------------------------------------------
# bit-exact persistence


def _payload_length(horizon: int) -> int:
    words = (horizon + _WORD_BITS - 1) // _WORD_BITS
    return words * (_WORD_BITS // 8)


def certificate_to_json(cert: Certificate) -> dict:
    """Single-document form: JSON header plus base64 bitset payload.

    The payload is the bitset in little-endian order, padded to whole
    64-bit words; padding bits are zero by the horizon invariant.
    """
    payload = cert.bits.to_bytes(_payload_length(cert.horizon), "little")
    return {
        "version": FILE_FORMAT_VERSION,
        "N": cert.horizon,
        "k": cert.k,
        "deltaPrime": fraction_str(cert.density_claim),
        "S": list(cert.shifts),
        "provenance": cert.provenance,
        "payload": base64.b64encode(payload).decode("ascii"),
    }


_JSON_TYPES = {int: "integer", str: "string", list: "array", dict: "object"}


def _json_field(data: dict, key: str, kind: type):
    """data[key], refused with a ValueError naming the key unless it is a JSON kind."""
    if key not in data:
        raise ValueError(f"certificate has no {key!r}")
    value = data[key]
    # bool is an int subclass, but JSON true/false is no integer
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"certificate {key!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def certificate_from_json(data: dict) -> Certificate:
    """Inverse of certificate_to_json; a malformed document raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a certificate is a JSON object, got {type(data).__name__}")
    version = data.get("version")
    if version != FILE_FORMAT_VERSION or isinstance(version, bool):
        raise ValueError(f"unsupported certificate format version: {version!r}")
    horizon = _json_field(data, "N", int)
    shifts = _json_field(data, "S", list)
    for s in shifts:
        if not isinstance(s, int) or isinstance(s, bool):
            raise ValueError(f"certificate 'S' must hold JSON integers, got {s!r}")
    payload = _json_field(data, "payload", str)
    try:
        raw = base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"certificate 'payload' is not base64: {exc}") from None
    if len(raw) != _payload_length(horizon):
        raise ValueError(
            f"payload holds {len(raw)} bytes, expected {_payload_length(horizon)}"
        )
    return Certificate(
        horizon=horizon,
        bits=int.from_bytes(raw, "little"),
        shifts=tuple(shifts),
        k=_json_field(data, "k", int),
        density_claim=as_fraction(_json_field(data, "deltaPrime", str)),
        provenance=_json_field(data, "provenance", dict) if "provenance" in data else {},
    )


def certificate_text(cert: Certificate) -> str:
    """The text of a certificate file: its JSON document, indented, keys sorted."""
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=True) + "\n"


def load_certificate(path) -> Certificate:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return certificate_from_json(json.load(fh))
