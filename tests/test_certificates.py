"""Tests for finite nonrecurrence certificates and their constructions."""

import base64
import json
import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reclab import certificates, torus
from reclab.bohr import BohrHammingBall, set_enumerate
from reclab.certificates import (
    BandWitness,
    Certificate,
    CertificateRejected,
    SearchExhausted,
    band_ball_disjoint,
    band_return_bitset,
    build_band_witness,
    certificate_from_json,
    certificate_text,
    certificate_to_json,
    combine_certificates,
    load_certificate,
    rotation_certificate,
    sample_band_disjointness,
    search_min_m,
    square_certificate,
    verify_certificate,
)
from reclab.experiments import write_atomic
from reclab.pcg64 import SplitMix64
from reclab.torus import ApproxHammingBall, TorusPoint, binomial_tail, fraction_str

from oracles import (
    ball_contains,
    band_contains,
    certificate_from_members,
    certificate_members,
    band_return_bitset_per_n,
    deviation_count,
    product_bits_from_factors,
    sample_band_disjointness_by_rejection,
    sample_band_measure,
    scaled,
    verify_certificate_by_scan,
    zero_point,
)


def evens_certificate(extra=(), shifts=(1,), claim=Fraction(49, 100)):
    members = sorted(set(range(0, 100, 2)) | set(extra))
    return certificate_from_members(100, members, shifts, 1, claim)


def brute_first_violation(members, shifts, k):
    """Smallest (s, start) with start, start+s, ..., start+k*s all in B."""
    mset = set(members)
    for s in sorted(shifts):
        for i in sorted(mset):
            if all(i + j * s in mset for j in range(1, k + 1)):
                return s, i
    return None


def half_center(r):
    return TorusPoint.of([Fraction(1, 2)] * r)


def returns(freq, ball, n_max):
    """Every return time of freq to the ball over [1, n_max]."""
    return set_enumerate(BohrHammingBall(freq, ball), n_max).elems


# ---------------------------------------------------------------------------
# verification


def test_evens_certificate_valid():
    cert = evens_certificate()
    result = verify_certificate(cert)
    assert result.ok and bool(result)
    assert result.density == Fraction(1, 2)
    assert result.density_ok
    assert result.violating_shift is None and result.witness_start is None


def test_adjacent_pair_detected():
    cert = evens_certificate(extra=(5,))
    result = verify_certificate(cert)
    assert not result.ok and not bool(result)
    assert result.violating_shift == 1
    assert result.witness_start == 4
    # among many shifts the smallest violating one is reported
    cert = evens_certificate(extra=(31,), shifts=tuple(range(1, 60)), claim=Fraction(1, 10))
    result = verify_certificate(cert)
    assert (result.violating_shift, result.witness_start) == (1, 30)


def test_three_term_pattern_mod_six():
    members = [n for n in range(102) if n % 6 in (0, 1)]
    cert = certificate_from_members(102, members, (2,), 2, Fraction(1, 3))
    result = verify_certificate(cert)
    assert result.ok
    assert result.density == Fraction(1, 3)
    assert brute_first_violation(members, (2,), 2) is None


@given(
    bits=st.integers(min_value=0, max_value=2**60 - 1),
    shifts=st.lists(st.integers(min_value=1, max_value=70), max_size=6),
    k=st.integers(min_value=1, max_value=3),
)
def test_verifier_matches_brute_force(bits, shifts, k):
    cert = Certificate(60, bits, tuple(shifts), k, Fraction(0))
    result = verify_certificate(cert)
    expected = brute_first_violation(certificate_members(cert), shifts, k)
    if expected is None:
        assert result.ok
        assert result.violating_shift is None
    else:
        assert not result.ok
        assert (result.violating_shift, result.witness_start) == expected


_HINT_WITNESS = {"r": 1, "a": "1/4", "t": 0}


def _rotation_hint(*periods):
    """Provenance whose period hints are exactly the given L."""
    factors = [{"witness": _HINT_WITNESS, "beta": [f"1/{L}"]} for L in periods]
    if len(factors) == 1:
        return {"kind": "rotation", **factors[0]}
    return {"kind": "rotation-product", "factors": factors}


UNREADABLE_HINTS = [
    {"kind": "rotation"},
    {"kind": "rotation", "beta": ["1/0"], "witness": _HINT_WITNESS},
    {"kind": "rotation", "beta": ["1/4"]},
    {"kind": "rotation", "beta": "1/4", "witness": _HINT_WITNESS},
    {"kind": "rotation", "beta": [0.25], "witness": _HINT_WITNESS},
    {"kind": "rotation", "beta": ["1/4"], "witness": {"r": 0, "a": "1/4", "t": 0}},
    {"kind": "rotation-product"},
    {"kind": "rotation-product", "factors": 7},
    {"kind": "rotation-product", "factors": [{"beta": ["1/4"]}]},
    {"kind": "rotation-product", "factors": ["1/4"]},
    {"kind": "combined", "m": 2},
]


@st.composite
def hinted_certificates(draw):
    """Bits that are periodic, periodic with a few flips, or arbitrary, under any hint.

    A periodic layout repeats a set of residues mod period, either any
    set or one cyclic arc, which may wrap past period - 1 back to 0.
    """
    n = draw(st.integers(1, 400))
    k = draw(st.integers(1, 3))
    period = draw(st.integers(1, 60))
    layout = draw(st.sampled_from(["periodic", "flipped", "arbitrary"]))
    if layout == "arbitrary":
        bits = draw(st.integers(0, 2**n - 1))
    else:
        if draw(st.booleans()):
            residues = draw(st.sets(st.integers(0, period - 1), max_size=period))
        else:
            start, length = draw(st.integers(0, period - 1)), draw(st.integers(0, period))
            residues = {(start + j) % period for j in range(length)}
        bits = sum(1 << i for i in range(n) if i % period in residues)
        if layout == "flipped":
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                bits ^= 1 << i
    shifts = draw(st.lists(st.integers(-n - 3, 2 * n + 3), max_size=12))
    wrong = st.integers(1, 2 * n + 2)
    hint = draw(
        st.one_of(
            st.just({}),
            st.just(_rotation_hint(period)),
            wrong.map(_rotation_hint),
            st.tuples(wrong, wrong).map(lambda ls: _rotation_hint(period, *ls)),
            st.sampled_from(UNREADABLE_HINTS),
        )
    )
    claim = Fraction(draw(st.integers(0, n)), n)
    return Certificate(n, bits, tuple(shifts), k, claim, provenance=hint)


@given(hinted_certificates())
@example(Certificate(12, 0b000100010001, (0, -4, 4, 7, 12, 40), 1, Fraction(1, 4),
                     provenance=_rotation_hint(4)))
# residues 4 and 0 mod 5 meet only across the wrap: 4, 5 is a progression of gap 1
@example(Certificate(20, sum(1 << i for i in range(20) if i % 5 in (0, 4)), (1,), 1, Fraction(0),
                     provenance=_rotation_hint(5)))
@example(Certificate(30, sum(1 << i for i in range(0, 30, 5)), (1, 2, 3, 5), 2, Fraction(0),
                     provenance=_rotation_hint(5)))
@example(Certificate(30, sum(1 << i for i in range(0, 30, 5)), (-1, 3), 1, Fraction(0),
                     provenance={"kind": "rotation", "beta": ["1/0"], "witness": _HINT_WITNESS}))
@settings(max_examples=300)
def test_verifier_matches_the_whole_scan_oracle_under_any_hint(cert):
    assert verify_certificate(cert) == verify_certificate_by_scan(cert)


def test_period_hints_read_only_what_they_can():
    def hints(provenance):
        return certificates._period_hints(Certificate(10, 1, (), 1, 0, provenance))

    assert hints(_rotation_hint(4, 6, 4)) == [4, 6]
    # L at or above the horizon gives no hint
    assert hints(_rotation_hint(10, 3)) == [3]
    for hint in UNREADABLE_HINTS:
        assert hints(hint) == []


def test_default_stages_verify_on_residue_folds_alone(tmp_path, monkeypatch):
    from reclab.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_json(
        {
            "experiment": "theorem_stage",
            "params": {"stages": 3, "delta_prime": "1/1000", "N": 1_000_000, "m_max": 12},
            "out_dir": str(tmp_path),
        }
    )
    assert run_experiment(config).status == "PASS"
    cert = load_certificate(tmp_path / "certificate.json")
    assert cert.provenance["kind"] == "rotation-product" and len(cert.shifts) > 500
    scans = []
    hits = certificates._progression_hits
    monkeypatch.setattr(
        certificates, "_progression_hits", lambda *args: scans.append(args[1]) or hits(*args)
    )
    assert verify_certificate(cert).ok
    # every shift is cleared by a fold: none falls back to the whole-bitset scan
    assert scans == []


def test_density_shortfall_reported():
    cert = certificate_from_members(100, [0, 2, 4], (1,), 1, Fraction(1, 4))
    result = verify_certificate(cert)
    assert not result.ok
    assert not result.density_ok
    assert result.violating_shift is None
    assert result.density == Fraction(3, 100)


def test_zero_shift_and_empty_base_set():
    nonempty = certificate_from_members(10, [3, 7], (0,), 1, Fraction(0))
    result = verify_certificate(nonempty)
    assert not result.ok
    assert result.violating_shift == 0
    assert result.witness_start == 3
    empty = Certificate(10, 0, (0, 1, 2), 2, Fraction(0))
    assert verify_certificate(empty).ok


def test_certificate_validation():
    with pytest.raises(ValueError):
        Certificate(0, 0, (), 1, Fraction(0))
    with pytest.raises(ValueError):
        Certificate(4, 1 << 4, (), 1, Fraction(0))
    with pytest.raises(ValueError):
        Certificate(4, 1, (), 0, Fraction(0))
    with pytest.raises(ValueError):
        Certificate(4, 1, (), 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        certificate_from_members(4, [4], (), 1, Fraction(0))


def test_members_roundtrip():
    cert = certificate_from_members(12, [0, 5, 11], (3,), 1, Fraction(1, 4))
    assert certificate_members(cert) == [0, 5, 11]
    assert cert.size == 3
    assert cert.density == Fraction(3, 12)
    assert cert.shifts == (3,)


# ---------------------------------------------------------------------------
# band witnesses and the disjointness argument


def test_band_measure_hand_values():
    assert BandWitness(r=1, a=Fraction(1, 8), t=0).measure() == Fraction(1, 4)
    # off-band probability 2/3 per coordinate, keep at most one
    w = BandWitness(r=2, a=Fraction(1, 6), t=1)
    assert w.measure() == Fraction(5, 9)
    # whole torus
    assert BandWitness(r=3, a=Fraction(1, 5), t=3).measure() == 1


@given(
    r=st.integers(1, 9),
    data=st.data(),
    a=st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2), max_denominator=64),
)
def test_band_and_ball_measures_are_one_binomial_tail(r, data, a):
    t = data.draw(st.integers(0, r))
    tail = binomial_tail(r, t, a)
    # the sum BandWitness.measure computed on its own before sharing the tail
    band_sum = sum(
        math.comb(r, j) * (1 - 2 * a) ** j * (2 * a) ** (r - j) for j in range(t + 1)
    )
    assert tail == band_sum == BandWitness(r=r, a=a, t=t).measure()
    if t < r:
        assert tail == ApproxHammingBall(zero_point(r), t, a).measure()
    else:
        assert tail == 1


@given(
    coords=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=40),
        min_size=3,
        max_size=3,
    )
)
def test_band_contains_matches_deviation_count(coords):
    w = BandWitness(r=3, a=Fraction(1, 5), t=1)
    x = TorusPoint.of(coords)
    assert w.orbit_contains(coords, [1])[0] == (deviation_count(x, Fraction(1, 5)) <= 1)


def test_band_witness_validation():
    with pytest.raises(ValueError):
        BandWitness(r=0, a=Fraction(1, 4), t=0)
    with pytest.raises(ValueError):
        BandWitness(r=2, a=Fraction(2, 3), t=0)
    with pytest.raises(ValueError):
        BandWitness(r=2, a=Fraction(0), t=0)
    with pytest.raises(ValueError):
        BandWitness(r=2, a=Fraction(1, 4), t=3)
    with pytest.raises(ValueError):
        BandWitness(r=2, a=Fraction(1, 4), t=0).orbit_contains([Fraction(0)], [1])


def test_disjointness_counting_condition():
    w = BandWitness(r=4, a=Fraction(15, 64), t=1)
    ball = ApproxHammingBall(center=half_center(4), k=1, eps=Fraction(1, 64))
    assert band_ball_disjoint(w, ball)
    # threshold too large: r <= 2t + k
    assert not band_ball_disjoint(BandWitness(r=4, a=Fraction(15, 64), t=2), ball)
    # radii too large: 2a + eps > 1/2
    wide = ApproxHammingBall(center=half_center(4), k=1, eps=Fraction(1, 8))
    assert not band_ball_disjoint(BandWitness(r=4, a=Fraction(1, 4), t=1), wide)
    # ball must sit at the all-halves point
    off = ApproxHammingBall(center=TorusPoint.of([Fraction(1, 2)] * 3 + [Fraction(1, 3)]), k=1, eps=Fraction(1, 64))
    assert not band_ball_disjoint(w, off)
    with pytest.raises(ValueError):
        band_ball_disjoint(BandWitness(r=3, a=Fraction(1, 8), t=0), ball)


def test_boundary_toy_is_disjoint():
    # 2a + eps = 1/2 exactly; strict memberships carry the argument
    w = BandWitness(r=1, a=Fraction(1, 8), t=0)
    ball = ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 4))
    assert band_ball_disjoint(w, ball)
    assert sample_band_disjointness(w, ball, samples=20_000, seed=3) == 0


def test_disjointness_probe_detects_overlap():
    # degenerate witness covers the whole torus, so every sampled sum
    # lands back inside it
    w = BandWitness(r=2, a=Fraction(1, 8), t=2)
    ball = ApproxHammingBall(center=half_center(2), k=0, eps=Fraction(1, 4))
    assert not band_ball_disjoint(w, ball)
    assert sample_band_disjointness(w, ball, samples=500, seed=3) == 500


def band_points(w, n, seed):
    return certificates._sample_band_points(SplitMix64(seed), w, certificates._band_cuts(w), n)


@given(
    r=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chosen_subsets_have_exactly_the_requested_sizes(r, data, seed):
    n = data.draw(st.integers(1, 200), label="n")
    if data.draw(st.booleans(), label="per column"):
        need = np.array(data.draw(st.lists(st.integers(0, r), min_size=n, max_size=n), label="need"))
    else:
        need = np.full(n, data.draw(st.integers(0, r), label="k"))
    chosen = certificates._choose_subsets(SplitMix64(seed), r, need)
    assert chosen.shape == (r, n) and chosen.dtype == bool
    assert (chosen.sum(axis=0) == need).all()


@pytest.mark.parametrize("r, k", [(2, 1), (5, 2), (7, 3), (85, 2)])
def test_chosen_subsets_pick_each_coordinate_at_rate_need_over_r(r, k):
    # every coordinate, first and last alike, within 5 binomial standard deviations
    n = 20_000
    chosen = certificates._choose_subsets(SplitMix64(r), r, np.full(n, k))
    p = k / r
    for f in chosen.mean(axis=1):
        assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / n)


@given(
    r=st.integers(1, 6),
    data=st.data(),
    eps=st.sampled_from([Fraction(1, 1024), Fraction(1, 64), Fraction(1, 8), Fraction(1, 2)]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_ball_points_lie_in_the_ball(r, data, eps, n, seed):
    ball = ApproxHammingBall(center=half_center(r), k=data.draw(st.integers(0, r - 1), label="k"), eps=eps)
    u = certificates._sample_ball_points(SplitMix64(seed), ball, n)
    assert u.shape == (r, n)
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert all(ball_contains(ball, TorusPoint.of(certificates._exact_point(column))) for column in u.T)
    inside = (abs(u - 0.5) < float(eps)).sum(axis=0)
    assert (inside >= r - ball.k).all()


@given(
    r=st.integers(1, 6),
    data=st.data(),
    a=st.sampled_from([Fraction(1, 10), Fraction(1, 8), Fraction(1, 3), Fraction(3, 8), Fraction(1, 2)]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_rows_lie_in_the_band_set(r, data, a, n, seed):
    w = BandWitness(r=r, a=a, t=data.draw(st.integers(0, r), label="t"))
    x = band_points(w, n, seed)
    assert x.shape == (r, n)
    assert ((x >= 0.0) & (x <= 1.0)).all()
    assert all(band_contains(w, TorusPoint.of(certificates._exact_point(column))) for column in x.T)


@pytest.mark.parametrize(
    "r, a, t",
    [(5, Fraction(1, 8), 2), (2, Fraction(3, 16), 0), (6, Fraction(3, 16), 3), (4, Fraction(1, 4), 4), (3, Fraction(1, 2), 1)],
)
@pytest.mark.parametrize("seed", [0, 11])
def test_band_rows_off_band_counts_follow_the_conditional_binomial(r, a, t, seed):
    # with a dyadic the float count of each point is its drawn off-band
    # count J; every bin and every coordinate's off-band share must lie
    # within 5 binomial standard deviations of the exact law
    n = 100_000
    w = BandWitness(r=r, a=a, t=t)
    off = certificates._off_band(band_points(w, n, seed), float(a))
    freq = np.bincount(off.sum(axis=0), minlength=r + 1) / n
    law = [
        float(math.comb(r, j) * (1 - 2 * a) ** j * (2 * a) ** (r - j) / w.measure()) if j <= t else 0.0
        for j in range(r + 1)
    ]
    for f, p in zip(freq, law):
        assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / n)
    share = sum(j * p for j, p in enumerate(law)) / r
    for f in off.mean(axis=1):
        assert abs(f - share) <= 5 * math.sqrt(share * (1 - share) / n)


@given(
    r=st.integers(1, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 37, 1000, certificates.PROBE_BLOCK]),
)
def test_probe_and_rejection_oracle_agree_where_the_answer_is_certain(r, data, seed, block):
    k = data.draw(st.integers(0, r - 1), label="k")
    eps = data.draw(st.sampled_from([Fraction(1, 64), Fraction(1, 16), Fraction(1, 8)]), label="eps")
    ball = ApproxHammingBall(center=half_center(r), k=k, eps=eps)
    if data.draw(st.booleans(), label="disjoint"):
        # the widest band and any threshold the counting argument allows
        t = data.draw(st.integers(0, (r - k - 1) // 2), label="t")
        w = BandWitness(r=r, a=Fraction(1, 4) - eps / 2, t=t)
        assert band_ball_disjoint(w, ball)
        samples = data.draw(st.integers(1, 400), label="samples")
        expected = 0
    else:
        # E is the whole torus, so every sampled sum lands back in it
        a = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]), label="a")
        w = BandWitness(r=r, a=a, t=r)
        samples = data.draw(st.integers(1, 40), label="samples")
        expected = samples
    assert sample_band_disjointness_by_rejection(w, ball, samples=samples, seed=seed) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificates, "PROBE_BLOCK", block)
        assert sample_band_disjointness(w, ball, samples=samples, seed=seed) == expected


@pytest.mark.parametrize(
    "r, a, t, k, eps",
    [
        (3, Fraction(3, 16), 1, 1, Fraction(1, 16)),
        (2, Fraction(1, 4), 0, 0, Fraction(1, 8)),
        (1, Fraction(3, 8), 0, 0, Fraction(1, 4)),
    ],
)
def test_probe_and_rejection_oracle_violation_rates_agree(r, a, t, k, eps):
    # both draw x uniformly from E and u the same way, so on overlapping
    # pairs the two rates estimate one probability: they must agree
    # within 5 standard deviations of the difference of two such rates
    w = BandWitness(r=r, a=a, t=t)
    ball = ApproxHammingBall(center=half_center(r), k=k, eps=eps)
    assert not band_ball_disjoint(w, ball)
    n = 3_000
    direct = sample_band_disjointness(w, ball, samples=n, seed=5) / n
    rejection = sample_band_disjointness_by_rejection(w, ball, samples=n, seed=6) / n
    pooled = (direct + rejection) / 2
    assert 0 < pooled < 1
    assert abs(direct - rejection) <= 5 * math.sqrt(2 * pooled * (1 - pooled) / n)


@pytest.mark.parametrize("r", [1, 2, 5, 300])
@pytest.mark.parametrize("a", [0.1875, 0.25 + 1e-9, 0.5])
def test_off_band_counts_match_the_min_distance_count(r, a):
    # points at, just inside and just outside both band edges, and r past uint8
    edges = [a, 1.0 - a, np.nextafter(a, 0), np.nextafter(a, 1), np.nextafter(1.0 - a, 1), 0.0]
    rng = np.random.default_rng(r)
    x = np.concatenate([rng.choice(edges, size=(r, 64)), rng.random((r, 64))], axis=1)
    expected = (np.minimum(x, 1.0 - x) >= a).sum(axis=0)
    assert (certificates._off_band(x, a).sum(axis=0) == expected).all()


def test_probe_computes_the_thresholds_once_per_call(monkeypatch):
    # t cut points and m(E) itself, however many blocks the samples take
    calls = []
    tail = certificates.binomial_tail

    def counted(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(certificates, "binomial_tail", counted)
    w = BandWitness(r=7, a=Fraction(15, 64), t=3)
    ball = ApproxHammingBall(center=half_center(7), k=0, eps=Fraction(1, 32))
    assert band_ball_disjoint(w, ball)
    monkeypatch.setattr(certificates, "PROBE_BLOCK", 14)
    assert sample_band_disjointness(w, ball, samples=500, seed=1) == 0
    assert len(calls) == w.t + 1


def test_probe_memory_does_not_grow_with_r():
    # the witnesses and balls of build_band_witness(2, 2/5) and build_band_witness(1, 1/8)
    wide = BandWitness(r=85, a=Fraction(255, 1024), t=41)
    assert wide.measure() > Fraction(2, 5)
    cases = [
        (wide, ApproxHammingBall(center=half_center(85), k=2, eps=Fraction(1, 1024))),
        (BandWitness(r=2, a=Fraction(3, 16), t=0), ApproxHammingBall(center=half_center(2), k=1, eps=Fraction(1, 16))),
    ]
    bound_mib = 4
    for w, ball in cases:
        assert band_ball_disjoint(w, ball)
        tracemalloc.start()
        try:
            assert sample_band_disjointness(w, ball, samples=100_000, seed=11) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (w.r, peak)


def test_measure_probe_within_three_sigma():
    w = BandWitness(r=4, a=Fraction(15, 64), t=1)
    samples = 1_000_000
    freq = sample_band_measure(w, samples=samples, seed=11)
    exact = w.measure()
    sigma = math.sqrt(float(exact * (1 - exact)) / samples)
    assert abs(float(freq - exact)) <= 3 * sigma


# ---------------------------------------------------------------------------
# searching for a witness


def test_build_band_witness_quarter():
    witness, ball, proof = build_band_witness(1, Fraction(1, 4), samples=20_000)
    assert witness.measure() > Fraction(1, 4)
    assert witness.r > 2 * witness.t + 1
    assert ball.k == 1 and ball.center == half_center(witness.r)
    assert band_ball_disjoint(witness, ball)
    assert proof["mc_violations"] == 0
    assert proof["slack"] == witness.r - 2 * witness.t - 1
    assert Fraction(1, 4) == Fraction(proof["a"]) + 2 * Fraction(proof["eps"]) - Fraction(proof["eps"])


def test_build_band_witness_small_eta_small_r():
    witness, ball, _ = build_band_witness(1, Fraction(1, 100), samples=5_000)
    assert witness.r == 2 and witness.t == 0
    assert witness.measure() > Fraction(1, 100)


def test_build_band_witness_eta_validation():
    for eta in (Fraction(1, 2), Fraction(0), Fraction(-1, 4), Fraction(3, 4)):
        with pytest.raises(ValueError):
            build_band_witness(1, eta)


def test_build_band_witness_exhaustion_reports_budget():
    with pytest.raises(SearchExhausted) as info:
        build_band_witness(1, Fraction(2, 5), r_max=2, samples=100)
    assert info.value.details["r_max"] == 2


# ---------------------------------------------------------------------------
# orbit bitsets and rotation certificates


def test_return_bitset_matches_pointwise_membership(monkeypatch):
    w = BandWitness(r=2, a=Fraction(1, 6), t=1)
    freq = TorusPoint.of([Fraction(2, 9), Fraction(1, 7)])
    bits = band_return_bitset(w, freq, 200)
    expected = 0
    for n in range(200):
        if band_contains(w, scaled(freq, n)):
            expected |= 1 << n
    assert bits == expected
    # scans that cross block boundaries, including one-element blocks
    for block in (1, 7, 64):
        monkeypatch.setattr("reclab.torus.SCAN_BLOCK", block)
        assert band_return_bitset(w, freq, 200) == expected


def test_return_bitset_huge_denominator_fallback():
    w = BandWitness(r=1, a=Fraction(1, 8), t=0)
    freq = TorusPoint.of([Fraction(12345, 2**40 + 1)])
    bits = band_return_bitset(w, freq, 300)
    expected = 0
    for n in range(300):
        if band_contains(w, scaled(freq, n)):
            expected |= 1 << n
    assert bits == expected


small_fractions = st.builds(Fraction, st.integers(0, 60), st.integers(1, 12))


@given(
    coords=st.lists(small_fractions, min_size=1, max_size=3),
    a=st.fractions(min_value=Fraction(1, 30), max_value=Fraction(1, 2), max_denominator=30),
    data=st.data(),
    block=st.sampled_from([1, 7, 64, torus.SCAN_BLOCK]),
)
def test_return_bitset_matches_the_per_n_oracle(coords, a, data, block):
    beta = TorusPoint.of(coords)
    w = BandWitness(r=beta.dim, a=a, t=data.draw(st.integers(0, beta.dim), label="t"))
    period = math.lcm(*(c.denominator for c in beta.coords))
    n_max = data.draw(st.integers(1, min(3 * period + 1, 800)), label="n_max")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torus, "SCAN_BLOCK", block)
        assert band_return_bitset(w, beta, n_max) == band_return_bitset_per_n(w, beta, n_max)


def period_edge_cases():
    """(witness, beta, n_max) around the period L of beta, and past it."""
    sixth = Fraction(1, 6)
    cases = [(BandWitness(r=2, a=sixth, t=0), TorusPoint.of([0, 0]), n) for n in (1, 2, 9, 100)]
    # L = 21 is no multiple of 8, so each tiling shift cuts a byte
    beta = TorusPoint.of([Fraction(1, 3), Fraction(2, 7)])
    cases += [(BandWitness(r=2, a=sixth, t=1), beta, n) for n in (1, 20, 21, 22, 62, 64, 200)]
    beta = TorusPoint.of([Fraction(3, 8), Fraction(1, 4)])
    cases += [(BandWitness(r=2, a=Fraction(3, 16), t=1), beta, n) for n in (7, 8, 9, 23, 25)]
    # L = 6125 is beyond the horizon: one partial period
    beta = TorusPoint.of([Fraction(7, 125), Fraction(4, 49)])
    cases.append((BandWitness(r=2, a=sixth, t=1), beta, 500))
    # a denominator above 3,037,000,500 takes the Python-int residues
    beta = TorusPoint.of([Fraction(1, 3), Fraction(12345, 2**32 + 15)])
    cases += [(BandWitness(r=2, a=Fraction(1, 8), t=1), beta, n) for n in (1, 50, 300)]
    return cases


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_return_bitset_tiles_the_period_exactly(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr("reclab.torus.SCAN_BLOCK", block)
    for w, beta, n_max in period_edge_cases():
        assert band_return_bitset(w, beta, n_max) == band_return_bitset_per_n(w, beta, n_max)


def test_return_bitset_validation():
    w = BandWitness(r=2, a=Fraction(1, 6), t=1)
    with pytest.raises(ValueError):
        band_return_bitset(w, TorusPoint.of([Fraction(1, 3)]), 10)
    with pytest.raises(ValueError):
        band_return_bitset(w, TorusPoint.of([Fraction(1, 3), Fraction(1, 5)]), 0)


def test_rotation_toy_full_enumeration():
    w = BandWitness(r=1, a=Fraction(1, 8), t=0)
    ball = ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 4))
    freq = TorusPoint.of([Fraction(1, 16)])
    cert = rotation_certificate(w, ball, freq, 64, returns(freq, ball, 64))
    beta = Fraction(1, 16)
    expected_b = [
        n for n in range(64) if min(n * beta % 1, 1 - n * beta % 1) < Fraction(1, 8)
    ]
    expected_s = [
        n
        for n in range(1, 65)
        if min(abs(n * beta % 1 - Fraction(1, 2)), 1 - abs(n * beta % 1 - Fraction(1, 2)))
        < Fraction(1, 4)
    ]
    assert certificate_members(cert) == expected_b
    assert sorted({n % 16 for n in certificate_members(cert)}) == [0, 1, 15]
    assert list(cert.shifts) == expected_s
    assert sorted({s % 16 for s in cert.shifts}) == [5, 6, 7, 8, 9, 10, 11]
    assert cert.density_claim == Fraction(12, 64)
    assert cert.provenance["target_density"] == "1/4"
    assert verify_certificate(cert).ok


def test_rotation_degenerate_torus_needs_empty_returns():
    whole = BandWitness(r=1, a=Fraction(1, 8), t=1)
    tiny = ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 16))
    # 1/5 never returns to the narrow window around 1/2
    fifth = TorusPoint.of([Fraction(1, 5)])
    cert = rotation_certificate(whole, tiny, fifth, 40, returns(fifth, tiny, 40))
    assert cert.shifts == ()
    assert cert.density == 1
    assert verify_certificate(cert).ok
    # 1/2 returns on every odd multiple, and B is the whole window
    half = TorusPoint.of([Fraction(1, 2)])
    with pytest.raises(CertificateRejected) as err:
        rotation_certificate(whole, tiny, half, 40, returns(half, tiny, 40))
    (label, check), = err.value.diagnostics
    assert label == "rotation" and check.violating_shift == 1 and check.witness_start == 0


def test_rotation_horizon_below_first_return():
    w = BandWitness(r=1, a=Fraction(1, 8), t=0)
    ball = ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 4))
    freq = TorusPoint.of([Fraction(1, 16)])
    cert = rotation_certificate(w, ball, freq, 4, returns(freq, ball, 4))
    assert cert.shifts == ()
    assert certificate_members(cert) == [0, 1]


def test_rotation_dimension_mismatch():
    w = BandWitness(r=2, a=Fraction(1, 8), t=0)
    ball = ApproxHammingBall(center=half_center(2), k=1, eps=Fraction(1, 8))
    with pytest.raises(ValueError):
        rotation_certificate(w, ball, TorusPoint.of([Fraction(1, 16)]), 10, ())


#: band/ball pairs that meet the counting argument, so every return time verifies
DISJOINT_PAIRS = (
    (BandWitness(r=1, a=Fraction(1, 8), t=0),
     ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 4))),
    (BandWitness(r=2, a=Fraction(3, 16), t=0),
     ApproxHammingBall(center=half_center(2), k=1, eps=Fraction(1, 16))),
    (BandWitness(r=3, a=Fraction(1, 8), t=0),
     ApproxHammingBall(center=half_center(3), k=2, eps=Fraction(1, 4))),
)


def pointwise_rotation(w, ball, freq, n_max):
    """The rotation certificate whose S is every return over [1, n_max], point by point."""
    bits = sum(1 << n for n in range(n_max) if band_contains(w, scaled(freq, n)))
    shifts = [n for n in range(1, n_max + 1) if ball_contains(ball, scaled(freq, n))]
    provenance = {
        "kind": "rotation",
        "beta": freq.to_json(),
        "witness": w.to_json(),
        "ball": ball.to_json(),
        "target_density": fraction_str(w.measure()),
        "disjoint": True,
    }
    return Certificate(n_max, bits, shifts, 1, Fraction(bits.bit_count(), n_max), provenance)


@given(
    pair=st.sampled_from(DISJOINT_PAIRS),
    coords=st.lists(
        st.tuples(st.integers(0, 96), st.integers(1, 97)), min_size=3, max_size=3
    ),
    n_max=st.integers(min_value=1, max_value=150),
)
def test_rotation_certificate_certifies_the_given_shifts(pair, coords, n_max):
    w, ball = pair
    assert band_ball_disjoint(w, ball)
    freq = TorusPoint.of(Fraction(a, b) for a, b in coords[: w.r])
    expected = pointwise_rotation(w, ball, freq, n_max)
    cert = rotation_certificate(w, ball, freq, n_max, returns(freq, ball, n_max))
    assert cert == expected  # bits, shifts, claim and provenance
    squares = [
        x * x
        for x in range(1, math.isqrt(n_max) + 1)
        if ball_contains(ball, scaled(freq, x * x))
    ]
    assert rotation_certificate(w, ball, freq, n_max, squares) == replace(
        expected, shifts=squares
    )


def test_rotation_rejects_a_shift_outside_the_return_set():
    w, ball = DISJOINT_PAIRS[0]
    freq = TorusPoint.of([Fraction(1, 16)])
    # 16*beta = 0 is no return, and B holds both 0 and 16
    with pytest.raises(CertificateRejected) as err:
        rotation_certificate(w, ball, freq, 64, returns(freq, ball, 64) + [16])
    (label, check), = err.value.diagnostics
    assert label == "rotation"
    assert (check.violating_shift, check.witness_start) == (16, 0)
    assert check.density_ok


# ---------------------------------------------------------------------------
# combination and the dilation search


def test_combine_evens_at_three():
    ev = evens_certificate()
    combined = combine_certificates(ev, ev, 3)
    assert combined.shifts == (1, 3)
    assert combined.density_claim == 2 * Fraction(49, 100) ** 2
    assert combined.density == Fraction(1, 2)
    assert combined.density > combined.density_claim
    assert verify_certificate(combined).ok


def test_combine_rejects_impossible_gap_pair():
    ev = evens_certificate()
    with pytest.raises(CertificateRejected) as info:
        combine_certificates(ev, ev, 2)
    assert info.value.m == 2
    assert info.value.diagnostics
    for _, check in info.value.diagnostics:
        assert check.violating_shift == 2


def test_combine_rejects_vacuous_dilation():
    ev = evens_certificate()
    with pytest.raises(CertificateRejected) as info:
        combine_certificates(ev, ev, 1)
    assert info.value.m == 1


def test_combine_beyond_horizon_reduces_to_first():
    ev = evens_certificate()
    combined = combine_certificates(ev, ev, 101)
    assert combined.shifts == (1,)
    assert combined.horizon == 100
    assert verify_certificate(combined).ok


# a recorded band-rotation ancestry, so the product-rotation candidate is tried
TOY_ROTATION = {
    "kind": "rotation",
    "witness": BandWitness(r=1, a=Fraction(1, 8), t=0).to_json(),
    "beta": TorusPoint.of([Fraction(1, 16)]).to_json(),
}


@st.composite
def k1_certificates(draw):
    """k = 1 certificates that may or may not verify, with or without ancestry."""
    horizon = draw(st.integers(1, 48))
    return Certificate(
        horizon=horizon,
        bits=draw(st.integers(0, (1 << horizon) - 1)),
        shifts=tuple(draw(st.lists(st.integers(0, 60), max_size=6))),
        k=1,
        density_claim=draw(st.fractions(0, 1, max_denominator=48)),
        provenance=draw(st.sampled_from([{}, TOY_ROTATION])),
    )


@given(c1=k1_certificates(), c2=k1_certificates(), m=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_combine_preconditions(c1, c2, m):
    ev = evens_certificate()
    three_ap = certificate_from_members(
        102, [n for n in range(102) if n % 6 in (0, 1)], (2,), 2, Fraction(1, 3)
    )
    with pytest.raises(ValueError):
        combine_certificates(ev, three_ap, 3)
    with pytest.raises(ValueError):
        combine_certificates(ev, ev, 0)
    # the inputs are not verified: whatever they hold, a merge that
    # succeeds has passed its own check
    try:
        merged = combine_certificates(c1, c2, m)
    except CertificateRejected:
        return
    assert verify_certificate(merged).ok


def build_rotation_pair(horizon=3000):
    witness, ball, _ = build_band_witness(1, Fraction(1, 100), samples=2_000)
    f1 = TorusPoint.of([Fraction(3, 64), Fraction(5, 81)])
    f2 = TorusPoint.of([Fraction(7, 125), Fraction(4, 49)])
    c1 = rotation_certificate(witness, ball, f1, horizon, returns(f1, ball, horizon))
    c2 = rotation_certificate(witness, ball, f2, horizon, returns(f2, ball, horizon))
    # halve the claims so the product witness has density to spare
    modest1 = Certificate(c1.horizon, c1.bits, c1.shifts, 1, c1.density_claim / 2, c1.provenance)
    modest2 = Certificate(c2.horizon, c2.bits, c2.shifts, 1, c2.density_claim / 2, c2.provenance)
    return modest1, modest2


def test_combine_uses_product_rotation_witness():
    c1, c2 = build_rotation_pair()
    combined = combine_certificates(c1, c2, 2)
    assert combined.provenance["candidate"] == "product-rotation"
    assert combined.provenance["kind"] == "rotation-product"
    assert combined.density_claim == 2 * c1.density_claim * c2.density_claim
    assert verify_certificate(combined).ok
    factors = combined.provenance["factors"]
    assert len(factors) == 2
    beta2 = TorusPoint.from_json(factors[1]["beta"])
    original = TorusPoint.from_json(c2.provenance["beta"])
    assert beta2 == TorusPoint.of([c / 2 for c in original.coords])
    # a product certificate still carries usable ancestry: chain once more
    chained = combine_certificates(
        combined,
        Certificate(c1.horizon, c1.bits, c1.shifts, 1, c1.density_claim / 4, c1.provenance),
        3,
    )
    assert chained.provenance["candidate"] == "product-rotation"
    assert verify_certificate(chained).ok


def product_inputs(kind, tmp_path):
    """(c1, c2, m) for a product merge; roundtrip cases reload from disk."""
    c1, c2 = build_rotation_pair()
    if kind == "m=1":
        return c1, c2, 1
    if kind == "m>1":
        return c1, c2, 2
    product = combine_certificates(c1, c2, 2)
    second = replace(c1, density_claim=c1.density_claim / 4)
    if kind == "chained":
        return product, second, 3
    for name, cert in (("product", product), ("second", second)):
        (tmp_path / f"{name}.json").write_text(certificate_text(cert))
    return load_certificate(tmp_path / "product.json"), load_certificate(tmp_path / "second.json"), 3


@pytest.mark.parametrize("kind", ["m=1", "m>1", "chained", "roundtrip"])
def test_product_rotation_bits_are_the_and_of_fresh_factor_bitsets(tmp_path, kind):
    c1, c2, m = product_inputs(kind, tmp_path)
    assert c1.bits == product_bits_from_factors(c1)
    combined = combine_certificates(c1, c2, m)
    assert combined.provenance["candidate"] == "product-rotation"
    assert combined.bits == product_bits_from_factors(combined)


def test_product_merge_at_m2_tiles_the_divided_periods():
    # periods 63 and 55 (110 once divided by 2) lie far below the horizon
    witness, ball, _ = build_band_witness(1, Fraction(1, 100), samples=2_000)
    f1 = TorusPoint.of([Fraction(1, 7), Fraction(2, 9)])
    f2 = TorusPoint.of([Fraction(1, 5), Fraction(3, 11)])
    horizon = 700
    c1, c2 = (
        rotation_certificate(witness, ball, f, horizon, returns(f, ball, horizon))
        for f in (f1, f2)
    )
    combined = combine_certificates(
        replace(c1, density_claim=c1.density_claim / 2),
        replace(c2, density_claim=c2.density_claim / 2),
        2,
    )
    assert combined.provenance["candidate"] == "product-rotation"
    assert combined.bits == product_bits_from_factors(combined)
    half_f2 = TorusPoint.of([c / 2 for c in f2.coords])
    per_n = band_return_bitset_per_n(witness, f1, horizon) & band_return_bitset_per_n(witness, half_f2, horizon)
    assert combined.bits == per_n


def test_combine_builds_only_the_divided_factor_bitsets(monkeypatch):
    c1, c2 = build_rotation_pair()
    built = []
    bitset = certificates.band_return_bitset

    def counted(witness, beta, n_max):
        built.append(beta)
        return bitset(witness, beta, n_max)

    monkeypatch.setattr(certificates, "band_return_bitset", counted)
    combine_certificates(c1, c2, 1)
    assert built == []
    product = combine_certificates(c1, c2, 2)
    assert built == [TorusPoint.from_json(product.provenance["factors"][1]["beta"])]


def test_search_min_m_finds_three():
    ev = evens_certificate()
    m, combined = search_min_m(ev, ev, 10)
    assert m == 3
    assert combined.shifts == (1, 3)


def test_search_min_m_trivial_on_empty_second_set():
    ev = evens_certificate()
    empty = evens_certificate(shifts=())
    m, combined = search_min_m(ev, empty, 5)
    assert m == 1
    assert combined.shifts == (1,)


def test_search_min_m_exhaustion_lists_attempts():
    ev = evens_certificate()
    with pytest.raises(SearchExhausted) as info:
        search_min_m(ev, ev, 1)
    assert [m for m, _ in info.value.details] == [1]
    with pytest.raises(ValueError):
        search_min_m(ev, ev, 0)


# ---------------------------------------------------------------------------
# the square map


def test_square_rewrites_single_shift():
    cert = certificate_from_members(12, [0, 1, 2, 3], (2,), 1, Fraction(1, 4))
    squared = square_certificate(cert)
    assert squared.shifts == (4,)
    assert verify_certificate(squared).ok


def test_square_of_evens_combination():
    ev = evens_certificate()
    combined = combine_certificates(ev, ev, 3)
    squared = square_certificate(combined)
    assert squared.shifts == (1, 9)
    assert squared.density_claim == combined.density_claim
    assert verify_certificate(squared).ok


def test_square_empty_is_vacuous():
    cert = certificate_from_members(10, [0, 1], (), 1, Fraction(1, 5))
    squared = square_certificate(cert)
    assert squared.shifts == ()
    assert verify_certificate(squared).ok


def test_square_rejection_carries_diagnostics():
    cert = evens_certificate(shifts=(2,))
    with pytest.raises(CertificateRejected) as info:
        square_certificate(cert)
    assert info.value.diagnostics[0][1].violating_shift == 4


# ---------------------------------------------------------------------------
# persistence


def toy_certificate(horizon=60):
    w = BandWitness(r=1, a=Fraction(1, 8), t=0)
    ball = ApproxHammingBall(center=half_center(1), k=0, eps=Fraction(1, 4))
    freq = TorusPoint.of([Fraction(1, 16)])
    return rotation_certificate(w, ball, freq, horizon, returns(freq, ball, horizon))


def test_json_roundtrip_is_bit_exact(tmp_path):
    cert = toy_certificate()
    doc = certificate_to_json(cert)
    assert doc["version"] == 1
    assert doc["deltaPrime"] == str(cert.density_claim)
    clone = certificate_from_json(json.loads(json.dumps(doc)))
    assert clone == cert
    path = tmp_path / "cert.json"
    write_atomic(str(path), certificate_text(cert))
    assert load_certificate(path) == cert
    assert not path.with_suffix(".json.tmp").exists()


def test_failed_save_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "cert.json"
    path.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_atomic(str(path), certificate_text(toy_certificate()))
    assert path.read_text() == "previous\n"
    assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]


def test_payload_is_word_padded_little_endian():
    cert = toy_certificate()
    raw = base64.b64decode(certificate_to_json(cert)["payload"])
    assert len(raw) == 8  # one 64-bit word for horizon 60
    assert int.from_bytes(raw, "little") == cert.bits


def test_load_rejects_corrupt_documents():
    doc = certificate_to_json(toy_certificate())
    with pytest.raises(ValueError):
        certificate_from_json(dict(doc, version=2))
    raw = bytearray(base64.b64decode(doc["payload"]))
    raw[-1] |= 0x80  # bit 63 is beyond the horizon of 60
    stray = dict(doc, payload=base64.b64encode(bytes(raw)).decode())
    with pytest.raises(ValueError):
        certificate_from_json(stray)
    short = dict(doc, payload=base64.b64encode(b"\x00").decode())
    with pytest.raises(ValueError):
        certificate_from_json(short)
