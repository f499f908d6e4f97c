#!/usr/bin/env python3
"""Fixed-size timings of the progression-form, joining and certificate kernels.

    PYTHONPATH=src python3 scripts/kernel_timings.py

Prints one JSON line: the best of five wall-clock runs, in seconds, of

- ``roth_form`` on complex grids at (q, d) = (135, 1) and (45, 2);
- ``roth_form_exact`` on an integer grid at (135, 1);
- ``SubgroupModel.elements`` on the order-945 joining base of a
  ``main_inequality`` grid run at q = 135, r = 5;
- the exact checkpoint averages of a weighted average over 135 terms;
- ``WeylSystem.correlation_series`` at N = 100000 on the trig polynomial
  of a ``main_inequality`` trig run at config seed 7 (13 zero-drift
  families), over all of 1..N and at the n where that run's window is on;
- one windowed ``weighted_average`` of that polynomial at N = 2000000,
  and its tracemalloc peak in MiB (one traced run, after the timings);
- ``band_return_bitset`` at N = 200000 with the band witness of a
  default ``theorem_stage`` run (k = 1, eta = 1/8) on each of its three
  stage frequencies, and on one frequency whose period 1009 * 997 is
  beyond N;
- ``sample_band_disjointness`` at 100000 samples on that witness and
  its ball, and on the r = 85 witness and ball of
  ``build_band_witness(2, 2/5)``, with its tracemalloc peak in MiB there
  (one traced run, after the timings);
- ``verify_certificate`` at N = 1000000 on the k = 1 rotation
  certificate of ``cert build --k 1 --eta 1/8 --freq 3/64 5/81`` (every
  return of the ball, 219,325 shifts) and on the final three-stage
  product certificate of a default ``theorem_stage`` run;
- ``max_triple_intersection`` on that run's 729-point contrast: the
  rotation by 1 on Z_729, its 2/5 interval mask and the unsquared shift
  base as the powers;
- ``triple_integrals`` at n = 1..945 on the 135 x 135 grid model of a
  ``main_inequality`` grid run (alpha = 2/135) for the two observables
  of the ``grid_large_q`` benchmark workload and one random observable
  (a battery of three at config seed 11), with the dtype each observable
  was lifted to and the keys per gathered block;
- the battery draw ``PCG64(11).integers(-2, 3, n)``, seeding included,
  at n = 135 (an ``x-only`` row at q = 135) and n = 135^2 (one random
  observable).
- the exact zero test ``root_of_unity_sum_is_zero`` at q = 945 on the
  counts of the phases 2 * w1 over the order-945 joining base above (a
  star-zero sum of that grid run, under the full window), and at
  q = 945945 = 3^3 * 5 * 7^2 * 11 * 13 (the phase modulus of ``beta``
  [1/49, 1/11, 1/13, 2/7, 3/7], at the enumeration cap) on weight 1 at
  every multiple of 3.

Inputs are drawn from fixed seeds, so runs on one machine compare.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from reclab import experiments, weyl
from reclab.bohr import BohrHammingBall, set_enumerate
from reclab.certificates import (
    band_return_bitset,
    build_band_witness,
    load_certificate,
    rotation_certificate,
    sample_band_disjointness,
    verify_certificate,
)
from reclab.harmonic import GridFunction, annihilating_cylinder
from reclab.joinings import extract_affine_joining, root_of_unity_sum_is_zero
from reclab.pcg64 import PCG64
from reclab.roth import roth_form, roth_form_exact
from reclab.torus import ApproxHammingBall, TorusPoint

REPEATS = 5


def best_of(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def complex_grid(q: int, d: int, seed: int) -> GridFunction:
    rng = np.random.default_rng(seed)
    shape = (q,) * d
    return GridFunction(d, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def trig_window_case(seed: int):
    """The system, polynomial, window and beta of a default trig run at config seed ``seed``."""
    alpha = experiments._parse_value({"convergent": "sqrt2"}, experiments._VALUE, "alpha")
    system = weyl.WeylSystem(TorusPoint.of([alpha]))
    table, _ = experiments._random_trig_table(6, seed)
    ball = ApproxHammingBall(TorusPoint.of([Fraction(0)] * 5), 4, Fraction(1, 8))
    window = annihilating_cylinder(ball, [])
    return system, table, window, TorusPoint.of(experiments._TRIG_BETA[:5])


def main() -> None:
    out: dict[str, object] = {}
    for q, d in ((135, 1), (45, 2)):
        f = complex_grid(q, d, seed=q + d)
        out[f"roth_form_q{q}_d{d}_s"] = best_of(lambda: roth_form(f, f, f))

    sums = np.random.default_rng(135).integers(-2, 3, size=135) * 135
    out["roth_form_exact_q135_d1_s"] = best_of(lambda: roth_form_exact(sums, sums, sums))

    r = 5
    beta = [Fraction(i, 7) for i in range(1, r + 1)]
    base = extract_affine_joining([Fraction(2, 135)], beta, 945).base
    out["elements_order945_s"] = best_of(base.elements)

    rng = np.random.default_rng(7)
    terms = [Fraction(int(v), 135**2) * Fraction(7, 3) for v in rng.integers(-500, 500, size=135)]
    marks = weyl._default_checkpoints(len(terms))
    weight = Fraction(1)
    out["checkpoint_averages_135_s"] = best_of(
        lambda: weyl._checkpoint_averages(terms, marks, marks, weight)
    )

    n_max = 100_000
    system, table, window, beta = trig_window_case(7)
    at = np.flatnonzero(window.orbit_contains(beta.coords, np.arange(1, n_max + 1), 2)) + 1
    out["correlation_series_1e5_full_s"] = best_of(lambda: system.correlation_series(table, n_max))
    out["correlation_series_1e5_hits_s"] = best_of(
        lambda: system.correlation_series(table, n_max, at=at)
    )
    out["correlation_series_1e5_hits"] = len(at)

    def average():
        return weyl.weighted_average(system, table, window, beta.coords, 2_000_000)

    out["trig_average_2e6_s"] = best_of(average)
    tracemalloc.start()
    average()
    out["trig_average_2e6_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    n_max = 200_000
    witness, ball, _ = build_band_witness(1, Fraction(1, 8))
    stages = experiments._stage_frequencies(witness.r)
    long_period = [Fraction(7, 1009), Fraction(11, 997)]
    for name, coords in [(f"stage{i + 1}", c) for i, c in enumerate(stages)] + [("long", long_period)]:
        beta = TorusPoint.of(coords)
        out[f"band_return_bitset_2e5_{name}_s"] = best_of(
            lambda: band_return_bitset(witness, beta, n_max)
        )
    out["sample_band_disjointness_1e5_s"] = best_of(
        lambda: sample_band_disjointness(witness, ball, samples=100_000, seed=11)
    )
    witness, ball, _ = build_band_witness(2, Fraction(2, 5))

    def probe():
        return sample_band_disjointness(witness, ball, samples=100_000, seed=11)

    out["sample_band_disjointness_1e5_r85_s"] = best_of(probe)
    tracemalloc.start()
    probe()
    out["sample_band_disjointness_1e5_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    n_max = 1_000_000
    witness, ball, _ = build_band_witness(1, Fraction(1, 8))
    freq = TorusPoint.of([Fraction(3, 64), Fraction(5, 81)])
    shifts = set_enumerate(BohrHammingBall(freq, ball), n_max).elems
    cert = rotation_certificate(witness, ball, freq, n_max, shifts)
    out["verify_rotation_1e6_s"] = best_of(lambda: verify_certificate(cert))
    out["verify_rotation_1e6_shifts"] = len(cert.shifts)
    with tempfile.TemporaryDirectory() as out_dir:
        config = experiments.ExperimentConfig.from_json(
            {
                "experiment": "theorem_stage",
                "params": {"stages": 3, "delta_prime": "1/1000", "N": n_max, "m_max": 12},
                "out_dir": out_dir,
            }
        )
        experiments.run_experiment(config)
        cert = load_certificate(os.path.join(out_dir, "certificate.json"))
        with open(os.path.join(out_dir, "shift_base.json"), "r", encoding="utf-8") as fh:
            runs = json.load(fh)["elems"]
    out["verify_stage_product_1e6_s"] = best_of(lambda: verify_certificate(cert))
    out["verify_stage_product_1e6_shifts"] = len(cert.shifts)
    steps = [start + i for start, length in runs for i in range(length)]
    contrast = weyl.RotationModel(729, (1,))
    mask = experiments._interval_mask((729,), Fraction(2, 5))
    out["contrast_729_s"] = best_of(
        lambda: weyl.max_triple_intersection(contrast, mask, steps, max(steps))
    )

    grid = weyl.GridWeylModel(135, (2,))
    battery = [values for _, values in experiments._battery_grids(135, 3, 11)]
    ns = range(1, 946)
    out["triple_integrals_q135_battery_s"] = best_of(
        lambda: [weyl.triple_integrals(grid, values, ns) for values in battery]
    )
    lifted = [weyl._lifted_windows(grid, values).values for values in battery]
    out["triple_integrals_q135_battery_dtypes"] = [str(v.dtype) for v in lifted]
    out["triple_integrals_q135_battery_keys_per_block"] = list(map(weyl._keys_per_block, lifted))

    for name, count in (("135", 135), ("135sq", 135**2)):
        out[f"battery_draw_{name}_s"] = best_of(lambda: PCG64(11).integers(-2, 3, count))

    base_945 = np.array(base.elements(), dtype=np.int64)
    counts = np.bincount(base_945[:, 0] * 2 % 945, minlength=945)
    out["root_of_unity_zero_q945_s"] = best_of(lambda: root_of_unity_sum_is_zero(counts))
    thirds = np.zeros(945945, dtype=np.int64)
    thirds[::3] = 1
    out["root_of_unity_zero_q945945_s"] = best_of(lambda: root_of_unity_sum_is_zero(thirds))

    out["repeats"] = REPEATS
    out["python"] = platform.python_version()
    out["numpy"] = np.__version__
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
