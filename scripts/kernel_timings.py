#!/usr/bin/env python3
"""Fixed-size timings of the progression-form and joining kernels.

    PYTHONPATH=src python3 scripts/kernel_timings.py

Prints one JSON line: the best of five wall-clock runs, in seconds, of

- ``roth_form`` on complex grids at (q, d) = (135, 1) and (45, 2);
- ``roth_form_exact`` on an integer grid at (135, 1);
- ``SubgroupModel.elements`` on the order-945 joining base of a
  ``main_inequality`` grid run at q = 135, r = 5;
- the exact checkpoint averages of a weighted average over 135 terms.

Inputs are drawn from fixed seeds, so runs on one machine compare.
"""

from __future__ import annotations

import json
import platform
import time
from fractions import Fraction

import numpy as np

from reclab import weyl
from reclab.harmonic import GridFunction
from reclab.joinings import extract_affine_joining, pair_embedding, quadratic_direction
from reclab.roth import roth_form, roth_form_exact

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


def main() -> None:
    out: dict[str, object] = {}
    for q, d in ((135, 1), (45, 2)):
        f = complex_grid(q, d, seed=q + d)
        out[f"roth_form_q{q}_d{d}_s"] = best_of(lambda: roth_form(f, f, f))

    sums = np.random.default_rng(135).integers(-2, 3, size=135) * 135
    out["roth_form_exact_q135_d1_s"] = best_of(lambda: roth_form_exact(sums, sums, sums))

    r = 5
    base = extract_affine_joining(
        pair_embedding([Fraction(2, 135)], [Fraction(1, 7)], r),
        quadratic_direction([Fraction(2, 135)], [Fraction(i, 7) for i in range(1, r + 1)]),
        1,
        r,
    ).base
    out["elements_order945_s"] = best_of(base.elements)

    rng = np.random.default_rng(7)
    terms = [Fraction(int(v), 135**2) * Fraction(7, 3) for v in rng.integers(-500, 500, size=135)]
    marks = weyl._default_checkpoints(len(terms))
    out["checkpoint_averages_135_s"] = best_of(lambda: weyl._checkpoint_averages(terms, marks))

    out["repeats"] = REPEATS
    out["python"] = platform.python_version()
    out["numpy"] = np.__version__
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
