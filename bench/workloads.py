"""The three benchmark workloads, generated from the benchmark seed.

Each workload is one ``reclab.experiments`` config document.  The seed
only reaches the program as the config's ``seed`` field, which draws the
random observables (grid workloads), the random trig polynomials
(``trig_window``) or the Monte Carlo probe of the band witness
(``cert_stage``).  The amount of work does not depend on the seed, so
runs on different seeds are comparable.

``trig_window`` skips the config seeds that draw one of the trig
polynomials in ``TRIG_INCONCLUSIVE_TABLES``: for those the margin at
N = 100000 stays below the 1/100 tolerance and the pipeline rightly
answers INCONCLUSIVE, a finite-horizon outcome rather than an error.

Configs follow the planned strict schema: no ``workers`` key, integers
as JSON ints, rationals as strings, and no grid-only keys in a trig
config.  Why each workload exists is recorded in ``WHY`` and in
BENCHMARK.json.
"""

from __future__ import annotations

#: seed whose outputs are pinned byte for byte in references.json
DEFAULT_SEED = 11

#: every workload must end with this verdict, on every seed
EXPECTED_STATUS = "PASS"

_PARAMS: dict[str, dict] = {
    # scripts/configs/main_inequality_independent.json with a third of its
    # battery (the constant and the x-only observable), so one run fits
    # four samples; every observable costs the same
    "grid_large_q": {
        "experiment": "main_inequality",
        "params": {
            "model": "grid", "q": 135, "alpha": "2/135", "r": 5, "k": 4,
            "eps": "1/8", "t0": "1/7", "battery": 2,
        },
    },
    # scripts/configs/main_inequality_trig.json with one observable of its
    # four, so one run fits three samples
    "trig_window": {
        "experiment": "main_inequality",
        "params": {
            "model": "trig", "r": 5, "k": 4, "eps": "1/8", "battery": 1,
            "N": 100_000, "modes": 6, "tolerance": "1/100",
        },
    },
    # scripts/configs/theorem_stage_full.json at a larger horizon; a sample
    # takes about 2 s on 2 vCPUs, so a 35 s run takes the median of a dozen
    # or more, and verification is still two thirds of it
    "cert_stage": {
        "experiment": "theorem_stage",
        "params": {"stages": 3, "delta_prime": "1/1000", "N": 200_000, "m_max": 12},
    },
}

# Reduced sizes with the same code paths, for the benchmark's self-tests.
_SMOKE_PARAMS: dict[str, dict] = {
    "grid_large_q": {"q": 27, "alpha": "2/27", "battery": 2},
    "trig_window": {"N": 2_000, "battery": 1},
    "cert_stage": {"N": 40_000},
}

WHY: dict[str, str] = {
    "grid_large_q": "exact grid pullback on a 135x135 grid dominates; roth, joinings "
    "and harmonic stay small",
    "trig_window": "the exact cylinder window along n^2 l^2 beta, one n at a time, "
    "is nearly all of the run",
    "cert_stage": "big-integer bitset verification of shift certificates dominates, "
    "with Bohr return-set scans second",
}

NAMES = tuple(_PARAMS)

#: config seeds (trig polynomials) 0..301 whose margin is below tolerance,
#: from a scan at N = 100000; every other one clears it by more than 0.1
TRIG_INCONCLUSIVE_TABLES = frozenset({26, 47, 137, 231, 272})
# trig_window draws polynomials s .. s + battery - 1 for config seed s; the map
# keeps s and s + 1 clear, enough for a battery of up to 2
_TRIG_SEEDS = [s for s in range(301) if not {s, s + 1} & TRIG_INCONCLUSIVE_TABLES]


def config_seed(name: str, seed: int) -> int:
    """The config ``seed`` workload ``name`` gets for benchmark seed ``seed``."""
    if name == "trig_window":
        return _TRIG_SEEDS[seed % len(_TRIG_SEEDS)]
    return seed


def config(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """The config document of workload ``name`` for benchmark seed ``seed``."""
    if name not in _PARAMS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    base = _PARAMS[name]
    params = dict(base["params"])
    if smoke:
        params.update(_SMOKE_PARAMS[name])
    return {
        "experiment": base["experiment"],
        "params": params,
        "out_dir": out_dir,
        "seed": config_seed(name, int(seed)),
    }
