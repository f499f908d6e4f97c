"""End-to-end experiment pipelines with reproducible reports.

Each experiment consumes one JSON config document, runs a pipeline, and
produces a report plus per-metric CSV tables, all written atomically:

* ``main_inequality``: weighted triple-correlation averages on a skew
  product, with the weight window built by uniformizing over the
  extracted quadratic-orbit joining, compared against the progression
  form at the 2 * k^(-1/2) * norm^2 tolerance.
* ``sqrt_recurrence``: intersection measures mu(A ^ T^-n A ^ T^-2n A)
  along the square-root return set of a Bohr-Hamming ball, exactly.
* ``theorem_stage``: staged assembly of a shift set whose squares carry
  a verified nonrecurrence certificate, one dilation per stage.
* ``equidistribution``: character averages along quadratic orbits, with
  exact detection of the periodic cases: a periodic mean vanishes iff
  its phase counts fold to zero along rotated p-gons.

Completed runs are graded PASS, REFUTED, or INCONCLUSIVE.  REFUTED is
reserved for an exact arithmetic assertion failing, which means a bug,
never noise.  INCONCLUSIVE marks an empirical tolerance or horizon that
did not resolve the question; the fix is a bigger run, not a code
change.  Anything that prevents a pipeline from finishing raises
ExperimentError with a stage tag instead of producing a report.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Iterator, Sequence

import numpy as np

from .bohr import (
    CONVERGENT_DENOMINATOR_CAP,
    BohrHammingBall,
    named_convergent,
    set_to_json,
    sqrt_set_enumerate,
)
from .certificates import (
    CertificateRejected,
    SearchExhausted,
    build_band_witness,
    certificate_text,
    combine_certificates,
    rotation_certificate,
)
from .harmonic import Character, CoefficientTable, GridFunction, annihilating_cylinder
from .joinings import (
    extract_affine_joining,
    root_of_unity_sum_is_zero,
    uniformize_over_joining,
)
from .pcg64 import PCG64
from .torus import (
    ApproxHammingBall,
    Cylinder,
    TorusPoint,
    as_fraction,
    fraction_str,
    orbit_residues,
)
from .weyl import (
    GridWeylModel,
    RotationModel,
    WeylSystem,
    marginal_form_exact,
    max_triple_intersection,
    triple_integrals,
    weighted_average,
)

PASS = "PASS"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

REPORT_NAME = "report.json"
TIMINGS_NAME = "timings.json"

#: longest joint period (or explicit n_max) a grid main_inequality run walks
PERIOD_CAP = 2_000_000
#: longest trig horizon N: the trig average streams 1..N in blocks, so memory stays flat
TRIG_HORIZON_CAP = 10**8
#: most cells (q^d) of a phase space a pipeline allocates
PHASE_CAP = 2**22
#: most random modes (conjugate pairs) of a trig main_inequality observable: its
#: frequencies come from [-3, 3]^2, which holds (7^2 - 1) / 2 = 24 pairs
TRIG_MODES_CAP = 24
#: largest common phase denominator M of a grid main_inequality run: the int64
#: products mod M of ``SubgroupModel.elements`` and ``torus.orbit_residues`` hold
#: only while M stays below about 3e9 (star-zero checks count mod the w1 order)
JOINING_MODULUS_CAP = 10**6
#: largest phase modulus the equidistribution pipeline classifies exactly
EXACT_MODULUS_CAP = 250_000
#: largest phase modulus the ladder walk takes: its step 2 pi / modulus is a double
LADDER_MODULUS_CAP = int(sys.float_info.max)
#: most nanoseconds a trig main_inequality run or a `weyl avg` may cost, N * battery
#: terms at ``_trig_term_ns`` each (``check_trig_cost``): 60 s, the budget of a `roth check`
TRIG_COST_CAP = 60 * 10**9
#: most nanoseconds a grid main_inequality run may cost, its gathered cells at
#: ``GRID_CELL_NS`` each (``_grid_keys``): the same 60 s
GRID_COST_CAP = 60 * 10**9
#: the modelled cost of one cell a grid main_inequality run gathers, in
#: nanoseconds: an upper envelope of a whole run per gathered cell at q >= 513
#: on a 2-vCPU Xeon, 0.72 ns at q 2047 (its battery of 3 in 18.6 s); the
#: triple integrals alone take 0.46-0.59 ns a cell at q 513 and 1023
GRID_CELL_NS = 1
#: most nanoseconds an equidistribution run may cost, its walked n at
#: ``LADDER_TERM_NS`` each: the same 60 s
EQUI_COST_CAP = 60 * 10**9
#: the modelled cost of one n of ``_ladder_averages``, in nanoseconds: an upper
#: envelope of its time per n at N = 10^6 on a 2-vCPU Xeon, over moduli from 3
#: to about 10^300: 420-480 ns below 10^9, 540 ns at 10^18 and 780 ns at 10^300
LADDER_TERM_NS = 800


class ExperimentError(RuntimeError):
    """A pipeline stage that could not complete; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class ExperimentConfig:
    """One experiment invocation: id, parameters, output directory."""

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    out_dir: str = "."
    seed: int = 0

    @classmethod
    def from_json(cls, doc) -> "ExperimentConfig":
        return cls(**_parse(doc, _SCHEMA["config"], noun="config keys"))

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "out_dir": self.out_dir,
            "seed": self.seed,
        }


@dataclass
class ExperimentReport:
    """Outcome of one run: echoed inputs, metrics, verdict lines, tables.

    ``tables`` maps output file names (the CSV tables, and the JSON
    files of a certificate) to their text; ``persist_report`` writes
    them next to report.json, and ``artifacts`` lists all of them.
    ``wall_clock_seconds`` goes to timings.json, never into the report,
    so one config and seed reproduce report.json byte for byte.
    Every asserted inequality appears in ``metrics`` with its measured
    margin, so a report can be audited without rerunning anything.
    """

    experiment: str
    status: str
    config: dict
    metrics: dict
    lines: list[str] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict, repr=False)
    wall_clock_seconds: float = 0.0

    @property
    def artifacts(self) -> list[str]:
        return [REPORT_NAME, *sorted(self.tables)]

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "status": self.status,
            "config": self.config,
            "metrics": self.metrics,
            "lines": self.lines,
            "artifacts": self.artifacts,
        }


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    The temp file is removed again if the write or the rename fails.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def persist_report(report: ExperimentReport, out_dir: str) -> str:
    """Write report.json, every table and timings.json into out_dir; returns report path."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(report.tables):
        write_atomic(os.path.join(out_dir, name), report.tables[name])
    path = os.path.join(out_dir, REPORT_NAME)
    write_atomic(path, json.dumps(report.to_json(), indent=2) + "\n")
    timings = {"wall_clock_seconds": report.wall_clock_seconds}
    write_atomic(os.path.join(out_dir, TIMINGS_NAME), json.dumps(timings, indent=2) + "\n")
    return path


# ---- the config schema ----


_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One config entry: its name, JSON kind, default (in JSON form) and bounds.

    Kinds: ``"int"`` is a JSON integer; ``"rational"`` a string such as
    ``"1/8"`` or an integer; ``"value"`` a rational or a
    ``{"convergent", "q_cap"}`` entry; ``"string"`` any string, or one of
    the strings in ``of``; ``"object"`` a JSON object its pipeline parses;
    ``"table"`` an object parsed by the table ``_SCHEMA[of]``; ``"list"`` a
    nonempty JSON list of the entry ``of``.  ``bounds`` is an interval such as
    ``"[1, 64]"`` or ``"(0, 1/2)"`` whose upper end may be ``inf``; a bound
    miss raises with ``stage``.  A ``None`` default means the pipeline
    derives the value from the other entries.
    """

    name: str
    kind: str
    default: Any = _REQUIRED
    bounds: str = ""
    of: Any = None
    stage: str = "config"


_RATIONAL = Param("", "rational")
_VALUE = Param("", "value")

# theorem_stage's frequency lists for a two-coordinate witness (k = 1)
_STAGE_FREQS = (
    (Fraction(3, 64), Fraction(5, 81)),
    (Fraction(2, 23), Fraction(3, 29)),
    (Fraction(4, 41), Fraction(7, 43)),
)

_EQUI_CASES: list[dict[str, Any]] = [
    {"label": "trivial", "alpha": 0, "beta": {"convergent": "sqrt2"}, "m": 0},
    {"label": "golden-linear", "alpha": {"convergent": "golden"}, "beta": 0, "m": 1},
    {"label": "sqrt2-quadratic", "alpha": 0, "beta": {"convergent": "sqrt2"}, "m": 1},
    {"label": "third-periodic", "alpha": 0, "beta": "1/3", "m": 1},
    {"label": "half-alternating", "alpha": 0, "beta": "1/2", "m": 1},
]

_MAIN_MODEL = Param("model", "string", "grid", of=("grid", "trig"))
_MAIN_SHARED = (
    _MAIN_MODEL,
    Param("r", "int", 5, "[2, inf)"),
    Param("k", "int", 4, "[1, inf)"),
    Param("eps", "rational", "1/8", "(0, 1/2)"),
    Param("ell", "int", 1, "[1, inf)"),
)

#: one table per config document; each main_inequality backend has its own
_SCHEMA: dict[str, tuple[Param, ...]] = {
    "config": (
        Param("experiment", "string"),
        Param("params", "object", {}),
        Param("out_dir", "string", "."),
        Param("seed", "int", 0, "[0, inf)"),
    ),
    "main_inequality (grid)": _MAIN_SHARED + (
        Param("q", "int", 135, f"[3, {math.isqrt(PHASE_CAP)}]"),
        Param("alpha", "rational", "2/135"),
        Param("t0", "rational", "1/7"),
        Param("beta", "list", None, of=_RATIONAL),
        Param("battery", "int", 6, "[1, 64]"),
        Param("n_max", "int", None, f"[1, {PERIOD_CAP}]"),
    ),
    "main_inequality (trig)": _MAIN_SHARED + (
        Param("alpha", "value", {"convergent": "sqrt2"}),
        Param("beta", "list", None, of=_VALUE),
        Param("battery", "int", 6, "[1, 16]"),
        Param("N", "int", 100_000, f"[1000, {TRIG_HORIZON_CAP}]"),
        Param("modes", "int", 6, f"[1, {TRIG_MODES_CAP}]"),
        Param("tolerance", "rational", "0", "[0, inf)"),
    ),
    "sqrt_recurrence": (
        Param("model", "string", "rotation", of=("rotation", "weyl")),
        Param("q", "int", 2048, "[2, inf)"),
        Param("step", "list", [1], of=Param("", "int")),
        Param("delta", "rational", "3/10", "(0, 1)"),
        Param("mask", "table", {"kind": "interval", "density": "2/5"}, of="mask"),
        Param("freq", "list", ["3/64", "5/81"], of=_RATIONAL),
        Param("center", "list", None, of=_RATIONAL),
        Param("k", "int", 1, "[0, inf)"),
        Param("eps", "rational", "1/16", "(0, 1/2]"),
        Param("N", "int", 2000, "[1, 1000000]"),
    ),
    "theorem_stage": (
        Param("stages", "int", 3, "[0, 3]"),
        Param("delta_prime", "rational", "1/1000", "(0, 1/2)", stage="precondition"),
        Param("eta", "rational", "1/8", "(0, 1/2)"),
        Param("k", "int", 1, "[1, inf)"),
        Param("N", "int", 120_000, "[100, 10000000]"),
        Param("m_max", "int", 12, "[1, 64]"),
        Param("claim_factor", "rational", "9/20", "(0, 1]"),
        Param("frequencies", "list", None, of=Param("", "list", of=_RATIONAL)),
        Param("contrast_q", "int", 729, f"[0, {PHASE_CAP}]"),
        Param("contrast_density", "rational", "2/5", "(0, 1]"),
    ),
    "equidistribution": (
        Param("cases", "list", _EQUI_CASES, of=Param("", "table", of="case")),
        Param("ladder", "list", [1000, 10_000, 100_000, 1_000_000],
              of=Param("", "int", bounds="[1, 10000000]")),
        Param("tolerance", "rational", "1/50", "(0, 1]"),
    ),
    "mask": (
        Param("kind", "string", of=("full", "interval", "random")),
        Param("density", "rational", "2/5", "(0, 1]"),
    ),
    "case": (
        Param("label", "string", None),
        Param("alpha", "value", 0),
        Param("beta", "value", 0),
        Param("m", "int", 1, "[0, inf)"),
    ),
    "convergent": (
        Param("convergent", "string", of=("sqrt2", "sqrt3", "golden")),
        Param("q_cap", "int", CONVERGENT_DENOMINATOR_CAP, "[2, inf)"),
    ),
}


def _parse(doc, table: tuple[Param, ...], where: str = "", noun: str = "parameters") -> dict:
    """``doc`` checked against ``table``: unknown keys rejected, defaults filled, values parsed."""
    if not isinstance(doc, dict):
        what = f"'{where}'" if where else "config document"
        raise ExperimentError("config", f"{what} must be a JSON object, got {doc!r}")
    extra = set(doc) - {param.name for param in table}
    if extra:
        raise ExperimentError("config", f"unknown {noun}: {sorted(extra)}")
    out = {}
    for param in table:
        path = f"{where}.{param.name}" if where else param.name
        raw = doc.get(param.name, param.default)
        if raw is _REQUIRED:
            raise ExperimentError("config", f"'{path}' is required")
        derived = raw is None and param.default is None
        out[param.name] = None if derived else _parse_value(raw, param, path)
    return out


def _parse_value(raw, param: Param, path: str):
    kind = param.kind
    if kind == "list":
        if not isinstance(raw, list) or not raw:
            raise ExperimentError("config", f"{path}: expected a nonempty list, got {raw!r}")
        return [_parse_value(v, param.of, f"{path}[{i}]") for i, v in enumerate(raw)]
    if kind == "table" or (kind == "value" and isinstance(raw, dict)):
        table = _SCHEMA[param.of if kind == "table" else "convergent"]
        parsed = _parse(raw, table, path, f"{path} keys")
        if kind == "table":
            return parsed
        value = named_convergent(parsed["convergent"], parsed["q_cap"])
    elif kind == "object":
        if not isinstance(raw, dict):
            raise ExperimentError("config", f"'{path}' must be a JSON object, got {raw!r}")
        return dict(raw)
    elif kind == "string":
        if not isinstance(raw, str) or (param.of and raw not in param.of):
            expected = f"one of {list(param.of)}" if param.of else "a string"
            raise ExperimentError("config", f"'{path}' must be {expected}, got {raw!r}")
        return raw
    elif kind == "int":
        # bool is an int subclass, but true/false in a config is never a count
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ExperimentError("config", f"{path}: expected an integer, got {raw!r}")
        value = raw
    else:
        try:
            value = as_fraction(raw)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ExperimentError("config", f"{path}: not a rational: {raw!r} ({exc})")
    if param.bounds:
        low, high = (end.strip() for end in param.bounds[1:-1].split(","))
        above = value > Fraction(low) if param.bounds[0] == "(" else value >= Fraction(low)
        below = high == "inf" or (
            value < Fraction(high) if param.bounds[-1] == ")" else value <= Fraction(high)
        )
        if not (above and below):
            raise ExperimentError(
                param.stage, f"{path}: {_json_safe(value)} is outside {param.bounds}"
            )
    return value


def parse_entry(table: str, name: str, raw, path: str):
    """``raw`` parsed and bounds-checked as entry ``name`` of ``_SCHEMA[table]``.

    Lets a command-line flag share its config key's bounds; a miss
    raises ExperimentError naming ``path``.
    """
    (param,) = (param for param in _SCHEMA[table] if param.name == name)
    return _parse_value(raw, param, path)


def _parse_params(config: ExperimentConfig) -> dict[str, Any]:
    """The params of ``config``, parsed by its experiment's table."""
    name = config.experiment
    if name == "main_inequality":
        model = _parse_value(config.params.get("model", "grid"), _MAIN_MODEL, "model")
        name = f"main_inequality ({model})"
    return _parse(config.params, _SCHEMA[name])


def _need_k_below_r(k: int, r: int) -> None:
    if k >= r:
        raise ExperimentError("config", f"need k < r, got k={k} and r={r}")


def _json_safe(value):
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _echo(config: ExperimentConfig, params: dict[str, Any]) -> dict:
    doc = config.to_json()
    doc["params"] = _json_safe(params)
    return doc


def csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """One CSV document: Fractions as n/d, floats by repr, the rest by str."""
    def cell(v) -> str:
        if isinstance(v, Fraction):
            return fraction_str(v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    out = [",".join(header)]
    out.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(out) + "\n"


def _interval_mask(shape: tuple[int, ...], density: Fraction) -> np.ndarray:
    """An axis-0 slab of measure at least the target, as a 0/1 grid."""
    q = shape[0]
    rows = min(q, max(1, math.ceil(q * density)))
    mask = np.zeros(shape, dtype=np.int64)
    mask[:rows] = 1
    return mask


def _random_mask(shape: tuple[int, ...], density: Fraction, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    count = min(size, max(1, math.ceil(size * density)))
    flat = np.zeros(size, dtype=np.int64)
    flat[rng.choice(size, size=count, replace=False)] = 1
    return flat.reshape(shape)


def _build_mask(shape: tuple[int, ...], mask: dict[str, Any], seed: int) -> np.ndarray:
    """The 0/1 grid of a parsed ``mask`` entry."""
    if mask["kind"] == "full":
        return np.ones(shape, dtype=np.int64)
    if mask["kind"] == "interval":
        return _interval_mask(shape, mask["density"])
    return _random_mask(shape, mask["density"], seed)


def _mask_measure(mask: np.ndarray) -> Fraction:
    return Fraction(int(mask.sum()), mask.size)


# ---- weighted averages against the progression form ----


def _battery_grids(q: int, count: int, seed: int) -> Iterator[tuple[str, np.ndarray]]:
    """Small integer observables: a constant, an x-only one, then noise, one at a time.

    The row and then each grid, in C order, come from one stream, as
    ``default_rng(seed).integers(-2, 3, ...)`` draws them.
    """
    yield "constant", np.ones((q, q), dtype=np.int64)
    if count < 2:
        return
    rng = PCG64(seed)
    row = rng.integers(-2, 3, q)
    yield "x-only", np.repeat(row[:, None], q, axis=1)
    for i in range(count - 2):
        yield f"random-{i}", rng.integers(-2, 3, q * q).reshape(q, q)


def _bound_holds(gap: Fraction, k: int, norm_sq: Fraction) -> bool:
    # gap <= 2 k^(-1/2) norm_sq, squared so the comparison stays rational
    return gap * gap * k <= 4 * norm_sq * norm_sq


def _grid_keys(model: GridWeylModel, period: int) -> int:
    """The distinct keys of ``weyl.triple_integrals`` over n = 1..period.

    The keys are min(r, P - r) for r = n mod P, P the model's period:
    1..min(period, P // 2), and 0 too once period reaches P.  Each key
    gathers the pullbacks at n and 2n, 2 q^(2d) cells, once per observable.
    """
    return min(period, model.period // 2) + (period >= model.period)


def _main_inequality_grid(config: ExperimentConfig, p: dict[str, Any]) -> ExperimentReport:
    q, alpha, t0, r, k, eps, ell = (p[key] for key in ("q", "alpha", "t0", "r", "k", "eps", "ell"))
    if q % 2 == 0:
        raise ExperimentError("config", f"grid size {q} must be odd so offsets can halve")
    if alpha.denominator != q or math.gcd(alpha.numerator, q) != 1:
        raise ExperimentError(
            "config", f"alpha {fraction_str(alpha)} must generate the size-{q} grid"
        )
    _need_k_below_r(k, r)
    if math.gcd(t0.denominator, q) != 1:
        raise ExperimentError(
            "config",
            f"t0 {fraction_str(t0)} must have order coprime to the grid size {q}",
        )
    beta = [Fraction(i, 7) for i in range(1, r + 1)] if p["beta"] is None else p["beta"]
    if len(beta) != r:
        raise ExperimentError("config", f"beta needs {r} coordinates, got {len(beta)}")

    weight_dir = [b * ell * ell for b in beta]
    modulus = math.lcm(q, t0.denominator, *(w.denominator for w in weight_dir))
    if modulus % 2 == 0:
        raise ExperimentError(
            "config", f"common phase denominator {modulus} is even; offsets cannot halve"
        )
    if modulus > JOINING_MODULUS_CAP:
        raise ExperimentError(
            "config",
            f"common phase denominator {modulus} exceeds the cap {JOINING_MODULUS_CAP}",
        )
    model = GridWeylModel(q, (alpha.numerator,))
    period = p["n_max"] or math.lcm(model.period, *(w.denominator for w in weight_dir))
    if period > PERIOD_CAP:
        raise ExperimentError("config", f"joint period {period} exceeds the cap {PERIOD_CAP}")
    keys, cells = _grid_keys(model, period), 2 * q * q
    cost = p["battery"] * keys * cells * GRID_CELL_NS
    if cost > GRID_COST_CAP:
        raise ExperimentError(
            "config",
            f"cost battery * keys * 2 q^2 * {GRID_CELL_NS} ns = {p['battery']} * {keys} * {cells} "
            f"* {GRID_CELL_NS} = {cost} ns exceeds the cap {GRID_COST_CAP} ns",
        )

    joining = extract_affine_joining([alpha], weight_dir, modulus)
    ball = ApproxHammingBall(TorusPoint.of([Fraction(0)] * r), k, eps)
    bound_scale = 2.0 / math.sqrt(k)

    rows: list[list] = []
    tables: dict[str, str] = {}
    lines: list[str] = []
    status = PASS
    metrics: dict[str, Any] = {
        "period": period,
        "phase_modulus": modulus,
        # the Haar joining is one coset of its base
        "joining_shifts": 1,
        "ball_measure": fraction_str(ball.measure()),
    }

    for label, values in _battery_grids(q, p["battery"], config.seed):
        # entries lie in [-2, 2] and q <= 2048, so the int64 sum is exact
        norm_sq = Fraction(int((values * values).sum()), q * q)
        norm_bound = math.sqrt(float(norm_sq)) if norm_sq else 1.0
        try:
            g, window_report = uniformize_over_joining(
                GridFunction(2, q, values).spectrum_table(), ball, joining, norm_bound=norm_bound
            )
        except (ValueError, ArithmeticError) as exc:
            raise ExperimentError("uniformize", f"{label}: {exc}")
        trace = weighted_average(model, values, g, weight_dir, period)
        average = trace.value
        closed = marginal_form_exact(values, 1)
        # the window is 0 or 1/measure, so its mass is the hit rate times 1/measure; at a
        # full joint period this is generally not 1, since squares oversample quadratic
        # residues, and the comparison has to carry the factor rather than wish it away
        mass = Fraction(trace.window_hits, period) / g.measure()
        gap = abs(average - mass * closed)
        ok = _bound_holds(gap, k, norm_sq)
        if not ok:
            status = REFUTED
        bound = bound_scale * float(norm_sq)
        rows.append(
            [
                label,
                norm_sq,
                average,
                closed,
                mass,
                gap,
                float(gap),
                bound,
                len(window_report["selected"]),
                float(window_report["residual"]),
                ok,
            ]
        )
        tables[f"trace_{label}.csv"] = trace.to_csv()
        verdict = "within" if ok else "OUTSIDE"
        lines.append(
            f"{label}: |average - mass*form| = {float(gap):.6e} {verdict} "
            f"2 k^-1/2 ||f||^2 = {bound:.6e}"
        )

    tables["battery.csv"] = csv_table(
        [
            "label", "norm_sq", "average", "closed_form", "window_mass",
            "gap", "gap_float", "bound_float", "pinned_modes", "residual", "within_bound",
        ],
        rows,
    )
    worst = max((row[5] for row in rows), default=Fraction(0))
    metrics.update(
        {
            "functions": len(rows),
            "worst_gap": fraction_str(worst),
            "worst_gap_float": float(worst),
            "all_within_bound": status == PASS,
            "arithmetic": "exact",
        }
    )
    lines.append(
        f"{len(rows)} observables at joint period {period}: "
        + ("every exact gap is within its bound" if status == PASS else "bound violated")
    )
    return ExperimentReport(
        experiment="main_inequality",
        status=status,
        config=_echo(config, p),
        metrics=metrics,
        lines=lines,
        tables=tables,
    )


def _random_trig_table(modes: int, seed: int) -> tuple[CoefficientTable, float]:
    """A random real trig polynomial on the (x, y) torus and its norm square.

    Each frequency's two coordinates and then each coefficient's real and
    imaginary parts come from one ``reclab.pcg64`` stream, in the order
    ``default_rng(seed)`` drew them with scalar ``integers(-3, 4)`` and
    ``normal()`` calls.
    """
    rng = PCG64(seed)
    entries: dict[Character, complex] = {Character((0, 0)): 1.0 + 0j}
    placed = 0
    while placed < modes:
        freq = tuple(rng.integers(-3, 4, 2).tolist())
        if freq == (0, 0) or Character(freq) in entries:
            continue
        c = complex(*rng.normal(2).tolist()) / 4.0
        entries[Character(freq)] = c
        entries[Character((-freq[0], -freq[1]))] = c.conjugate()
        placed += 1
    table = CoefficientTable(2, entries)
    norm_sq = sum(abs(c) ** 2 for _, c in table)
    return table, norm_sq


#: the trig backend's beta when the config gives none: the first r of these
_TRIG_BETA = _parse_value(
    [{"convergent": "sqrt3"}, {"convergent": "golden"}, "1/7", "2/11", "3/13"],
    Param("beta", "list", of=_VALUE),
    "beta",
)


def _trig_term_ns(modes: int, wide: bool) -> int:
    """The modelled cost of one term n of one trig observable, in nanoseconds.

    An upper envelope of the worst of eight polynomials per mode count at N = 10^6 on a 2-vCPU
    Xeon: 71 ns at 1 mode, 766 ns at 12 and 1.9 us at 24 on int64 residues, 531 ns, 2.7 us and
    7.4 us on Python-int ones (``wide``).  The modes^2 term is the series plan's phases (a, b).
    """
    return 400 + 250 * modes + 10 * modes**2 if wide else 100 + 40 * modes + 2 * modes**2


def check_trig_cost(
    model: WeylSystem, g: Cylinder, direction: list[Fraction], n_max: int, battery: int, modes: int
) -> None:
    """Refuse a trig average past ``TRIG_COST_CAP`` before any work, as a config error.

    A term is priced on the ``torus.orbit_residues`` branch of the moduli: D = 2 lcm(den alpha),
    which every family modulus divides, and lcm(den direction_i, den center_i, den eta) on
    each coordinate i that the window g pins.
    """
    center, eta = g.center.coords, g.eta.denominator
    moduli = [2 * math.lcm(*(a.denominator for a in model.alpha.coords))] + [
        math.lcm(direction[i - 1].denominator, center[i - 1].denominator, eta) for i in g.index_set
    ]
    wide = any((m - 1) ** 2 >= 2**63 for m in moduli)
    term = _trig_term_ns(modes, wide)
    if n_max * battery * term > TRIG_COST_CAP:
        residues = "Python-int" if wide else "int64"
        raise ExperimentError(
            "config",
            f"cost N * battery * term({modes} modes, {residues} residues) = {n_max} * {battery} "
            f"* {term} = {n_max * battery * term} ns exceeds the cap {TRIG_COST_CAP} ns",
        )


def _main_inequality_trig(config: ExperimentConfig, p: dict[str, Any]) -> ExperimentReport:
    r, k, n_max, battery = p["r"], p["k"], p["N"], p["battery"]
    _need_k_below_r(k, r)
    if p["beta"] is None and r > len(_TRIG_BETA):
        raise ExperimentError("config", f"provide beta explicitly for r > {len(_TRIG_BETA)}")
    beta = _TRIG_BETA[:r] if p["beta"] is None else p["beta"]
    if len(beta) != r:
        raise ExperimentError("config", f"beta needs {r} entries, got {len(beta)}")
    tolerance = float(p["tolerance"])

    # At convergent scale there is no finite joining to extract, and the
    # product joining needs no pinning: every window subordinate to the
    # ball already annihilates across an independent fiber.
    ball = ApproxHammingBall(TorusPoint.of([Fraction(0)] * r), k, p["eps"])
    g = annihilating_cylinder(ball, [])
    model = WeylSystem(TorusPoint.of([p["alpha"]]))
    direction = [p["ell"] ** 2 * b for b in beta]
    check_trig_cost(model, g, direction, n_max, battery, p["modes"])
    bound_scale = 2.0 / math.sqrt(k)

    rows: list[list] = []
    tables: dict[str, str] = {}
    lines: list[str] = []
    status = PASS

    for i in range(battery):
        label = f"trig-{i}"
        table, norm_sq = _random_trig_table(p["modes"], config.seed + i)
        trace = weighted_average(model, table, g, direction, n_max)
        average = complex(trace.value)
        mass = Fraction(trace.window_hits, n_max) / g.measure()
        # the 3-AP form of the x-marginal, sum over nu of h(nu)^2 h(-2 nu)
        closed = trace.closed_form
        gap = abs(average - float(mass) * closed)
        bound = bound_scale * norm_sq
        margin = bound - gap
        if margin <= tolerance:
            status = INCONCLUSIVE
        rows.append([label, norm_sq, average.real, closed.real, float(mass), gap, bound, margin])
        tables[f"trace_{label}.csv"] = trace.to_csv()
        lines.append(
            f"{label}: |average - mass*form| = {gap:.6e}, bound {bound:.6e}, "
            f"margin {margin:+.6e}"
        )

    tables["battery.csv"] = csv_table(
        ["label", "norm_sq", "average", "closed_form", "window_mass", "gap", "bound", "margin"],
        rows,
    )
    worst_margin = min(row[7] for row in rows)
    metrics = {
        "functions": battery,
        "horizon": n_max,
        "window_mass": fraction_str(mass),
        "worst_margin": worst_margin,
        "ball_measure": fraction_str(ball.measure()),
        "arithmetic": "float averages, exact window membership",
        "tolerance": tolerance,
    }
    lines.append(
        f"{battery} trig observables at horizon {n_max}: worst margin {worst_margin:+.6e} "
        + ("(positive)" if status == PASS else "(below tolerance)")
    )
    return ExperimentReport(
        experiment="main_inequality",
        status=status,
        config=_echo(config, p),
        metrics=metrics,
        lines=lines,
        tables=tables,
    )


def exp_main_inequality(config: ExperimentConfig) -> ExperimentReport:
    """Weighted correlation averages against the progression form.

    The grid backend runs a full joint period in exact rational
    arithmetic and asserts the gap bound outright, so a violation is
    REFUTED.  The trig backend runs a finite horizon with convergent
    frequencies and reports the margin, so a shortfall is INCONCLUSIVE.
    """
    p = _parse_params(config)
    backend = _main_inequality_grid if p["model"] == "grid" else _main_inequality_trig
    return backend(config, p)


# ---- recurrence along square-root return times ----


def exp_sqrt_recurrence(config: ExperimentConfig) -> ExperimentReport:
    """Exact triple intersections along the square-root Bohr-Hamming set.

    Refuses to run when the mask does not clear the density threshold
    delta; that precondition is what the positivity claim is about.
    PASS needs one exact positive intersection along the set.  An empty
    enumeration or an all-zero scan is INCONCLUSIVE: at a finite
    horizon, absence of returns is not evidence of nonrecurrence.
    """
    p = _parse_params(config)
    q, step, coords, delta = p["q"], tuple(p["step"]), p["freq"], p["delta"]
    dims = len(step) * (2 if p["model"] == "weyl" else 1)
    if q**dims > PHASE_CAP:
        raise ExperimentError(
            "config", f"phase space of {q}^{dims} cells exceeds the cap {PHASE_CAP}"
        )
    r = len(coords)
    center = [Fraction(0)] * r if p["center"] is None else p["center"]
    if len(center) != r:
        raise ExperimentError("config", f"center needs {r} coordinates, got {len(center)}")
    _need_k_below_r(p["k"], r)

    model = (GridWeylModel if p["model"] == "weyl" else RotationModel)(q, step)
    mask = _build_mask((q,) * dims, p["mask"], config.seed)
    measure = _mask_measure(mask)
    if measure <= delta:
        raise ExperimentError(
            "precondition",
            f"mask measure {fraction_str(measure)} does not exceed delta "
            f"{fraction_str(delta)}; the positivity claim assumes it does",
        )

    n_max = p["N"]
    ball = ApproxHammingBall(TorusPoint.of(center), p["k"], p["eps"])
    bh = BohrHammingBall(TorusPoint.of(coords), ball)
    enum = sqrt_set_enumerate(bh, n_max)

    if not enum.elems:
        return ExperimentReport(
            experiment="sqrt_recurrence",
            status=INCONCLUSIVE,
            config=_echo(config, p),
            metrics={"set_size": 0, "horizon": n_max, "mask_measure": fraction_str(measure)},
            lines=[f"no square-root returns up to {n_max}; enlarge the horizon or the ball"],
        )

    values = triple_integrals(model, mask, enum.elems)
    best_i = min(range(len(values)), key=lambda i: (-values[i], enum.elems[i]))
    worst_i = min(range(len(values)), key=lambda i: (values[i], enum.elems[i]))
    best_n, best = enum.elems[best_i], values[best_i]
    worst_n, worst = enum.elems[worst_i], values[worst_i]
    positive = sum(1 for v in values if v > 0)
    mean = sum(values, Fraction(0)) / len(values)
    status = PASS if best > 0 else INCONCLUSIVE

    rows = [[n, v, float(v), v > 0] for n, v in zip(enum.elems, values)]
    metrics = {
        "horizon": n_max,
        "set_size": len(enum.elems),
        "set_density": fraction_str(enum.density),
        "mask_measure": fraction_str(measure),
        "delta": fraction_str(delta),
        "best_n": best_n,
        "best_intersection": fraction_str(best),
        "best_intersection_float": float(best),
        "min_n": worst_n,
        "min_intersection": fraction_str(worst),
        "positive_returns": positive,
        "mean_intersection": fraction_str(mean),
        "arithmetic": "exact",
    }
    lines = [
        f"{len(enum.elems)} square-root returns up to {n_max} "
        f"(set density {float(enum.density):.4f})",
        f"mask measure {fraction_str(measure)} > delta {fraction_str(delta)}",
        (
            f"best return at n = {best_n}: intersection {fraction_str(best)} > 0"
            if status == PASS
            else "every intersection along the set is zero at this horizon"
        ),
        f"weakest return at n = {worst_n}: intersection {fraction_str(worst)}; "
        f"mean along the set {float(mean):.6f}",
        "best-return strength is a statistic of this one mask, not a bound",
    ]
    return ExperimentReport(
        experiment="sqrt_recurrence",
        status=status,
        config=_echo(config, p),
        metrics=metrics,
        lines=lines,
        tables={"sqrt_recurrence.csv": csv_table(["n", "intersection", "float", "positive"], rows)},
    )


# ---- staged nonrecurrence certificates for squared shift sets ----


def _stage_frequencies(r: int) -> list[list[Fraction]]:
    """theorem_stage's default frequency lists for a witness of dimension r.

    Stage i keeps the i-th list of _STAGE_FREQS and appends r - 2
    coordinates (p - 1) / (2p), for the primes p from 47 up dealt to the
    three stages in turn.  Such a coordinate lies 1/(2p) below 1/2, so
    small odd n can reach the ball around the all-halves point.
    """
    lists = [list(coords) for coords in _STAGE_FREQS]
    p = 43
    for j in range(3 * (r - 2)):
        p += 2
        while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            p += 2
        lists[j % 3].append(Fraction(p - 1, 2 * p))
    return lists


def exp_theorem_stage(config: ExperimentConfig) -> ExperimentReport:
    """Grow a shift set whose squares are certified nonreturning.

    Stage 1 certifies the squares of one square-root return set; each
    later stage certifies a fresh set on new frequencies and merges it
    into the running certificate, searching dilations m and applying
    m^2 to the squared shifts.  Claims after stage 1 are deliberately
    modest (a fixed fraction of the achieved density) so the merged
    claim keeps a fluctuation cushion.  Every certificate is checked
    once, where it is made: rotation_certificate and each merge
    candidate are verified from their bitsets, and lowering a verified
    claim keeps it verified.  The final certificate and its shift base
    go into the report's tables.
    """
    p = _parse_params(config)
    stages, delta_prime, k, n_max = p["stages"], p["delta_prime"], p["k"], p["N"]
    if p["frequencies"] is not None and len(p["frequencies"]) < stages:
        raise ExperimentError("config", f"{stages} stages need {stages} frequency lists")

    if stages == 0:
        return ExperimentReport(
            experiment="theorem_stage",
            status=INCONCLUSIVE,
            config=_echo(config, p),
            metrics={"stages_requested": 0, "stages_completed": 0},
            lines=["no stages requested; nothing was certified"],
        )

    try:
        witness, ball, proof = build_band_witness(k, p["eta"], seed=config.seed)
    except (SearchExhausted, ValueError) as exc:
        raise ExperimentError("band-witness", str(exc))
    if p["frequencies"] is None:
        # echoed as the lists the run used
        p["frequencies"] = _stage_frequencies(witness.r)
    for i, coords in enumerate(p["frequencies"][:stages]):
        if len(coords) != witness.r:
            raise ExperimentError(
                "config",
                f"frequencies[{i}] has {len(coords)} coordinates; the witness needs {witness.r}",
            )

    n_scan = math.isqrt(n_max)
    lines = [
        f"band witness r={proof['r']} t={proof['t']} a={proof['a']} "
        f"(measure {proof['measure']}), ball eps={proof['eps']} k={k}"
    ]
    rows: list[list] = []
    status = PASS
    current = None
    shift_base: set[int] = set()

    for i in range(1, stages + 1):
        freq = TorusPoint.of(p["frequencies"][i - 1])
        roots = sqrt_set_enumerate(BohrHammingBall(freq, ball), n_scan).elems
        if not roots:
            status = INCONCLUSIVE
            lines.append(f"stage {i}: no square-root returns up to {n_scan}; stopping here")
            break
        squares = tuple(x * x for x in roots)

        try:
            base = rotation_certificate(witness, ball, freq, n_max, squares)
        except CertificateRejected as exc:
            check = exc.diagnostics[0][1]
            raise ExperimentError(
                f"stage-{i}-verify",
                f"certificate failed: density {fraction_str(check.density)} "
                f"(needs {fraction_str(check.required)}), violating shift {check.violating_shift}",
            )
        achieved = base.density_claim
        # claim_factor lies in (0, 1], so the lowered claim still holds
        claim = achieved if i == 1 else achieved * p["claim_factor"]
        cert = replace(base, density_claim=claim)

        if current is None:
            current = cert
            shift_base = set(roots)
            m_used = 1
        else:
            attempts: list[str] = []
            combined = None
            for m in range(1, p["m_max"] + 1):
                try:
                    combined = combine_certificates(current, cert, m * m)
                except CertificateRejected as exc:
                    attempts.append(f"m={m}: {exc}")
                    continue
                m_used = m
                break
            if combined is None:
                raise ExperimentError(
                    f"stage-{i}-combine",
                    f"no dilation in 1..{p['m_max']} merged; " + "; ".join(attempts[-3:]),
                )
            current = combined
            shift_base |= {m_used * x for x in roots if (m_used * x) ** 2 <= n_max}

        expected = {s * s for s in shift_base}
        if set(current.shifts) != expected:
            raise ExperimentError(
                f"stage-{i}-consistency",
                "merged shifts are not the squares of the running base set",
            )
        rows.append(
            [i, len(roots), achieved, claim, m_used, len(shift_base), current.density_claim]
        )
        lines.append(
            f"stage {i}: {len(roots)} roots, achieved {float(achieved):.5f}, "
            f"m = {m_used}, running claim {fraction_str(current.density_claim)}"
        )
        if current.density_claim < delta_prime:
            status = INCONCLUSIVE
            lines.append(
                f"running claim fell below delta' = {fraction_str(delta_prime)}; "
                "stopping before the target stage count"
            )
            break

    metrics: dict[str, Any] = {
        "stages_completed": len(rows),
        "stages_requested": stages,
        "delta_prime": fraction_str(delta_prime),
        "horizon": n_max,
        "sqrt_scan": n_scan,
        "witness": proof,
    }
    tables = {
        "theorem_stage.csv": csv_table(
            ["stage", "roots", "achieved", "stage_claim", "m", "base_size", "running_claim"],
            rows,
        )
    }

    if current is not None and rows:
        tables["certificate.json"] = certificate_text(current)
        base_doc = set_to_json(sorted(shift_base), max(shift_base) + 1)
        tables["shift_base.json"] = json.dumps(base_doc, indent=2) + "\n"
        metrics.update(
            {
                "final_claim": fraction_str(current.density_claim),
                "final_claim_float": float(current.density_claim),
                "band_set_size": current.size,
                "band_set_density": fraction_str(current.density),
                "shift_base_size": len(shift_base),
                "squared_shifts": len(current.shifts),
                "provenance_kind": current.provenance.get("kind"),
                "claim_above_delta_prime": current.density_claim >= delta_prime,
            }
        )
        lines.append(
            f"final certificate: {len(current.shifts)} squared shifts over horizon {n_max}, "
            f"claim {fraction_str(current.density_claim)}, verified size {current.size}"
        )
        contrast_q = p["contrast_q"]
        if contrast_q:
            contrast = RotationModel(contrast_q, (1,))
            cmask = _interval_mask((contrast_q,), p["contrast_density"])
            steps = sorted(shift_base)
            best_n, best = max_triple_intersection(contrast, cmask, steps, max(steps))
            metrics["contrast_best_n"] = best_n
            metrics["contrast_best"] = fraction_str(best)
            lines.append(
                f"contrast: the unsquared base set still returns on a plain rotation "
                f"(best intersection {fraction_str(best)} at n = {best_n})"
                if best > 0
                else "contrast: the unsquared base set found no rotation return either"
            )

    return ExperimentReport(
        experiment="theorem_stage",
        status=status,
        config=_echo(config, p),
        metrics=metrics,
        lines=lines,
        tables=tables,
    )


# ---- character averages along quadratic orbits ----


def _phase_masses(a_num: int, b_num: int, modulus: int) -> dict[int, Fraction]:
    # Keys in order of first appearance: that order fixes the bits of the float limit.
    ns = np.arange(1, modulus + 1)
    phases = orbit_residues(ns, 1, a_num, modulus) + orbit_residues(ns, 2, b_num, modulus)
    values, first, counts = np.unique(phases % modulus, return_index=True, return_counts=True)
    return {int(values[i]): Fraction(int(counts[i]), modulus) for i in np.argsort(first)}


def _case_phase(case: dict[str, Any]) -> tuple[int, int, int]:
    """(a_num, b_num, modulus): m*alpha and m*beta over their common denominator."""
    a, b = case["m"] * case["alpha"], case["m"] * case["beta"]
    modulus = math.lcm(a.denominator, b.denominator)
    return int(a * modulus), int(b * modulus), modulus


def _case_marks(modulus: int, ladder: list[int]) -> list[int]:
    """The horizons a case's ladder walk reports: the ladder, and for an exact
    modulus the first whole period at or past its top; the walk ends at the last."""
    if modulus > EXACT_MODULUS_CAP:
        return ladder
    whole = modulus * max(1, math.ceil(ladder[-1] / modulus))
    return sorted(set(ladder) | {whole})


def _ladder_averages(
    a_num: int, b_num: int, modulus: int, marks: list[int]
) -> list[tuple[int, float]]:
    """|running average of e(phase(n))| at each mark, by incremental phase."""
    out = []
    x = 0
    acc = 0j
    scale = 2.0 * math.pi / modulus
    marks_iter = iter(marks)
    mark = next(marks_iter)
    for n in range(1, marks[-1] + 1):
        x = (x + a_num + b_num * (2 * n - 1)) % modulus
        acc += complex(math.cos(scale * x), math.sin(scale * x))
        if n == mark:
            out.append((n, abs(acc) / n))
            mark = next(marks_iter, None)
    return out


def exp_equidistribution(config: ExperimentConfig) -> ExperimentReport:
    """Averages of e(m(alpha n + beta n^2)) at growing horizons.

    Rational phases with a modest common denominator get the exact
    treatment: period masses, an exact zero test for the limit (the
    phase counts fold to zero along rotated p-gons, p | modulus), and
    a whole-period average that must hit the limit on the nose.  The
    periodic nonvanishing cases are the obstruction this flags; they
    are expected findings, not failures.  Convergent stand-ins are
    graded empirically against the decay tolerance.  The n every case
    walks, summed, is priced at ``LADDER_TERM_NS`` each against
    ``EQUI_COST_CAP`` before any case runs, and a case whose phase
    modulus passes ``LADDER_MODULUS_CAP`` is refused there too.
    """
    p = _parse_params(config)
    ladder = sorted(set(p["ladder"]))
    tolerance = p["tolerance"]
    labels = [f"case-{i}" if c["label"] is None else c["label"] for i, c in enumerate(p["cases"])]
    phases = [_case_phase(c) for c in p["cases"]]
    for label, (_, _, modulus) in zip(labels, phases):
        if modulus > LADDER_MODULUS_CAP:
            raise ExperimentError(
                "config",
                f"case {label!r}: phase modulus of {modulus.bit_length()} bits exceeds the "
                f"cap {LADDER_MODULUS_CAP:.6e}, past which 2 pi / modulus is no double",
            )
    walked = sum(
        _case_marks(modulus, ladder)[-1]
        for case, (_, _, modulus) in zip(p["cases"], phases)
        if case["m"]
    )
    if walked * LADDER_TERM_NS > EQUI_COST_CAP:
        raise ExperimentError(
            "config",
            f"cost walked n * {LADDER_TERM_NS} ns = {walked} * {LADDER_TERM_NS} "
            f"= {walked * LADDER_TERM_NS} ns exceeds the cap {EQUI_COST_CAP} ns",
        )

    rows: list[list] = []
    case_metrics: list[dict] = []
    lines: list[str] = []
    status = PASS

    for label, case, (a_num, b_num, modulus) in zip(labels, p["cases"], phases):
        m, alpha, beta = case["m"], case["alpha"], case["beta"]
        info: dict[str, Any] = {
            "label": label, "m": m,
            "alpha": fraction_str(alpha), "beta": fraction_str(beta),
        }
        if m == 0:
            info.update({"expectation": "trivial", "final_abs": 1.0, "ok": True})
            rows.extend([label, m, n, 1.0] for n in ladder)
            lines.append(f"{label}: the trivial character averages to 1 identically")
            case_metrics.append(info)
            continue

        exact = modulus <= EXACT_MODULUS_CAP
        marks = _case_marks(modulus, ladder)
        limit_abs = None
        is_zero = None
        if exact:
            masses = _phase_masses(a_num, b_num, modulus)
            counts = np.zeros(modulus, dtype=np.int64)
            counts[list(masses)] = [w.numerator * modulus // w.denominator for w in masses.values()]
            is_zero = root_of_unity_sum_is_zero(counts)
            limit = sum(
                float(w) * complex(math.cos(2 * math.pi * t / modulus),
                                   math.sin(2 * math.pi * t / modulus))
                for t, w in masses.items()
            )
            limit_abs = abs(limit)

        averages = _ladder_averages(a_num, b_num, modulus, marks)
        rows.extend([label, m, n, v] for n, v in averages)
        final_n, final_abs = averages[-1]
        info["final_abs"] = final_abs
        info["modulus"] = modulus if exact else None

        if exact:
            info["exact_zero_limit"] = is_zero
            info["limit_abs"] = limit_abs
            info["flagged_periodic"] = not is_zero
            if is_zero:
                info["expectation"] = "decay"
                ok = final_abs < 1e-9
                lines.append(
                    f"{label}: cyclotomic test says the periodic mean vanishes; "
                    f"whole-period average {final_abs:.2e}"
                )
            else:
                info["expectation"] = "non-decay"
                ok = abs(final_abs - limit_abs) < 1e-6
                lines.append(
                    f"{label}: periodic obstruction, |limit| = {limit_abs:.6f}; "
                    f"whole-period average matches to {abs(final_abs - limit_abs):.2e}"
                )
            info["ok"] = ok
            if not ok:
                status = REFUTED
        else:
            info["flagged_periodic"] = False
            info["expectation"] = "decay"
            ok = final_abs < float(tolerance)
            info["ok"] = ok
            lines.append(
                f"{label}: |average| at N = {final_n} is {final_abs:.6f} "
                + ("within" if ok else "ABOVE")
                + f" the decay tolerance {float(tolerance):.4f}"
            )
            if not ok and status == PASS:
                status = INCONCLUSIVE
        case_metrics.append(info)

    flagged = [c["label"] for c in case_metrics if c.get("flagged_periodic")]
    metrics = {
        "cases": case_metrics,
        "flagged_periodic": flagged,
        "ladder_max": ladder[-1],
        "tolerance": fraction_str(tolerance),
    }
    lines.append(
        f"{len(case_metrics)} cases, {len(flagged)} flagged periodic"
        + (": " + ", ".join(flagged) if flagged else "")
    )
    return ExperimentReport(
        experiment="equidistribution",
        status=status,
        config=_echo(config, p),
        metrics=metrics,
        lines=lines,
        tables={"equidistribution.csv": csv_table(["label", "m", "N", "abs_average"], rows)},
    )


# ---- registry and entry point ----


EXPERIMENTS = {
    "main_inequality": exp_main_inequality,
    "sqrt_recurrence": exp_sqrt_recurrence,
    "theorem_stage": exp_theorem_stage,
    "equidistribution": exp_equidistribution,
}


def list_experiments() -> list[tuple[str, str]]:
    """Registered experiment ids with their one-line summaries."""
    out = []
    for name in sorted(EXPERIMENTS):
        doc = EXPERIMENTS[name].__doc__ or ""
        out.append((name, doc.strip().splitlines()[0] if doc.strip() else ""))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one configured experiment and persist its report and tables."""
    if config.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            "config", f"unknown experiment {config.experiment!r}; known: {known}"
        )
    start = time.perf_counter()
    report = EXPERIMENTS[config.experiment](config)
    report.wall_clock_seconds = round(time.perf_counter() - start, 3)
    persist_report(report, config.out_dir)
    return report
