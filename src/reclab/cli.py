"""Command-line front ends: lab, bohr, weyl, roth, and cert.

Each console script wraps one slice of the library with argparse and
stable text output: experiment orchestration (lab), return-set
enumeration (bohr), weighted-average traces (weyl), quotient-gap spot
checks (roth), and certificate plumbing (cert).  Exit codes make the
verbs scriptable: 0 is success, 1 is a negative verdict (REFUTED, a
failed verification), 2 is a usage or pipeline error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bohr import (
    BohrHammingBall,
    named_convergent,
    set_enumerate,
    set_to_json,
    sqrt_set_enumerate,
)
from .certificates import (
    Certificate,
    CertificateRejected,
    SearchExhausted,
    build_band_witness,
    certificate_text,
    combine_certificates,
    load_certificate,
    rotation_certificate,
    search_min_m,
    square_certificate,
    verify_certificate,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    PHASE_CAP,
    REFUTED,
    TRIG_HORIZON_CAP,
    TRIG_MODES_CAP,
    check_trig_cost,
    csv_table,
    list_experiments,
    parse_entry,
    run_experiment,
    write_atomic,
)
from .harmonic import Character, CoefficientTable, GridFunction, annihilating_cylinder
from .lattice import SubgroupModel
from .roth import quotient_gap_bound
from .torus import ApproxHammingBall, TorusPoint, as_fraction, fraction_str
from .weyl import WeylSystem, weighted_average

_NAMED = ("sqrt2", "sqrt3", "golden")

# most trials one `roth check` runs
ROTH_TRIALS_CAP = 10_000
# fixed cost of one shift of the outer axes in a progression form, in cells
ROTH_SHIFT_CELLS = 2**14
# most cells one `roth check` may cost (``_roth_trial_cells`` per trial): 60 s
# at 20 ns a cell, the rate the model was fitted to on a 2-vCPU Xeon (13 ns)
# with room for the shapes it underestimates by up to 1.5 times
ROTH_COST_CAP = 60 * 10**9 // 20
# most entries of a `weyl avg` polynomial file: the largest main_inequality
# trig table, a constant term and TRIG_MODES_CAP conjugate pairs
WEYL_TABLE_CAP = 1 + 2 * TRIG_MODES_CAP


def _rational(text: str) -> Fraction:
    """A fraction string, or a named convergent such as sqrt2 (q <= CONVERGENT_DENOMINATOR_CAP)."""
    if text in _NAMED:
        return named_convergent(text)
    try:
        return as_fraction(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _emit(text: str, out: str | None) -> int:
    """Write text to out, or to stdout without one: 0, or 2 with one error line."""
    try:
        if out:
            write_atomic(out, text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


# ---- lab ----


def main_lab(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="Run configured experiments and write reports."
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config document")
    sub.add_parser("list-experiments", help="list registered experiment ids")
    args = parser.parse_args(argv)

    if args.verb == "list-experiments":
        for name, summary in list_experiments():
            print(f"{name}: {summary}")
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig.from_json(doc)
        report = run_experiment(config)
    except (ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines:
        print(line)
    print(f"status: {report.status}")
    print(f"report: {config.out_dir}/report.json")
    return 1 if report.status == REFUTED else 0


# ---- bohr ----


def main_bohr(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohr", description="Enumerate Bohr-Hamming return sets."
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("enum", help="list members up to a horizon as run-length JSON")
    p.add_argument("--r", type=int, required=True, help="torus dimension")
    p.add_argument("--k", type=int, required=True, help="coordinates allowed to deviate")
    p.add_argument("--eps", type=_rational, required=True, help="deviation radius")
    p.add_argument(
        "--freq", type=_rational, nargs="+", required=True,
        help="r frequency coordinates (fractions or sqrt2/sqrt3/golden)",
    )
    p.add_argument("--N", type=int, required=True, help="enumeration horizon")
    p.add_argument("--sqrt", action="store_true", help="enumerate square-root returns")
    p.add_argument("--center", type=_rational, nargs="+", help="ball center, default 0")
    p.add_argument("--out", help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    if len(args.freq) != args.r:
        parser.error(f"expected {args.r} frequency coordinates, got {len(args.freq)}")
    center = args.center if args.center is not None else [Fraction(0)] * args.r
    if len(center) != args.r:
        parser.error(f"expected {args.r} center coordinates, got {len(center)}")
    try:
        # the scan allocates O(N): bound N by sqrt_recurrence's N before any work
        parse_entry("sqrt_recurrence", "N", args.N, "--N")
        ball = ApproxHammingBall(TorusPoint.of(center), args.k, args.eps)
    except (ExperimentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bh = BohrHammingBall(TorusPoint.of(args.freq), ball)
    scan = sqrt_set_enumerate if args.sqrt else set_enumerate
    result = scan(bh, args.N)
    doc = set_to_json(result.elems, args.N)
    doc["density"] = fraction_str(result.density)
    return _emit(json.dumps(doc, indent=2) + "\n", args.out)


# ---- weyl ----


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_json_number(v) -> bool:
    return (_is_json_int(v) or isinstance(v, float)) and math.isfinite(v)


def _load_table(path: str, dim: int) -> CoefficientTable:
    """Trig polynomial file: {"entries": [{"freq": [...], "coef": [re, im]}]}.

    Each entry is an object with dim JSON integers in freq and, optionally
    (default [1, 0]), two finite JSON numbers in coef; entries with the same
    freq add up.  At most WEYL_TABLE_CAP entries.  Any violation is a
    ValueError naming the entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != {"entries"}:
        raise ValueError("polynomial file must be an object with exactly the key 'entries'")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ValueError("polynomial file needs an 'entries' list")
    if len(entries) > WEYL_TABLE_CAP:
        raise ValueError(f"{len(entries)} entries exceed the cap {WEYL_TABLE_CAP}")
    table = CoefficientTable(dim)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"entries[{i}]: must be an object with 'freq' and 'coef'")
        unknown = sorted(set(entry) - {"freq", "coef"})
        if unknown:
            raise ValueError(f"entries[{i}]: unknown keys {unknown}")
        freq = entry.get("freq")
        coef = entry.get("coef", [1.0, 0.0])
        if not isinstance(freq, list) or len(freq) != dim or not all(map(_is_json_int, freq)):
            raise ValueError(f"entries[{i}]: freq must have {dim} integers")
        if not isinstance(coef, list) or len(coef) != 2 or not all(map(_is_json_number, coef)):
            raise ValueError(f"entries[{i}]: coef must be two finite numbers [re, im]")
        table[Character(tuple(freq))] += complex(coef[0], coef[1])
    return table


def main_weyl(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weyl", description="Weighted correlation traces on skew products."
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("avg", help="trace of weighted triple-correlation averages")
    p.add_argument("--d", type=int, required=True, help="rotation dimension")
    p.add_argument(
        "--alpha", type=_rational, nargs="+", required=True,
        help="d rotation coordinates (fractions or sqrt2/sqrt3/golden)",
    )
    p.add_argument(
        "--freq-beta", type=_rational, nargs="+", required=True,
        help="r weight frequency coordinates",
    )
    p.add_argument("--r", type=int, required=True, help="weight torus dimension")
    p.add_argument("--k", type=int, required=True, help="free coordinates of the window")
    p.add_argument("--eta", type=_rational, required=True, help="window half-width")
    p.add_argument("--ell", type=int, default=1, help="scale factor inside the weight")
    p.add_argument("--N", type=int, required=True, help="average horizon")
    p.add_argument(
        "--f", required=True,
        help=f"trig polynomial file (JSON), at most {WEYL_TABLE_CAP} entries",
    )
    p.add_argument("--out", help="write the CSV here instead of stdout")
    args = parser.parse_args(argv)

    if len(args.alpha) != args.d:
        parser.error(f"expected {args.d} alpha coordinates, got {len(args.alpha)}")
    if len(args.freq_beta) != args.r:
        parser.error(f"expected {args.r} beta coordinates, got {len(args.freq_beta)}")
    if not 0 <= args.k < args.r:
        parser.error(f"need 0 <= k < r, got k={args.k}, r={args.r}")
    if not 1 <= args.N <= TRIG_HORIZON_CAP:
        parser.error(f"--N: {args.N} is outside [1, {TRIG_HORIZON_CAP}]")
    if not 0 < args.eta <= Fraction(1, 2):
        parser.error(f"--eta: {args.eta} is outside (0, 1/2]")
    try:
        parse_entry("main_inequality (trig)", "ell", args.ell, "--ell")
        ball = ApproxHammingBall(TorusPoint.of([Fraction(0)] * args.r), args.k, args.eta)
        table = _load_table(args.f, 2 * args.d)
        g = annihilating_cylinder(ball, [])
        model = WeylSystem(TorusPoint.of(args.alpha))
        direction = [args.ell**2 * b for b in args.freq_beta]
        check_trig_cost(model, g, direction, args.N, 1, len(table) // 2)  # pairs and a constant
    except (ExperimentError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = weighted_average(model, table, g, direction, args.N)
    return _emit(trace.to_csv(), args.out)


# ---- roth ----


def _roth_trial_cells(q: int, d: int) -> int:
    """The cost of one `roth check` trial on (Z_q)^d, in cells of products.

    Each progression form takes q^(2d) products and, for each of the
    q^(d-1) shifts of its outer axes, rolls 5 q^d cells at about twice a
    product's cost after a fixed ``ROTH_SHIFT_CELLS``; the per-shift
    term is what makes small grids in many dimensions slow.
    """
    return q ** (2 * d) + q ** (d - 1) * (ROTH_SHIFT_CELLS + 10 * q**d)


def main_roth(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="roth", description="Progression-form quotient gap spot checks."
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("check", help="random trials of the projection gap bound")
    p.add_argument("--q", type=int, required=True, help="odd grid size")
    p.add_argument("--d", type=int, required=True, help="grid dimension")
    p.add_argument(
        "--trials", type=int, default=50, help=f"number of trials, 1 to {ROTH_TRIALS_CAP}"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    args = parser.parse_args(argv)

    if args.q % 2 == 0 or args.q < 3:
        parser.error(f"q must be odd and at least 3, got {args.q}")
    if args.d < 1:
        parser.error("d must be at least 1")
    if not 1 <= args.trials <= ROTH_TRIALS_CAP:
        parser.error(f"--trials: {args.trials} is outside [1, {ROTH_TRIALS_CAP}]")
    # q >= 3 makes q^d > PHASE_CAP for every d past its bit length, so q^d stays small
    if args.d >= PHASE_CAP.bit_length() or args.q**args.d > PHASE_CAP:
        parser.error(f"q^d = {args.q}^{args.d} cells exceed the cap {PHASE_CAP}")
    per_trial = _roth_trial_cells(args.q, args.d)
    if per_trial * args.trials > ROTH_COST_CAP:
        parser.error(
            f"cost trials * (q^(2d) + q^(d-1) * ({ROTH_SHIFT_CELLS} + 10 q^d)) = {args.trials} "
            f"* {per_trial} = {per_trial * args.trials} cells exceeds the cap {ROTH_COST_CAP}"
        )
    try:
        parse_entry("config", "seed", args.seed, "--seed")
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # project onto the quotient by the last coordinate axis; for d = 1
    # that is the full grid and the projection is the plain mean
    subgroup = SubgroupModel(args.q, (0,) * (args.d - 1) + (1,))
    rng = np.random.default_rng(args.seed)
    shape = (args.q,) * args.d

    rows = []
    failures = 0
    for trial in range(args.trials):
        f0, f1, f2 = (
            GridFunction(args.d, args.q, rng.standard_normal(shape).astype(np.complex128))
            for _ in range(3)
        )
        out = quotient_gap_bound(f0, f1, f2, subgroup)
        ok = out["gap"] <= out["bound"] + 1e-9
        failures += not ok
        rows.append(
            [
                trial, out["form"].real, out["projected_form"].real,
                out["gap"], out["kappa"], out["bound"], ok,
            ]
        )
    header = ["trial", "I", "I_W", "gap", "kappa", "bound", "ok"]
    return _emit(csv_table(header, rows), args.out) or (1 if failures else 0)


# ---- cert ----


def _print_verification(v) -> None:
    print(f"ok: {v.ok}")
    print(f"size: {v.size}")
    print(f"density: {fraction_str(v.density)} (required {fraction_str(v.required)})")
    if v.violating_shift is not None:
        print(f"violating shift: {v.violating_shift} at start {v.witness_start}")


def _load_verified(path: str, verb: str) -> Certificate:
    """A certificate file, verified once before an operation builds on it."""
    cert = load_certificate(path)
    if not verify_certificate(cert):
        raise ValueError(f"{path} does not verify; refuse to {verb}")
    return cert


def main_cert(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cert", description="Build, merge, and verify nonreturn certificates."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="re-check a certificate file exactly")
    p_verify.add_argument("cert", help="certificate JSON path")

    p_build = sub.add_parser("build", help="rotation certificate from a band witness")
    p_build.add_argument("--k", type=int, required=True, help="ball deviation budget")
    p_build.add_argument("--eta", type=_rational, required=True, help="band measure target")
    p_build.add_argument(
        "--freq", type=_rational, nargs="+", required=True,
        help="frequency coordinates, one per witness dimension",
    )
    p_build.add_argument("--N", type=int, required=True, help="certificate horizon")
    p_build.add_argument("--out", required=True, help="where to save the certificate")

    p_comb = sub.add_parser("combine", help="merge two certificates at a fixed dilation")
    p_comb.add_argument("first")
    p_comb.add_argument("second")
    p_comb.add_argument("--m", type=int, required=True)
    p_comb.add_argument("--out", required=True)

    p_search = sub.add_parser("search-m", help="smallest dilation that merges")
    p_search.add_argument("first")
    p_search.add_argument("second")
    p_search.add_argument("--m-max", type=int, required=True)
    p_search.add_argument("--out", required=True)

    p_square = sub.add_parser("square", help="rewrite shifts through s -> s^2")
    p_square.add_argument("cert")
    p_square.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        if args.verb == "verify":
            v = verify_certificate(load_certificate(args.cert))
            _print_verification(v)
            return 0 if v.ok else 1

        if args.verb == "build":
            # the return set, kept and saved shift by shift, grows with N: bound N before any work
            parse_entry("theorem_stage", "N", args.N, "--N")
            witness, ball, proof = build_band_witness(args.k, args.eta)
            if len(args.freq) != witness.r:
                print(
                    f"error: witness needs {witness.r} frequency coordinates, "
                    f"got {len(args.freq)}",
                    file=sys.stderr,
                )
                return 2
            freq = TorusPoint.of(args.freq)
            returns = set_enumerate(BohrHammingBall(freq, ball), args.N).elems
            cert = rotation_certificate(witness, ball, freq, args.N, returns)
            write_atomic(args.out, certificate_text(cert))
            print(f"witness: r={proof['r']} t={proof['t']} a={proof['a']}")
            print(f"claim: {fraction_str(cert.density_claim)} over horizon {args.N}")
            print(f"shifts: {len(cert.shifts)}")
            return 0

        if args.verb == "combine":
            c1, c2 = (_load_verified(path, "combine") for path in (args.first, args.second))
            cert = combine_certificates(c1, c2, args.m)
            write_atomic(args.out, certificate_text(cert))
            print(f"m: {args.m}")
            print(f"claim: {fraction_str(cert.density_claim)}")
            return 0

        if args.verb == "search-m":
            c1, c2 = (_load_verified(path, "combine") for path in (args.first, args.second))
            m, cert = search_min_m(c1, c2, args.m_max)
            write_atomic(args.out, certificate_text(cert))
            print(f"m: {m}")
            print(f"claim: {fraction_str(cert.density_claim)}")
            return 0

        v2 = square_certificate(_load_verified(args.cert, "square"))
        write_atomic(args.out, certificate_text(v2))
        print(f"shifts: {len(v2.shifts)}")
        return 0
    except (CertificateRejected, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExperimentError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main_lab())
