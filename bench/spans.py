"""Spans and counters recorded around reclab's public functions, from outside.

``Tracer.install`` replaces each probed function with a wrapper, under
every ``reclab`` module name that imported it (``reclab.weyl.triple_integrals``
and ``reclab.experiments.triple_integrals`` alike) and on the class for
methods.  ``Tracer.uninstall`` puts the originals back.  No file of the
program changes.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span in the same list, or None.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part
of it that its child spans cover; a name's busy time is the length of
the union of its spans.

Counters are exact.  ``COMPUTED`` lists the ones derived from argument
sizes rather than observed work.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_scan(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["bohr.calls"] += 1
    tracer.counts["bohr.scanned"] += int(_arg(args, kwargs, 1, "n_max"))


def _count_verify(tracer: "Tracer", args, kwargs, result) -> None:
    cert = _arg(args, kwargs, 0, "cert")
    tracer.counts["certificates.verify.calls"] += 1
    tracer.counts["certificates.verify.shift_words"] += (
        len(cert.shifts) * cert.k * -(-cert.horizon // 64)
    )
    tracer.distinct_certs.add((cert.horizon, cert.k, cert.bits, cert.shifts))
    tracer.counts["certificates.verify.distinct"] = len(tracer.distinct_certs)


def _count_attempt(tracer: "Tracer", args, kwargs) -> None:
    tracer.counts["certificates.combine.attempts"] += 1


def _count_accepted(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["certificates.combine.accepted"] += 1


def _count_integrals(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["weyl.integrals"] += len(result)


def _count_pullback(tracer: "Tracer", args, kwargs, result) -> None:
    model = args[0]
    tracer.counts["weyl.pullback.calls"] += 1
    tracer.counts["weyl.pullback.cells"] += math.prod(model.phase_space_shape)


def _count_roth(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["roth.calls"] += 1
    tracer.counts["roth.terms"] += _arg(args, kwargs, 0, "a0").size ** 2


def _count_elements(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["lattice.elements.count"] += len(result)


def _count_persist(tracer: "Tracer", args, kwargs, result) -> None:
    # The tables only: report.json holds the wall clock, so its length varies.
    report = _arg(args, kwargs, 0, "report")
    out_dir = _arg(args, kwargs, 1, "out_dir")
    tracer.counts["experiments.persist.bytes"] += sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in report.tables
    )


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``attr`` is ``func`` or ``Class.method`` in ``module``.

    ``span`` names the span, or is None for a call counter only (``tally``
    names the counter), for callables too hot to time one by one.
    ``before`` updates counters from the arguments of every call,
    ``after`` from the arguments and the result of calls that return.
    """

    module: str
    attr: str
    span: str | None
    after: Callable | None = None
    before: Callable | None = None
    tally: str | None = None


PROBES: tuple[Probe, ...] = (
    Probe("reclab.experiments", "run_experiment", "experiments"),
    Probe("reclab.experiments", "persist_report", "experiments.persist", _count_persist),
    Probe("reclab.bohr", "set_enumerate", "bohr.set_enumerate", _count_scan),
    Probe("reclab.bohr", "sqrt_set_enumerate", "bohr.sqrt_set_enumerate", _count_scan),
    Probe("reclab.certificates", "verify_certificate", "certificates.verify", _count_verify),
    Probe("reclab.certificates", "band_return_bitset", "certificates.bitset"),
    Probe("reclab.certificates", "rotation_certificate", "certificates.rotation"),
    Probe("reclab.certificates", "combine_certificates", "certificates.combine", _count_accepted,
          _count_attempt),
    Probe("reclab.weyl", "weighted_average", "weyl.weighted_average"),
    Probe("reclab.weyl", "triple_integrals", "weyl.triple_integrals", _count_integrals),
    Probe("reclab.weyl", "GridWeylModel.pullback_values", "weyl.pullback", _count_pullback),
    Probe("reclab.weyl", "RotationModel.pullback_values", "weyl.pullback", _count_pullback),
    Probe("reclab.weyl", "WeylSystem.correlation_series", "weyl.correlation_series"),
    Probe("reclab.roth", "roth_form_exact", "roth.form_exact", _count_roth),
    Probe("reclab.joinings", "uniformize_over_joining", "joinings.uniformize"),
    Probe("reclab.joinings", "annihilate_over_joining", "joinings.annihilate"),
    Probe("reclab.joinings", "extract_affine_joining", "joinings.extract"),
    Probe("reclab.joinings", "root_of_unity_sum_is_zero", None, tally="joinings.star_zero.cosets"),
    Probe("reclab.harmonic", "GridFunction.spectrum_table", "harmonic.spectrum"),
    Probe("reclab.harmonic", "top_k_characters", "harmonic.top_k"),
    Probe("reclab.lattice", "SubgroupModel.elements", "lattice.elements", _count_elements),
    Probe("reclab.torus", "Cylinder.normalized_value", None, tally="torus.window_evals"),
)

#: counters derived from argument sizes, not from observed work
COMPUTED = ("certificates.verify.shift_words", "weyl.pullback.cells", "roth.terms")


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self, run_id: str = "run", clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.distinct_certs: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        if probe.span is None:
            counts, key = self.counts, probe.tally

            @functools.wraps(fn)
            def tally(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return tally

        name, before, after = probe.span, probe.before, probe.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --

    def install(self, probes: tuple[Probe, ...] = PROBES) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in probes:
            module = sys.modules[probe.module]
            owner_name, _, attr = probe.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, probe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, probe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "reclab" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---- arithmetic over recorded spans ----


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if s < end and e > start]
        out.append((end - start) - union_length(inner))
    return out


def busy_time(spans, names) -> float:
    """Length of the union of the spans whose name is in ``names``."""
    wanted = set(names)
    return union_length([(s, e) for n, s, e, _, _ in spans if n in wanted])


def self_time(spans, names, selfs: list[float] | None = None) -> float:
    """Summed self time of the spans whose name is in ``names``."""
    wanted = set(names)
    selfs = self_times(spans) if selfs is None else selfs
    return sum(t for span, t in zip(spans, selfs) if span[0] in wanted)


def _layer(spans, layer: str) -> list[str]:
    return sorted({s[0] for s in spans if s[0].split(".")[0] == layer})


LAYERS = ("bohr", "certificates", "weyl", "roth", "joinings", "harmonic", "lattice")

# (metric, kind, source): "busy" and "self" take span names, "layer" sums the
# self time of every span of a layer, "count" reads a counter
PER_LAYER: tuple[tuple[str, str, object], ...] = (
    ("bohr.busy_s", "busy", ("bohr.set_enumerate", "bohr.sqrt_set_enumerate")),
    ("bohr.calls", "count", "bohr.calls"),
    ("bohr.scanned", "count", "bohr.scanned"),
    ("certificates.verify.busy_s", "busy", ("certificates.verify",)),
    ("certificates.verify.calls", "count", "certificates.verify.calls"),
    ("certificates.verify.distinct", "count", "certificates.verify.distinct"),
    ("certificates.verify.shift_words", "count", "certificates.verify.shift_words"),
    ("certificates.bitset.busy_s", "busy", ("certificates.bitset",)),
    ("certificates.rotation.self_s", "self", ("certificates.rotation",)),
    ("certificates.combine.busy_s", "busy", ("certificates.combine",)),
    ("certificates.combine.attempts", "count", "certificates.combine.attempts"),
    ("certificates.combine.accepted", "count", "certificates.combine.accepted"),
    ("weyl.weighted_average.self_s", "self", ("weyl.weighted_average",)),
    ("weyl.triple_integrals.busy_s", "busy", ("weyl.triple_integrals",)),
    ("weyl.integrals", "count", "weyl.integrals"),
    ("weyl.pullback.busy_s", "busy", ("weyl.pullback",)),
    ("weyl.pullback.calls", "count", "weyl.pullback.calls"),
    ("weyl.pullback.cells", "count", "weyl.pullback.cells"),
    ("weyl.correlation_series.busy_s", "busy", ("weyl.correlation_series",)),
    ("roth.busy_s", "busy", ("roth.form_exact",)),
    ("roth.calls", "count", "roth.calls"),
    ("roth.terms", "count", "roth.terms"),
    ("joinings.uniformize.busy_s", "busy", ("joinings.uniformize",)),
    ("joinings.annihilate.busy_s", "busy", ("joinings.annihilate",)),
    ("joinings.extract.busy_s", "busy", ("joinings.extract",)),
    ("joinings.star_zero.cosets", "count", "joinings.star_zero.cosets"),
    ("harmonic.spectrum.busy_s", "busy", ("harmonic.spectrum",)),
    ("harmonic.top_k.busy_s", "busy", ("harmonic.top_k",)),
    ("lattice.elements.busy_s", "busy", ("lattice.elements",)),
    ("lattice.elements.count", "count", "lattice.elements.count"),
    ("torus.window_evals", "count", "torus.window_evals"),
    ("experiments.self_s", "self", ("experiments",)),
    ("experiments.persist.busy_s", "busy", ("experiments.persist",)),
    ("experiments.persist.bytes", "count", "experiments.persist.bytes"),
    *((f"{layer}.self_s", "layer", layer) for layer in LAYERS),
)


def unit(metric: str) -> str:
    """The unit a PER_LAYER metric is reported in."""
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


COUNTERS = tuple(source for _, kind, source in PER_LAYER if kind == "count")


def summarize(spans, counts) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run's spans and counters."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for metric, kind, source in PER_LAYER:
        if kind == "busy":
            out[metric] = busy_time(spans, source)
        elif kind == "self":
            out[metric] = self_time(spans, source, selfs)
        elif kind == "layer":
            out[metric] = self_time(spans, _layer(spans, source), selfs)
        else:
            out[metric] = int(counts.get(source, 0))
    return out


def stage_busy(spans) -> dict[str, float]:
    """Busy time of each span name directly below the run's root span."""
    roots = {i for i, s in enumerate(spans) if s[3] is None}
    names = sorted({s[0] for s in spans if s[3] in roots})
    return {name: busy_time([s for s in spans if s[3] in roots], (name,)) for name in names}
