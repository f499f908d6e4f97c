"""Guard against library surface that nothing in the program uses.

Every public function, class and method defined in ``src/reclab`` must
be named somewhere else in ``src/`` as a word of code (strings and
comments do not count), or carry an entry in ``ALLOWED`` saying why it
is reached from outside the package.  Oracles and fixture builders that
only the tests call belong in ``tests/oracles.py``.  A
``main_inequality`` or ``theorem_stage`` run must not import
``numpy.random`` either: the grid battery, the trig coefficients and the
band probe's uniforms come from ``reclab.pcg64``.
"""

import ast
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from reclab.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reclab"
MODULES = sorted(PACKAGE.glob("*.py"))


def console_scripts() -> dict[str, str]:
    """The [project.scripts] entry points in pyproject.toml, by function name."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {
        func: f"console script `{script}` in pyproject.toml"
        for script, func in re.findall(r'^(\w+) = "reclab\.cli:(\w+)"', section, re.M)
    }


#: qualified name -> why it is reached although no code in src/ names it
ALLOWED = {
    **console_scripts(),
    **{
        fn.__name__: f"run through the EXPERIMENTS registry as {name!r}"
        for name, fn in EXPERIMENTS.items()
    },
    "Cylinder.normalized_value": "probed by the benchmark tracer (bench/spans.py)",
    "WeylSystem.correlation_series": (
        "probed by the benchmark tracer (bench/spans.py); the pipelines evaluate series_plan"
    ),
}


def public_definitions() -> list[tuple[str, str]]:
    """(module file, qualified name) of each public top-level def, class and method."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return out


def code_words() -> Counter:
    """How often each identifier occurs as code across src/reclab."""
    counts: Counter = Counter()
    for path in MODULES:
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def test_every_public_name_is_used_in_src_or_allowed():
    words = code_words()
    defined = public_definitions()
    assert len(defined) > 50  # the scan sees the package
    # the definition itself is one occurrence; a use anywhere in src/ is another
    unused = [
        f"{module}: {name}"
        for module, name in defined
        if words[name.rsplit(".", 1)[-1]] < 2 and name not in ALLOWED
    ]
    assert unused == [], "public names nothing in src/ uses; move them to tests/oracles.py"


def test_every_allowed_name_is_defined():
    names = {name for _, name in public_definitions()}
    assert sorted(set(ALLOWED) - names) == []
    assert {"main_lab", "main_bohr", "main_weyl", "main_roth", "main_cert"} <= set(ALLOWED)


def test_every_tracer_reason_names_a_probe():
    # bench/spans.py is read as text: Probe("module", "attr", ...) patches attr by name
    spans = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")
    probed = set(re.findall(r'Probe\(\s*"[\w.]+",\s*"([\w.]+)"', spans))
    assert "Cylinder.normalized_value" in probed  # the pattern sees the probes
    cited = [name for name, why in ALLOWED.items() if "bench/spans.py" in why]
    assert cited and sorted(set(cited) - probed) == []


def test_every_benchmark_probe_resolves():
    # a probed name that no longer exists fails the traced benchmark runs;
    # catch it here: the module is loaded and holds the function, or the
    # class body defines the method
    import reclab.cli  # noqa: F401  (loads every module a probe names)

    spans = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")
    probes = re.findall(r'Probe\(\s*"([\w.]+)",\s*"([\w.]+)"', spans)
    assert ("reclab.lattice", "SubgroupModel.elements") in probes  # the pattern sees the probes
    missing = []
    for module, attr in probes:
        owner, _, method = attr.rpartition(".")
        mod = sys.modules.get(module)
        if mod is None:
            missing.append(f"{module} (not loaded)")
        elif not owner:
            if not callable(getattr(mod, attr, None)):
                missing.append(f"{module}.{attr}")
        elif method not in getattr(getattr(mod, owner, None), "__dict__", {}):
            missing.append(f"{module}.{attr}")
    assert missing == []


def _numpy_random_users(tree: ast.Module) -> set[str]:
    """Top-level functions and methods whose code (not annotations) names np.random."""
    annotations = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                annotations.update(id(n) for n in ast.walk(ann))
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs.extend((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
    return {
        name
        for name, fn in defs
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr == "random" and id(n) not in annotations
        and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")
    }


def test_numpy_random_call_sites_are_pinned():
    # the streams of numpy.random Generator methods may change between numpy
    # versions; no new caller may appear while these two remain
    users, imports = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        users |= _numpy_random_users(tree)
        imports += [
            path.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            and (node.module.startswith("numpy.random") or any(a.name == "random" for a in node.names))
        ]
    assert imports == []
    assert users == {"_random_mask", "main_roth"}


def test_one_membership_kernel():
    # membership is decided by torus.orbit_deviations through each region's
    # orbit_contains; the scalar Fraction predicates live in tests/oracles.py
    defs = {
        node.name: node
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"contains", "deviation_count", "coordinate_norm"} & set(defs) == set()
    for region in ("Cylinder", "ApproxHammingBall", "BandWitness"):
        methods = {item.name for item in defs[region].body if isinstance(item, ast.FunctionDef)}
        assert "orbit_contains" in methods, region


@pytest.mark.parametrize("module", [path.stem for path in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"reclab.{module}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


# a fresh interpreter runs the config through `lab run`, then lists the
# numpy.random modules it loaded
_LOADED_RANDOM = """
import sys
from reclab.cli import main_lab
code = main_lab(["run", sys.argv[1]])
print("loaded:", sorted(m for m in sys.modules if m.startswith("numpy.random")), file=sys.stderr)
sys.exit(code)
"""


def _loaded_random(tmp_path, experiment: str, params: dict) -> str:
    """`lab run` of a seed-11 config of ``experiment`` in a fresh interpreter; its stderr."""
    config = {
        "experiment": experiment,
        "out_dir": str(tmp_path / "out"),
        "seed": 11,
        "params": params,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_RANDOM, str(path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stderr


def test_grid_main_inequality_never_imports_numpy_random(tmp_path):
    # battery 3 draws the x-only row and one random grid from reclab.pcg64
    stderr = _loaded_random(tmp_path, "main_inequality", {
        "model": "grid", "q": 27, "alpha": "2/27", "r": 5, "k": 4,
        "eps": "1/8", "t0": "1/7", "battery": 3,
    })
    assert "loaded: []" in stderr
    assert "random-0" in (tmp_path / "out" / "battery.csv").read_text(encoding="utf-8")


def test_trig_main_inequality_never_imports_numpy_random(tmp_path):
    # each of the two observables draws its frequencies and normal coefficients
    # from reclab.pcg64
    stderr = _loaded_random(tmp_path, "main_inequality", {
        "model": "trig", "r": 5, "k": 4, "eps": "1/8", "N": 1000, "battery": 2,
    })
    assert "loaded: []" in stderr
    assert "trig-1" in (tmp_path / "out" / "battery.csv").read_text(encoding="utf-8")


def test_theorem_stage_never_imports_numpy_random(tmp_path):
    # build_band_witness probes the witness with uniforms from reclab.pcg64.SplitMix64
    stderr = _loaded_random(tmp_path, "theorem_stage", {"stages": 1, "N": 1000})
    assert "loaded: []" in stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["metrics"]["witness"]["mc_samples"] == 100_000
    assert report["metrics"]["witness"]["mc_violations"] == 0
