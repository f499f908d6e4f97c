#!/usr/bin/env python3
"""List the statements of reclab that no config and no CLI verb runs.

    PYTHONPATH=src python3 scripts/unreached.py

Traces ``src/reclab`` line by line (``sys.settrace``) while it runs
one in-process call of each CLI verb: ``lab run`` on each of the eight
configs of ``scripts/configs``, ``bohr enum`` with and without
``--sqrt``, ``weyl avg``, ``roth check``,
``cert build``/``verify``/``combine``/``search-m``/``square`` and
``lab list-experiments``.  Every output goes to a temporary directory.
Then it prints, per module, the statements that never ran (docstrings
skipped), grouped by the function that holds them.

A statement counts as run when a line of its own (for a compound
statement, of its header) was traced, or when a statement in its body
ran: a ``try:`` line, for one, may emit no line event of its own.  Most
never-run statements raise on bad input; the rest are candidates for
deletion.  The whole run takes 6 to 9 s on a 2-vCPU machine, most of
it in the configs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reclab"
CONFIG_DIR = ROOT / "scripts" / "configs"

#: a trig polynomial on T^1 x T^1 for ``weyl avg``
WEYL_TABLE = {
    "entries": [
        {"freq": [0, 0], "coef": [0.5, 0.0]},
        {"freq": [1, 0], "coef": [0.2, -0.1]},
        {"freq": [-1, 0], "coef": [0.2, 0.1]},
        {"freq": [0, 1], "coef": [0.1, 0.0]},
        {"freq": [0, -1], "coef": [0.1, 0.0]},
    ]
}


def _is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement without its nested bodies: a header, or the whole statement."""
    bodies = [getattr(node, f, None) for f in ("body", "orelse", "finalbody", "handlers")]
    nested = [b[0].lineno for b in bodies if isinstance(b, list) and b]
    first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
    last = min(nested) - 1 if nested else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path: Path) -> list[tuple[str, ast.stmt, list[ast.stmt]]]:
    """(qualified function name, statement, nested statements) for every statement."""
    out = []

    def visit(body: list[ast.stmt], scope: str) -> None:
        for node in body:
            if _is_docstring(node, body):
                continue
            inner = []
            for field in ("body", "orelse", "finalbody"):
                inner.extend(getattr(node, field, None) or [])
            for handler in getattr(node, "handlers", []):
                inner.append(handler)
            out.append((scope, node, inner))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name if scope == "<module>" else f"{scope}.{node.name}"
                visit(node.body, name)
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, None) or [], scope)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, scope)

    visit(ast.parse(path.read_text()).body, "<module>")
    return out


def run_everything(work: Path) -> None:
    """One call of each CLI verb, ``lab run`` once per config, with outputs below work."""
    from reclab.certificates import Certificate, certificate_text
    from reclab.cli import main_bohr, main_cert, main_lab, main_roth, main_weyl

    runs = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        doc["out_dir"] = str(work / "runs" / path.stem)
        config = work / path.name
        config.write_text(json.dumps(doc))
        runs.append((main_lab, ["run", str(config)]))
    table = work / "table.json"
    table.write_text(json.dumps(WEYL_TABLE))
    cert = str(work / "cert.json")
    # the even numbers below 600 avoid the shift 1: they merge with themselves
    # at m = 3, and their squares certify the squared shift
    evens = str(work / "evens.json")
    Path(evens).write_text(certificate_text(
        Certificate(600, sum(1 << n for n in range(0, 600, 2)), (1,), 1, Fraction(1, 2))
    ))
    calls = runs + [
        (main_bohr, ["enum", "--r", "2", "--k", "1", "--eps", "1/8",
                     "--freq", "sqrt2", "3/7", "--N", "2000"]),
        (main_bohr, ["enum", "--r", "2", "--k", "1", "--eps", "1/8",
                     "--freq", "sqrt2", "3/7", "--N", "2000", "--sqrt"]),
        (main_weyl, ["avg", "--d", "1", "--alpha", "sqrt2", "--freq-beta", "1/7", "2/7",
                     "--r", "2", "--k", "1", "--eta", "1/8", "--N", "2000", "--f", str(table)]),
        (main_roth, ["check", "--q", "9", "--d", "2", "--trials", "2"]),
        (main_cert, ["build", "--k", "1", "--eta", "1/8", "--freq", "3/64", "5/81",
                     "--N", "2000", "--out", cert]),
        (main_cert, ["verify", cert]),
        (main_cert, ["search-m", evens, evens, "--m-max", "5", "--out", str(work / "m.json")]),
        (main_cert, ["combine", evens, evens, "--m", "3", "--out", str(work / "c.json")]),
        (main_cert, ["square", evens, "--out", str(work / "s.json")]),
        (main_lab, ["list-experiments"]),
    ]
    for main, argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code:
            raise SystemExit(f"{main.__name__} {' '.join(argv)} exited {code}")


def main() -> int:
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        try:
            run_everything(Path(tmp))
        finally:
            sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits.get(str(path), set())
        entries = statements(path)
        inner_of = {id(node): inner for _, node, inner in entries}
        ran: dict[int, bool] = {}

        def ran_node(node) -> bool:
            # an except handler is no entry; its own statements are its body
            key = id(node)
            if key not in ran:
                own = any(n in seen for n in _own_lines(node))
                inner = inner_of.get(key, getattr(node, "body", []))
                ran[key] = own or any(ran_node(child) for child in inner)
            return ran[key]

        missed: dict[str, list[ast.stmt]] = defaultdict(list)
        for scope, node, _ in entries:
            if not ran_node(node):
                missed[scope].append(node)
        total = len(entries)
        count = sum(len(v) for v in missed.values())
        print(f"{path.name}: {count} of {total} statements never ran")
        lines = path.read_text().splitlines()
        for scope, nodes in missed.items():
            print(f"  {scope}")
            for node in nodes:
                print(f"    {node.lineno}: {lines[node.lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
