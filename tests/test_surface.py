"""The package's public surface is what its commands reach.

A public function or class of the core modules stays only if some other
code of the package names it: a subcommand or the report reaches it, or a
function that they reach does.  Test-side oracles live in conftest.  The
modules the benchmark's tracer wraps by name must load with the CLI.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "satbones"
# cli's handlers are found through globals(); horn, krom and generators are
# named by the benchmark, not by a command
CHECKED = (
    "formula", "dimacs", "solver", "unsat_subsets", "backbones", "unitref",
    "report",
)


def _names(node) -> set:
    """Names a node reads, or imports with ``from ... import``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unreached_names() -> list:
    """Public top-level functions and classes of CHECKED that no code of the
    package names outside their own definition and ``__init__.py``."""
    # (module, top-level definition or None) -> names read there
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            uses.setdefault((path.stem, owner), set()).update(_names(stmt))
    unreached = []
    for module in CHECKED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for stmt in tree.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)
            ) or stmt.name.startswith("_"):
                continue
            if not any(
                stmt.name in names
                for place, names in uses.items()
                if place != (module, stmt.name)
            ):
                unreached.append(f"{module}.{stmt.name}")
    return unreached


def test_every_public_name_is_reached_inside_the_package():
    assert unreached_names() == []


def test_traced_layers_load_with_the_cli():
    # a fresh interpreter, so that no other test's imports count
    tree = ast.parse((ROOT / "satbench" / "tracing.py").read_text())
    (layers,) = [
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["LAYERS"]
    ]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys; importlib.import_module('satbones.cli'); "
         "print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert [l for l in layers if f"satbones.{l}" not in loaded] == []
