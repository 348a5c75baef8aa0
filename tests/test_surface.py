"""The package's public surface is what its commands and the benchmark
reach.

A public function or class of the core modules stays only if some other
code of the package names it: a subcommand or the report reaches it, or a
function that they reach does.  The benchmark builds its instances from
``generators``, so what ``satbench/workloads.py`` reads off that module
counts as reached too.  A public method or property of those modules'
classes stays only if the package or the benchmark reads it as an
attribute.  Test-side oracles and reductions live in conftest.  The
modules the benchmark's tracer wraps by name must load with the CLI.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "satbones"
BENCHMARK = ROOT / "satbench"
# cli's handlers are found through globals(); horn and krom are reached
# only through the benchmark's tracer, which looks them up by module name
CHECKED = (
    "formula", "dimacs", "solver", "unsat_subsets", "backbones", "unitref",
    "report", "generators",
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


def _benchmark_builders() -> set:
    """Attributes satbench/workloads.py reads off ``gen``, which is
    satbones.generators."""
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())
    return {
        sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "gen"
    }


def unreached_names() -> list:
    """Public top-level functions and classes of CHECKED that no code of the
    package names outside their own definition and ``__init__.py``, and,
    for generators, that the benchmark does not build with."""
    # (module, top-level definition or None) -> names read there
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            uses.setdefault((path.stem, owner), set()).update(_names(stmt))
    builders = _benchmark_builders()
    unreached = []
    for module in CHECKED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for stmt in tree.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)
            ) or stmt.name.startswith("_"):
                continue
            if module == "generators" and stmt.name in builders:
                continue
            if not any(
                stmt.name in names
                for place, names in uses.items()
                if place != (module, stmt.name)
            ):
                unreached.append(f"{module}.{stmt.name}")
    return unreached


def unread_members() -> list:
    """Public methods and properties of CHECKED's public classes that no
    code of the package or of the benchmark reads as an attribute."""
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARK.glob("*.py")):
        read.update(
            sub.attr
            for sub in ast.walk(ast.parse(path.read_text()))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        )
    return [
        f"{module}.{cls.name}.{stmt.name}"
        for module in CHECKED
        for cls in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in read
    ]


def test_every_public_name_is_reached_inside_the_package():
    assert unreached_names() == []


def test_every_public_method_is_read():
    assert unread_members() == []


def test_traced_layers_load_with_the_cli():
    # a fresh interpreter, so that no other test's imports count
    tree = ast.parse((BENCHMARK / "tracing.py").read_text())
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
