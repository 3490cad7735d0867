"""Every public name of the library is reached from the CLI, the scripts or
the benchmark harness; a name that only tests call belongs in the tests.

Reachability is read from the source with ``ast``: the seeds are the names
that ``cli.py``, ``scripts/*.py`` and ``perfbench/*.py`` reference, and each
reached top-level definition of a library module adds the names its body
references.  Names are matched without their module, which can only
over-approximate what is reached.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sure_boundary"
LAYERS = ("core", "quadrature", "families", "boundary", "known_variance", "montecarlo", "reports")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node: ast.AST) -> set[str]:
    """Identifiers node uses: names, attributes, imported names, and the
    parts of a string that is a dotted identifier (the harness names its
    layers as text, e.g. "reports.canonical_json")."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level name -> the statement that defines it (``__all__`` left out)."""
    defs: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id != "__all__":
                        defs[sub.id] = stmt
    return defs


def _public(module: str) -> list[str]:
    for stmt in _parse(PACKAGE / f"{module}.py").body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{module} has no __all__")


@lru_cache(maxsize=None)
def _reached() -> frozenset[str]:
    defs: dict[str, list[ast.stmt]] = {}
    for path in PACKAGE.glob("*.py"):
        for name, stmt in _definitions(_parse(path)).items():
            defs.setdefault(name, []).append(stmt)
    # perfbench/out/ holds run outputs, not code; the glob does not descend
    seeds = [PACKAGE / "cli.py", *sorted(ROOT.glob("scripts/*.py"))]
    seeds += sorted(ROOT.glob("perfbench/*.py"))
    todo = set().union(*(_references(_parse(path)) for path in seeds))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for stmt in defs.get(name, ()):
                todo |= _references(stmt)
    return frozenset(reached)


@pytest.mark.parametrize("module", LAYERS)
def test_every_public_name_is_reached(module):
    assert sorted(set(_public(module)) - _reached()) == []
