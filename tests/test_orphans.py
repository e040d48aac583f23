"""Orphan guard: every library module is reached by a program, not only by tests.

A module of ``src/repro`` earns its place when one of its public top-level
names is referenced from another module of ``src/`` (package ``__init__``
re-exports do not count), from ``examples/`` or from ``benchmarks/``.
References are read from the syntax tree — names, attributes, imported
names and non-docstring string constants (the benchmark's span targets are
``"module:Class.method"`` strings) — so a mention in a comment or docstring
does not count.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Modules kept without a consumer, each with the ROADMAP item that decides it.
EXEMPT = {
    "variants/fp8.py": "ROADMAP item 10",
    "variants/projections.py": "ROADMAP item 10",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_") and n != "__all__"}


def _docstrings(tree: ast.Module) -> set:
    nodes = [tree] + [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return {
        id(n.body[0].value) for n in nodes
        if n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
        and isinstance(n.body[0].value.value, str)
    }


def _references(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = _docstrings(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            refs.update(_IDENT.findall(node.value))
    return refs


def orphan_modules() -> list:
    """Library modules (relative to ``src/repro``) no program references."""
    modules = sorted(
        p for p in PACKAGE.rglob("*.py") if p.name not in ("__init__.py", "__main__.py")
    )
    programs = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    programs += list((ROOT / "examples").rglob("*.py"))
    programs += list((ROOT / "benchmarks").rglob("*.py"))
    referrers = defaultdict(set)  # name -> files referencing it
    for path in programs:
        for name in _references(path):
            referrers[name].add(path)
    orphans = []
    for mod in modules:
        names = _public_names(ast.parse(mod.read_text(), filename=str(mod)))
        if not any(referrers[n] - {mod} for n in names):
            orphans.append(mod.relative_to(PACKAGE).as_posix())
    return orphans


def test_every_module_has_a_consumer():
    orphans = orphan_modules()
    assert [m for m in orphans if m not in EXEMPT] == []
    # An exemption that a consumer has since reached must be dropped.
    assert sorted(EXEMPT) == [m for m in orphans if m in EXEMPT]
