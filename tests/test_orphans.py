"""Orphan guards: every library module and public name is reached by a program.

A module of ``src/repro`` earns its place when one of its public top-level
names is referenced from another module of ``src/`` (package ``__init__``
re-exports do not count), from ``examples/`` or from ``benchmarks/``.
One level down, a public function, class or method earns its place when a
program references it by name; its own module counts, its own ``def`` does
not.  Methods are matched by bare name, so a common name like ``run`` is
always reached: the guard may under-report, never block wrongly.
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

#: Packages whose public surface stays whole, by exemption class.
SURFACES = {
    "api/": "(a) FlashInfer's Python API (Listing 1)",
    "variants/": "(b) the variant catalogue: ROADMAP item 10 decides it",
}

#: Public names kept without a program consumer, each with its exemption class.
EXEMPT_NAMES = {
    "utils/dtypes.py:dequantize_fp8":
        "(b) the fp8 storage helper: ROADMAP item 10 decides it",
    "core/composition.py:contract_entry":
        "(c) the oracle tests/reference_kernels.py calls",
    "serving/checkpoint.py:CheckpointStore.corrupt_snapshot":
        "(d) fault-injection hook: test_serving_checkpoint reaches snapshot "
        "verification through it",
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


def _modules() -> list:
    return sorted(
        p for p in PACKAGE.rglob("*.py") if p.name not in ("__init__.py", "__main__.py")
    )


def _referrers() -> dict:
    """``{name: files referencing it}`` over every program."""
    programs = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    programs += list((ROOT / "examples").rglob("*.py"))
    programs += list((ROOT / "benchmarks").rglob("*.py"))
    referrers = defaultdict(set)
    for path in programs:
        for name in _references(path):
            referrers[name].add(path)
    return referrers


def orphan_modules() -> list:
    """Library modules (relative to ``src/repro``) no program references."""
    referrers = _referrers()
    orphans = []
    for mod in _modules():
        names = _public_names(ast.parse(mod.read_text(), filename=str(mod)))
        if not any(referrers[n] - {mod} for n in names):
            orphans.append(mod.relative_to(PACKAGE).as_posix())
    return orphans


def test_every_module_has_a_consumer():
    orphans = orphan_modules()
    assert [m for m in orphans if m not in EXEMPT] == []
    # An exemption that a consumer has since reached must be dropped.
    assert sorted(EXEMPT) == [m for m in orphans if m in EXEMPT]


def _definitions(tree: ast.Module):
    """``(qualified name, bare name)`` of the public top-level functions and
    classes and the public methods of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")):
                        yield f"{node.name}.{m.name}", m.name


def orphan_names() -> list:
    """``module:name`` for every public name no program references, outside
    the :data:`SURFACES` packages."""
    referrers = _referrers()
    orphans = []
    for mod in _modules():
        rel = mod.relative_to(PACKAGE).as_posix()
        for qualname, bare in _definitions(ast.parse(mod.read_text(), filename=str(mod))):
            if not referrers[bare]:
                orphans.append(f"{rel}:{qualname}")
    return orphans


def test_every_public_name_has_a_consumer():
    orphans = orphan_names()
    surface = {
        pkg: [n for n in orphans if n.startswith(pkg)] for pkg in SURFACES
    }
    stray = [
        n for n in orphans
        if n not in EXEMPT_NAMES and not any(n.startswith(pkg) for pkg in SURFACES)
    ]
    assert not stray, f"{len(stray)} public names no program reaches: {', '.join(stray)}"
    # An exemption whose name a program has since reached must be dropped.
    assert sorted(EXEMPT_NAMES) == sorted(n for n in orphans if n in EXEMPT_NAMES)
    assert [pkg for pkg, names in surface.items() if not names] == []
    # Class (c) is only what the oracles of tests/reference_*.py call.
    oracle_refs = set().union(
        *(_references(p) for p in (ROOT / "tests").glob("reference_*.py"))
    )
    for name, label in EXEMPT_NAMES.items():
        if label.startswith("(c)"):
            assert name.rsplit(":", 1)[1].split(".")[-1] in oracle_refs, name
