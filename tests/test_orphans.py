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
does not count.  The reach guard, ``tests/reach.py``, holds the same for
behaviour by running the programs; its list is checked here without them.
"""

import ast
import importlib
import re
from collections import defaultdict
from functools import lru_cache, reduce
from pathlib import Path

import pytest

import reach
from program_index import PACKAGE, ROOT, docstrings, modules, nodes, programs, tree
from reach import SRC, UNREACHED, functions

counted = lru_cache(maxsize=None)(functions)

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


def _public_names(module: ast.Module) -> set:
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_") and n != "__all__"}


def _references(path) -> set:
    docs = docstrings(path)
    refs = set()
    for node in nodes(path):
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


@lru_cache(maxsize=None)
def _referrers() -> dict:
    """``{name: files referencing it}`` over every program."""
    referrers = defaultdict(set)
    for path in programs():
        for name in _references(path):
            referrers[name].add(path)
    return dict(referrers)


def orphan_modules() -> list:
    """Library modules (relative to ``src/repro``) no program references."""
    referrers = _referrers()
    orphans = []
    for mod in modules():
        names = _public_names(tree(mod))
        if not any(referrers.get(n, set()) - {mod} for n in names):
            orphans.append(mod.relative_to(PACKAGE).as_posix())
    return orphans


def test_every_module_has_a_consumer():
    orphans = orphan_modules()
    assert [m for m in orphans if m not in EXEMPT] == []
    # An exemption that a consumer has since reached must be dropped.
    assert sorted(EXEMPT) == [m for m in orphans if m in EXEMPT]


def _definitions(module: ast.Module):
    """``(qualified name, bare name)`` of the public top-level functions and
    classes and the public methods of those classes."""
    for node in module.body:
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
    for mod in modules():
        rel = mod.relative_to(PACKAGE).as_posix()
        for qualname, bare in _definitions(tree(mod)):
            if not referrers.get(bare):
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


def test_every_reach_exemption_names_a_function_and_an_item():
    """Each entry of the reach guard's list is a counted function of
    ``src/repro`` and names the ROADMAP item that gives it a program."""
    names = set(functions().values())
    assert [n for n in UNREACHED if n not in names] == []
    assert [n for n, label in UNREACHED.items() if not re.search(r"\bitem \d+", label)] == []


def _key(name):
    """The ``path:first line`` the hook records when ``module:qualname`` runs."""
    module, qualname = name.split(":")
    *owners, attr = qualname.removesuffix(".setter").split(".")
    fn = vars(reduce(getattr, owners, importlib.import_module(module)))[attr]
    fn = fn.fset if qualname.endswith(".setter") else fn
    for wrapped in ("fget", "func", "__func__", "__wrapped__"):
        fn = getattr(fn, wrapped, fn)
    code = fn.__code__
    return f"{Path(code.co_filename).resolve().relative_to(SRC).as_posix()}:{code.co_firstlineno}"


#: Interfaces, bodies that only raise ``NotImplementedError``: not counted.
INTERFACES = ["repro.cluster.router:RoutingPolicy.choose",
              "repro.serving.backends:AttentionBackend.attention_time"]


@pytest.mark.parametrize("name", INTERFACES + [
    "repro.core.state:merge_states", "repro.cluster:__dir__", "repro.variants.rope:_angle_table",
    "repro.cluster.topology:Topology.p2p_time", "repro.cluster.topology:Topology.preset",
    "repro.cluster.topology:Topology.all_reduce_wire_bytes",
    "repro.cluster.topology:Topology.total_traffic_bytes", "repro.cluster:__getattr__",
    "repro.core.wrapper:BatchAttentionWrapper.plan_cache.setter",
    "repro.sparse.layout:AttentionMapping._block_positions",  # a cached_property
    "repro.faults.inject:OutputGuard.__post_init__"])
def test_reach_keys_a_function_by_the_first_line_its_code_reports(name):
    assert counted().get(_key(name)) == (None if name in INTERFACES else name)


@pytest.mark.parametrize("change, problems", [
    ("none", []), ("no-records", ["no call records in {tmp}"]),
    ("planted", ["reached only by tests, not listed: repro.core.state:merge_states"]),
    ("listed-reached", ["listed but reached by a program: {listed}"]),
    ("listed-gone", ["listed but no longer exists: repro.core.state:gone"])])
def test_reach_check_fails_on_what_only_tests_reach_and_on_a_stale_entry(
        change, problems, tmp_path, monkeypatch):
    keys = {name: key for key, name in counted().items()}
    reached = {key for name, key in keys.items() if name not in UNREACHED}
    listed = min(UNREACHED)
    if change == "planted":  # as if merge_states were new and only a test called it
        reached.remove(keys["repro.core.state:merge_states"])
    elif change == "listed-reached":
        reached.add(keys[listed])
    elif change == "listed-gone":
        monkeypatch.setitem(reach.UNREACHED, "repro.core.state:gone", "item 23")
    if change != "no-records":
        (tmp_path / "run.reach").write_text("\n".join(reached))
    assert reach.check(tmp_path) == [p.format(tmp=tmp_path, listed=listed) for p in problems]
