"""The program files the surface guards (``test_knobs``, ``test_orphans``,
``test_outputs``) read, each parsed and walked once per session."""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "repro"


@lru_cache(maxsize=None)
def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@lru_cache(maxsize=None)
def nodes(path: Path) -> tuple:
    """Every node of ``path``'s tree, in ``ast.walk`` order."""
    return tuple(ast.walk(tree(path)))


@lru_cache(maxsize=None)
def programs() -> tuple:
    """``src/repro`` but its package ``__init__`` files, ``examples/`` and
    ``benchmarks/``."""
    paths = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    return tuple(paths + [*(ROOT / "examples").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")])


def modules() -> list:
    """The library modules: ``src/repro`` but ``__init__`` and ``__main__``."""
    return sorted(p for p in programs() if PACKAGE in p.parents and p.name != "__main__.py")


@lru_cache(maxsize=None)
def docstrings(path: Path) -> frozenset:
    """``id`` of every docstring constant of ``path``'s tree."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return frozenset(
        id(n.body[0].value) for n in (tree(path), *(n for n in nodes(path) if isinstance(n, defs)))
        if n.body and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
        and isinstance(n.body[0].value.value, str)
    )
