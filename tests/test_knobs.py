"""Knob guard: every field of a policy config is set by a program.

A field of the seven policy configs stays settable only when a program of
``src/``, ``examples/`` or ``benchmarks/`` passes it by keyword, or when a
test needs a second value to reach behaviour the default cannot reach
cheaply; such a field is listed in :data:`EXEMPT` with that test.  Every
other value is a named module constant next to its one use.

Three kinds of call set a field, read from the syntax tree:

* a call of the class (``EngineConfig(max_running=...)``);
* ``dataclasses.replace(obj, field=...)`` (the object's class is not
  known, so the keyword counts for every config with that field);
* the ``dict(...)`` / ``.update(...)`` calls building a dict that a call
  of the class receives as ``**name`` in the same file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "repro"

#: The policy configs, by the module that defines each.
CONFIGS = {
    "EngineConfig": "serving/engine.py",
    "ClusterConfig": "cluster/engine.py",
    "OverloadConfig": "serving/overload.py",
    "FailoverConfig": "cluster/failover.py",
    "BreakerConfig": "cluster/router.py",
    "ResilienceConfig": "faults/recover.py",
    "CheckpointConfig": "serving/checkpoint.py",
}

#: Fields no program sets, each with the tests that need its second value.
EXEMPT = {
    ("EngineConfig", "max_prefill_tokens"):
        "2048 in test_serving_engine / test_serving_policy: prefill batches "
        "split by the token budget",
    ("EngineConfig", "plan_cache"):
        "False in test_serving_plan_cache: the uncached control arm; "
        "ROADMAP item 2(a) deletes the cache",
    ("FailoverConfig", "chunk_pages"):
        "2 and 4 in test_cluster_failover / test_cluster_transfer: multi-chunk "
        "migration",
    ("FailoverConfig", "max_retries"):
        "2 in test_cluster_failover / test_disagg: transfer retry exhaustion",
    ("ResilienceConfig", "checksums"):
        "False in test_serving_resilience: the corruption negative control",
    ("ResilienceConfig", "step_budget"):
        "a budget in test_serving_resilience turns the watchdog on",
    ("ResilienceConfig", "anneal_after"):
        "4 in test_serving_resilience: annealing inside a short run",
}


def config_fields() -> dict:
    """``{class name: [field, ...]}`` read from each class body."""
    fields = {}
    for name, module in CONFIGS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        fields[name] = [
            n.target.id for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        ]
    return fields


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def _passed(path: Path) -> dict:
    """``{callee: {keyword, ...}}`` for the config calls and replaces of a file."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    calls = [n for n in nodes if isinstance(n, ast.Call)]
    # Keywords of the dicts each name is built from: ``name = dict(...)``
    # and ``name.update(...)``.
    dict_keys = {}
    for node in nodes:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _callee(node.value) == "dict"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    dict_keys.setdefault(target.id, set()).update(
                        k.arg for k in node.value.keywords if k.arg)
    for call in calls:
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "update"
                and isinstance(func.value, ast.Name)):
            dict_keys.setdefault(func.value.id, set()).update(
                k.arg for k in call.keywords if k.arg)
    passed = {}
    for call in calls:
        keys = passed.setdefault(_callee(call), set())
        for kw in call.keywords:
            if kw.arg:
                keys.add(kw.arg)
            elif isinstance(kw.value, ast.Name):
                keys |= dict_keys.get(kw.value.id, set())
    return passed


def unset_fields() -> list:
    """``(class, field)`` pairs that no program passes, in declaration order."""
    programs = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    programs += list((ROOT / "examples").rglob("*.py"))
    programs += list((ROOT / "benchmarks").rglob("*.py"))
    set_by = {}
    for path in programs:
        for callee, keys in _passed(path).items():
            set_by.setdefault(callee, set()).update(keys)
    replaced = set_by.get("replace", set())
    return [
        (cls, field)
        for cls, fields in config_fields().items()
        for field in fields
        if field not in set_by.get(cls, set()) | replaced
    ]


def test_every_field_has_a_setter():
    unset = unset_fields()
    stray = [f"{cls}.{field}" for cls, field in unset if (cls, field) not in EXEMPT]
    assert not stray, f"{len(stray)} fields no program sets: {', '.join(stray)}"
    # An exemption whose field a program has since set must be dropped.
    assert sorted(EXEMPT) == sorted(f for f in unset if f in EXEMPT)

