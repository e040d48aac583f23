"""Knob guards: every field of a policy config and every defaulted parameter
of a public callable is set by a program.

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

One level down, a defaulted parameter of a public function, class
constructor or method stays only when a program passes it, or when a test
needs its second value to reach behaviour that stays (listed in
:data:`EXEMPT_PARAMS` with that test).  Callables are matched by bare name
(so the guard may under-report, never block wrongly), and a call sets a
parameter by keyword or by a position it reaches.  ``functools.partial(X,
...)`` and ``cls(...)`` inside a classmethod of ``X`` are calls of ``X``; a
call forwarding its function's ``**kwargs`` or ``*args`` passes whatever
that function's callers pass, so ``X.from_config(...)`` reaches ``X``
through the ``cls(..., **kwargs)`` it ends in.  Dataclass fields
are not parameters here: the policy configs have their own guard above and
the report classes are records the benchmark reads.
"""

import ast

from program_index import PACKAGE, modules, nodes, programs, tree

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
        "2048 in test_serving_engine: prefill batches split by the token budget",
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
        (cls,) = [n for n in tree(PACKAGE / module).body
                  if isinstance(n, ast.ClassDef) and n.name == name]
        fields[name] = [
            n.target.id for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        ]
    return fields


def _name(expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else ""


def _callee(call: ast.Call) -> str:
    return _name(call.func)


def _dict_keys(path) -> dict:
    """Keywords of the dicts each name of a file is built from: ``name =
    dict(...)`` and ``name.update(...)``."""
    dict_keys = {}
    for node in nodes(path):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _callee(node.value) == "dict"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    dict_keys.setdefault(target.id, set()).update(
                        k.arg for k in node.value.keywords if k.arg)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update" and isinstance(node.func.value, ast.Name)):
            dict_keys.setdefault(node.func.value.id, set()).update(
                k.arg for k in node.keywords if k.arg)
    return dict_keys


def _passed(path) -> dict:
    """``{callee: {keyword, ...}}`` for the config calls and replaces of a file."""
    dict_keys = _dict_keys(path)
    passed = {}
    for call in (n for n in nodes(path) if isinstance(n, ast.Call)):
        keys = passed.setdefault(_callee(call), set())
        for kw in call.keywords:
            if kw.arg:
                keys.add(kw.arg)
            elif isinstance(kw.value, ast.Name):
                keys |= dict_keys.get(kw.value.id, set())
    return passed


def unset_fields() -> list:
    """``(class, field)`` pairs that no program passes, in declaration order."""
    set_by = {}
    for path in programs():
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



#: Packages and modules whose parameters stay whole, by exemption class.
PARAM_SURFACES = {
    "api/": "(a) FlashInfer's Python API (Listing 1)",
    "variants/": "(b) the variant catalogue: ROADMAP item 10 decides it",
    "serving/workload.py": "(e) the workload generators set the shape of the traffic",
}

#: ``module:callable(parameter)`` no program passes, each with its
#: exemption class or the test that needs its second value.
EXEMPT_PARAMS = {
    "utils/dtypes.py:dequantize_fp8(scale)":
        "(b) the fp8 storage helper: ROADMAP item 10 decides it",
    "core/composition.py:contract_entry(use_softmax)":
        "(c) the oracle tests/reference_kernels.py calls",
    "core/kernels.py:reference_attention(sm_scale)":
        "(c) the dense oracle: test_api_wrappers checks a custom-scale plan "
        "against it",
    "cluster/failover.py:KVMigrator.migrate(corrupt_chunks)":
        "(d) fault-injection hook: test_cluster_failover reaches the refused "
        "corrupt migration",
    "serving/checkpoint.py:RecoveryManager(allow_recompute)":
        "(d) fault-injection hook: False in test_serving_checkpoint reaches "
        "the unrecoverable-crash path",
    "serving/plan_cache.py:PlanCache(capacity)":
        "(f) ROADMAP item 2(a) deletes the cache",
    "baselines/flash_attention.py:FlashAttentionBaseline.run(v_pool)":
        "test_baselines: the FA2/FA3 numerics (compute=True) against the oracle",
    "baselines/pipelines.py:unfused_rope_attention(rope_theta)":
        "test_variants: the oracle of make_fused_rope(theta=500.0)",
}


def _params(fn, skip: int) -> list:
    """``(name, position or None)`` of the defaulted parameters of ``fn``,
    positions counted after the first ``skip`` (``self``/``cls``)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    out = [(n, i) for i, n in enumerate(positional[skip:]) if n in defaulted]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def public_callables() -> list:
    """``(module:qualname, bare name, [(param, position), ...])`` for the
    public functions, constructors and methods of ``src/repro``."""
    found = []
    for mod in modules():
        rel = mod.relative_to(PACKAGE).as_posix()
        for node in tree(mod).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                found.append((f"{rel}:{node.name}", node.name, _params(node, 0)))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in m.decorator_list)
                    if m.name == "__init__":
                        found.append((f"{rel}:{node.name}", node.name, _params(m, 1)))
                    elif not m.name.startswith("_"):
                        found.append((f"{rel}:{node.name}.{m.name}", m.name,
                                      _params(m, 0 if static else 1)))
    return [c for c in found if c[2]]


def _decorated(fn, name: str) -> bool:
    return any(getattr(d, "id", "") == name for d in fn.decorator_list)


def _call_sites(path) -> list:
    """``(callee, positions, keywords, forwarded from)`` per call of a file.

    ``positions`` is ``inf`` for a ``*`` argument and ``keywords`` is
    ``None`` for a ``**`` argument that is neither the enclosing function's
    own ``**kwargs`` nor a dict built in the file; ``forwarded from`` names
    the enclosing function when the call forwards its ``*args``/``**kwargs``
    (``Class.method`` for a class- or staticmethod, which a call
    ``Class.method(...)`` also reaches under that name).
    """
    dict_keys = _dict_keys(path)
    sites = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        elif isinstance(node, ast.Call):
            callee, args = _callee(node), list(node.args)
            if callee == "partial" and args:
                callee, args = _name(args[0]), args[1:]
            elif callee == "cls" and cls is not None and _decorated(fn, "classmethod"):
                callee = cls.name
            varargs = fn.args.vararg.arg if fn is not None and fn.args.vararg else None
            varkw = fn.args.kwarg.arg if fn is not None and fn.args.kwarg else None
            positions = len(args)
            keywords = {k.arg for k in node.keywords if k.arg}
            forwarded = None
            if fn is not None:
                owned = cls is not None and (
                    _decorated(fn, "classmethod") or _decorated(fn, "staticmethod"))
                fn_key = f"{cls.name}.{fn.name}" if owned else fn.name
            for a in args:
                if isinstance(a, ast.Starred):
                    positions = float("inf")
                    if isinstance(a.value, ast.Name) and a.value.id == varargs:
                        forwarded = fn_key
            for k in node.keywords:
                if k.arg is not None:
                    continue
                name = k.value.id if isinstance(k.value, ast.Name) else None
                if name is not None and name == varkw:
                    forwarded = fn_key
                elif name in dict_keys:
                    keywords |= dict_keys[name]
                else:
                    keywords = None
                    break
            sites.append((callee, positions, keywords, forwarded))
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                sites.append((f"{func.value.id}.{func.attr}", positions, keywords, forwarded))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree(path), None, None)
    return sites


def unset_params() -> list:
    """``module:callable(parameter)`` for every defaulted parameter of a
    public callable that no program passes."""
    sites = {}
    for path in programs():
        for callee, positions, keywords, forwarded in _call_sites(path):
            sites.setdefault(callee, []).append((positions, keywords, forwarded))

    passed = {}  # callee -> (max positions, keywords or None for all)

    def resolve(callee, seen=()):
        if callee in passed:
            return passed[callee]
        positions, keywords = 0, set()
        for n, keys, forwarded in sites.get(callee, []):
            if forwarded is not None and forwarded not in seen:
                up_n, up_keys = resolve(forwarded, seen + (callee,))
                n = max(n, up_n) if n != float("inf") else n
                keys = None if keys is None or up_keys is None else keys | up_keys
            positions = max(positions, n)
            keywords = None if keywords is None or keys is None else keywords | keys
        if not seen:
            passed[callee] = (positions, keywords)
        return positions, keywords

    unset = []
    for qualname, bare, params in public_callables():
        positions, keywords = resolve(bare)
        for name, pos in params:
            if keywords is None or name in keywords:
                continue
            if pos is not None and pos < positions:
                continue
            unset.append(f"{qualname}({name})")
    return unset


def test_every_parameter_has_a_setter():
    unset = unset_params()
    surface = {pkg: [u for u in unset if u.startswith(pkg)] for pkg in PARAM_SURFACES}
    stray = [
        u for u in unset
        if u not in EXEMPT_PARAMS and not any(u.startswith(pkg) for pkg in PARAM_SURFACES)
    ]
    assert not stray, f"{len(stray)} parameters no program passes: {', '.join(stray)}"
    # An exemption whose parameter a program has since passed must be dropped.
    assert sorted(EXEMPT_PARAMS) == sorted(u for u in unset if u in EXEMPT_PARAMS)
    assert [pkg for pkg, params in surface.items() if not params] == []
