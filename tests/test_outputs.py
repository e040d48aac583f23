"""Output guard: every number a run reports has a reader.

A key that ``ServingMetrics.summary()``, ``ClusterMetrics.summary()`` or a
report merged into it (``FailoverReport`` / ``OverloadReport`` /
``DisaggReport.summary()``, ``Topology.link_stats()``) emits stays only if
a program reads it.  The emitted keys are collected from a seven-run
matrix that switches every reporting path on at least once — tracing,
chaos with a shed, a kill/restore campaign, the prefix cache with an
in-place replica crash, failover, the overload front door and
disaggregation over faulted links — and folded into families: a replica,
tenant or shed-stream index becomes ``<i>`` (``replica<i>_requests``,
``shed_req_<i>``) and a link kind becomes ``<kind>``
(``link_<kind>_bytes``).  A percentile is not an index: ``p50`` and
``p99`` keys are two families.

A family is read when one of these names it, read from the syntax tree:

* a non-docstring string constant, or the stem of an f-string (every
  replacement field read as ``<i>``), in ``src/repro/__main__.py``,
  ``examples/`` or ``benchmarks/``;
* a constant subscript (``s["key"]``) or ``.get("key")`` in a module of
  ``src/repro`` that does not emit the family itself (a dict-display key,
  a subscript assignment or an f-string stem emits it).

Tests never count as readers.  An unread family is deleted together with
the counters that fed only it, or listed in :data:`EXEMPT` with the reason
it stays; an exemption that a program has since come to read fails.
"""

import ast
import re
from pathlib import Path
from typing import Optional

from repro.cluster import ClusterConfig, ClusterEngine, FailoverConfig, ReplicaFailure
from repro.faults import FaultPlan, ResilienceConfig, chaos_plan
from repro.gpu import H100_80G
from repro.obs import StepTracer
from repro.serving import (
    CheckpointConfig,
    CheckpointStore,
    EngineConfig,
    LLAMA_3_1_8B,
    OverloadConfig,
    ServingEngine,
    bursty_workload,
    mixed_disagg_workload,
    run_lives,
    shared_prefix_workload,
    sharegpt_workload,
)

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "repro"
MODEL = LLAMA_3_1_8B

#: Families kept without a program reader, each with the reason it stays.
EXEMPT: dict = {}


#: An index in a key: one key per replica, tenant or shed stream.
_INDEX = re.compile(r"(replica|tenant|shed_req_)\d+(_\d+)?")
#: A per-link-kind key (``link_handoff_bytes``), not a link total.
_LINK_KIND = re.compile(r"^link_(.+)_(bytes|busy_s)$")


def family(key: str) -> str:
    """The family a summary key belongs to."""
    return _LINK_KIND.sub(r"link_<kind>_\2", _INDEX.sub(r"\1<i>", key))


def _engine(**kwargs):
    return ServingEngine.from_config(
        EngineConfig(max_running=64), model=MODEL, gpu=H100_80G, **kwargs
    )


def _cluster(config, **kwargs):
    return ClusterEngine(MODEL, H100_80G, config, **kwargs)


def _single_runs():
    reqs = sharegpt_workload(6, 60.0, seed=0)
    yield _engine(tracer=StepTracer()).run(reqs)
    # A deadline shorter than some requests' service sheds them.
    yield _engine(
        tracer=StepTracer(), fault_plan=chaos_plan(7),
        resilience=ResilienceConfig(deadline=0.05),
    ).run(sharegpt_workload(12, 80.0, seed=0))
    store = CheckpointStore()
    metrics, _ = run_lives(
        lambda: _engine(
            tracer=StepTracer(), resilience=ResilienceConfig(),
            checkpoint=CheckpointConfig(every_steps=4), checkpoint_store=store,
        ),
        reqs, store, script=[(3, "boundary"), (7, "mid-step")],
    )
    yield metrics


def _cluster_runs():
    prefix = EngineConfig(max_running=64, chunked_prefill=True, composable=True,
                          prefix_cache=True)
    # In-place recovery: a scripted replica crash without failover.
    yield _cluster(
        ClusterConfig(dp=2, router="cache-aware", engine=prefix), trace=True,
        replica_failures={0: ReplicaFailure(4, "crash")},
    ).run(shared_prefix_workload(8, 40.0, seed=0))
    yield _cluster(
        ClusterConfig(tp=2, dp=2, failover=FailoverConfig()),
        replica_failures={0: ReplicaFailure(4, "crash")},
    ).run(sharegpt_workload(6, 200.0, seed=0))
    overload = OverloadConfig(
        tenants=2, admit_rate=20.0, burst_capacity=2.0, max_client_retries=2,
        seed=0, engage_after=2, anneal_after=4,
    )
    yield _cluster(
        ClusterConfig(dp=2, overload=overload,
                      engine=EngineConfig(max_running=4, chunked_prefill=True)),
        fault_plan=FaultPlan(seed=0, timeout_rate=0.2),
    ).run(bursty_workload(16, 60.0, seed=0, tenants=2, burst=3.0))
    yield _cluster(
        ClusterConfig(dp=2, roles="prefill=1,decode=1", failover=FailoverConfig(),
                      engine=EngineConfig(max_running=64, chunked_prefill=True)),
        fault_plan=FaultPlan(seed=0, schedules={"link": (0,)}),
    ).run(mixed_disagg_workload(6, 40.0, seed=0))


def reported_families() -> set:
    """Every key family the seven-run matrix reports."""
    keys = set()
    for metrics in _single_runs():
        keys.update(metrics.summary())
    for cm in _cluster_runs():
        keys.update(cm.summary())
        for replica in cm.replicas:
            keys.update(replica.summary())
    return {family(k) for k in keys}


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


def _stem(node: ast.JoinedStr) -> str:
    return "".join(
        v.value if isinstance(v, ast.Constant) else "<i>" for v in node.values
    )


def _const(node) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _program_names(path: Path) -> set:
    """Families a program names: string constants and f-string stems."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            names.add(family(_stem(node)))
        elif _const(node) is not None and id(node) not in docs:
            names.add(family(node.value))
    return names


def _library_reads(path: Path) -> set:
    """Families a library module reads and does not emit itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads, emits = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _const(node.slice) is not None:
            (emits if isinstance(node.ctx, ast.Store) else reads).add(family(node.slice.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args and _const(node.args[0]) is not None):
            reads.add(family(node.args[0].value))
        elif isinstance(node, ast.Dict):
            emits.update(family(k.value) for k in node.keys if _const(k) is not None)
        elif isinstance(node, ast.JoinedStr):
            emits.add(family(_stem(node)))
    return reads - emits


def read_families() -> set:
    programs = [PACKAGE / "__main__.py"]
    programs += (ROOT / "examples").rglob("*.py")
    programs += (ROOT / "benchmarks").rglob("*.py")
    read = set().union(*(_program_names(p) for p in programs))
    for mod in PACKAGE.rglob("*.py"):
        if mod.name != "__main__.py":
            read |= _library_reads(mod)
    return read


def unread_families() -> list:
    return sorted(reported_families() - read_families())


def test_every_reported_key_has_a_reader():
    unread = unread_families()
    stray = [f for f in unread if f not in EXEMPT]
    assert not stray, f"{len(stray)} reported key families no program reads: {', '.join(stray)}"
    # An exemption that a program has since come to read must be dropped.
    assert sorted(EXEMPT) == [f for f in unread if f in EXEMPT]


def test_family_folds_indices_and_link_kinds():
    assert family("replica12_requests") == "replica<i>_requests"
    assert family("shed_req_3_0") == "shed_req_<i>"
    assert family("tenant2_admitted") == "tenant<i>_admitted"
    assert family("link_all_reduce_bytes") == "link_<kind>_bytes"
    assert family("link_bytes") == "link_bytes"
    assert family("cluster_p99_ttft") == "cluster_p99_ttft"
