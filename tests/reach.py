"""Reach guard: every function of ``src/repro`` is called by a program, or listed.

The surface guards (``test_orphans.py``, ``test_knobs.py``) hold that every
*name* has a program reader; this one holds that every *behaviour* does.  It
runs the repository's programs -- the fast figure and ablation tests, the
six benchmark workloads, every example and the CLI commands CI runs (see
:data:`COMMANDS`) -- under a ``sys.setprofile`` hook, then checks that each
top-level function and method of ``src/repro`` was called by one of them.
A function no program calls is reached only by tests (or by nothing): it
stays only in :data:`UNREACHED`, labelled with the ROADMAP item that will
give it a program reader.  A listed function that a program now calls, or
that no longer exists, fails too, so the list can only shrink.

    python tests/reach.py    # run every program (minutes), then check

Stdlib only: the hook is installed in every Python process the programs
start through a generated ``sitecustomize`` on ``PYTHONPATH``.  Counted are
the top-level functions and the methods of top-level classes; a body that
only raises ``NotImplementedError`` is an interface, not a behaviour.  A
decorated function's code starts at its first decorator line, which is the
``co_firstlineno`` the hook sees.  pytest-benchmark clears the profiler
while it times, so the figures run with ``--benchmark-disable``.
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HOOK = Path(__file__).resolve()
ROOT = HOOK.parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Functions no program calls, each with the ROADMAP item that gives it a
#: program reader, or that deletes it (item 23(b)).  Remove an entry when a
#: program reaches it; add none.
UNREACHED = {
    # Listing 1's API that examples/quickstart.py does not show: an example
    # drives it, or it goes (ROADMAP item 23).
    "repro.api.wrappers:BatchPrefillWithPagedKVCacheWrapper.plan": "item 23: Listing 1's API",
    "repro.api.wrappers:clear_workspace_cache": "item 23: Listing 1's API",
    # KV memory pressure: no benchmark workload runs short of KV pages.
    "repro.kvcache.paged:PagedKVCache.release_pages": "item 24: radix eviction releases pages",
    "repro.kvcache.radix:RadixTree._drop": "item 24: a workload that evicts",
    "repro.kvcache.radix:RadixTree._lru_leaf": "item 24: a workload that evicts",
    "repro.kvcache.radix:RadixTree.drop_pages": "item 24: a workload that evicts",
    "repro.kvcache.radix:RadixTree.evict_until": "item 24: a workload that evicts",
    "repro.kvcache.radix:RadixTree.evictable_pages": "item 24: a workload that evicts",
    "repro.serving.admission:AdmissionController.requeue_chunk":
        "item 24: a workload that preempts",
    "repro.serving.admission:AdmissionController.shed_expired": "item 24: a workload that sheds",
    "repro.serving.admission:AdmissionController.shed_overload": "item 24: a workload that sheds",
    # The variant catalogue: no figure or example runs these variants.
    "repro.core.state:merge_states_sum": "item 10: flash-sigmoid's composition",
    "repro.core.wrapper:_apply_output_transform": "item 10: a variant with an output transform",
    "repro.utils.dtypes:dequantize_fp8": "item 10: the fp8 variant",
    "repro.variants.fp8:calibrate_kv_scales": "item 10: the fp8 variant",
    "repro.variants.fp8:make_fp8_variant": "item 10: the fp8 variant",
    "repro.variants.fp8:quantize_kv_pool": "item 10: the fp8 variant",
    "repro.variants.masks:make_attention_sink": "item 10: the variant catalogue",
    "repro.variants.projections:make_fused_kv_projection": "item 10: the variant catalogue",
    "repro.variants.projections:make_qk_norm": "item 10: the variant catalogue",
    "repro.variants.scores:alibi_slopes": "item 10: the variant catalogue",
    "repro.variants.scores:make_alibi": "item 10: the variant catalogue",
    "repro.variants.scores:make_flash_sigmoid": "item 10: the variant catalogue",
    # Fault sites no program arms: the composition fuzzer draws them.
    "repro.cluster.failover:FailoverController.note_fallback":
        "item 3(b): a failed takeover falls back in place",
    "repro.core.kernels:sampled_isfinite": "item 3(b): the output guard",
    "repro.faults.inject:OutputGuard.__post_init__": "item 3(b): the output guard",
    "repro.faults.inject:OutputGuard.check": "item 3(b): the output guard",
    "repro.faults.plan:FaultPlan.enabled": "item 3(b): the fuzzer's fault plans",
    "repro.faults.recover:DegradeController.force_degrade":
        "item 3(b): a step's retry budget runs out",
    "repro.kvcache.paged:KVCorruptionError.__init__":
        "item 3(b): a corrupt page read without checksums",
    "repro.kvcache.paged:PagedKVCache.seq_is_corrupt":
        "item 3(b): a corrupt page read without checksums",
    "repro.serving.checkpoint:CheckpointStore.corrupt_snapshot": "item 3(b): a corrupt snapshot",
    # Pinned by the benchmark or by the plan cache and second cost model that item 2 deletes.
    "repro.gpu.executor:PersistentKernelExecutor.run_grid": "item 1(b): spans.py pins it",
    "repro.core.wrapper:BatchAttentionWrapper.plan_cache.setter": "item 2(a): the plan cache goes",
    "repro.serving.plan_cache:PlanCache.__len__": "item 2(a): the plan cache goes",
    "repro.serving.plan_cache:PlanCache.invalidate": "item 2(a): the plan cache goes",
    "repro.gpu.cost:TileCost.merge": "item 2(b): the second cost model goes",
    # Debugging aids and test conveniences: the next deletion group.
    "repro.baselines.flash_attention:FlashAttentionBaseline._merge_entries":
        "item 23(b): the FA2/FA3 numerics only test_baselines runs",
    "repro.cluster:__dir__": "item 23(b): no program lists the lazy names",
    "repro.core.composition:contract_entry":
        "item 23(b): only the oracle tests/reference_kernels.py calls it",
    "repro.core.jit:CompiledKernel.__call__":
        "item 23(b): only tests call a compiled kernel directly",
    "repro.core.scheduler:SchedulePlan.__eq__": "item 23(b): only tests compare plans",
    "repro.faults.plan:FaultPlan.__repr__": "item 23(b): a debugging aid",
    "repro.gpu.cudagraph:CudaGraph.current": "item 23(b): only tests ask for the capturing graph",
    "repro.gpu.executor:SimReport.__eq__": "item 23(b): only tests compare reports",
    "repro.gpu.executor:SimReport.to_dict": "item 6(a): one metrics record",
    "repro.kvcache.radix:RadixTree.__repr__": "item 23(b): a debugging aid",
    "repro.obs.events:FaultEvent.to_dict": "item 6(a): one metrics record",
    "repro.serving.backends:AttentionBackend.set_fault_injector":
        "item 23(b): no program injects faults into a baseline backend",
    "repro.serving.backends:TRTLLMBackend.set_fault_injector":
        "item 23(b): no program injects faults into a baseline backend",
    "repro.serving.backends:TritonBackend.set_fault_injector":
        "item 23(b): no program injects faults into a baseline backend",
    "repro.serving.tuning:OperatingPoint.p99_ttft":
        "item 17(b): a figure cell reads the operating point's TTFT",
    "repro.sparse.bsr:BSRMatrix.__repr__": "item 23(b): a debugging aid",
    "repro.sparse.bsr:BSRMatrix.nnz_blocks": "item 23(b): only tests count blocks",
    "repro.sparse.layout:AttentionMapping.__repr__": "item 23(b): a debugging aid",
    "repro.sparse.layout:BlockSparseKV.__repr__": "item 23(b): a debugging aid",
    "repro.sparse.quest:PageSummaryStore.update":
        "item 23(b): Quest's summaries are built whole, never folded in",
    # Reached only by the two slow figures, which CI does not run.
    "repro.serving.tuning:find_max_rate": "item 17(a): only the slow figures reach it",
    "repro.serving.workload:variable_workload": "item 17(a): only the slow figures reach it",
}


REPRO = [sys.executable, "-m", "repro"]

#: The programs, in order, as ``(argv, run from the repository root)``; the
#: rest run from one scratch directory, shared so that ``serve --recover``
#: reads the journal the crash run wrote.  The ``serve`` rows are CI's.
COMMANDS = [
    ([sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
      "--benchmark-disable", "-k", "not operating_point and not fig7_e2e and not harness"],
     True),
    *(([sys.executable, "benchmarks/e2e/run.py", "--workload", name, "--seed", "0",
        "--seconds", "1", "--trace", "1"], True)
      for name in ("chat_decode", "long_prefill", "prefix_fleet", "disagg_failover",
                   "overload_burst", "kernel_batch")),
    *(([sys.executable, str(example)], False)
      for example in sorted((ROOT / "examples").glob("*.py"))),
    *(([*REPRO, cmd], False) for cmd in ("info", "demo", "generate", "figures")),
    *(([*REPRO, "serve", *flags.split()], False) for flags in (
        "--requests 8 --rate 50 --trace trace.json --trace-csv trace.csv",
        "--requests 16 --rate 80 --chaos --chaos-seed 7 --trace chaos_trace.json",
        "--requests 16 --rate 80 --chaos --chaos-seed 7 --crash 3 --checkpoint-every 4"
        " --journal ckpt --trace recovery_trace.json",
        "--recover --journal ckpt",
        "--requests 16 --rate 80 --chaos --chaos-seed 11",
        "--requests 24 --rate 200 --tp 2 --dp 2 --router least-loaded"
        " --trace cluster_trace.json",
        "--requests 24 --rate 200 --tp 2 --dp 2 --router least-loaded --fail-replica 6",
        "--requests 24 --rate 200 --tp 2 --dp 2 --router least-loaded --fail-replica 6:drain",
        "--prefix-cache --requests 24 --rate 40 --router cache-aware",
        "--overload --dp 2 --requests 96 --rate 40 --tenants 4 --burst 3",
        "--disagg prefill=1,decode=1 --requests 24 --rate 40",
        "--disagg prefill=2,decode=2 --prefix-cache --fail-replica 6 --requests 24 --rate 40",
    )),
]


# -- the hook (runs inside every program process) -----------------------------


def install(records: str) -> None:
    """Record the code object of every Python call; at exit, write the
    ``path:first line`` of those under ``src/repro`` to ``records``."""
    seen = set()

    def hook(frame, event, arg, add=seen.add):
        if event == "call":
            add(frame.f_code)

    def dump():
        sys.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        lines = set()
        for code in seen:
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                lines.add(f"{Path(path).relative_to(SRC).as_posix()}:{code.co_firstlineno}")
        fd, _ = tempfile.mkstemp(suffix=".reach", dir=records)
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(sorted(lines)))

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


# -- what is counted ----------------------------------------------------------


def _is_interface(fn: ast.FunctionDef) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _counted(path: Path, node: ast.FunctionDef, qualname: str):
    if _is_interface(node):
        return None
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    for d in node.decorator_list:
        if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"):
            qualname += f".{d.attr}"  # a property's second code object
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    module = module.removesuffix(".__init__")
    return f"{path.relative_to(SRC).as_posix()}:{first}", f"{module}:{qualname}"


def functions() -> dict:
    """``{"path:first line": "module:qualname"}`` of every counted function."""
    out = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, defs):
                entries = [_counted(path, node, node.name)]
            elif isinstance(node, ast.ClassDef):
                entries = [_counted(path, m, f"{node.name}.{m.name}")
                           for m in node.body if isinstance(m, defs)]
            else:
                continue
            out.update(e for e in entries if e is not None)
    return out


# -- the driver ---------------------------------------------------------------


def run(records: Path) -> list:
    """Run every program under the hook; returns the commands that failed."""
    site = records / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('_reach_hook', {str(HOOK)!r})\n"
        "hook = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(hook)\n"
        f"hook.install({str(records)!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
    scratch = records / "cwd"
    scratch.mkdir(exist_ok=True)
    failed = []
    for argv, at_root in COMMANDS:
        shown = " ".join(Path(a).name if a == sys.executable else a for a in argv)
        print(f"== {shown}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT if at_root else scratch, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-4000:])
            failed.append(shown)
    return failed


def check(records: Path) -> list:
    """The problems: functions only tests reach, stale list entries."""
    reached = set()
    for f in records.glob("*.reach"):
        reached.update(f.read_text().split())
    if not reached:
        return [f"no call records in {records}"]
    counted = functions()
    unreached = {name for key, name in counted.items() if key not in reached}
    print(f"{len(counted)} functions, {len(counted) - len(unreached)} reached by a program, "
          f"{len(UNREACHED)} listed")
    problems = [f"reached only by tests, not listed: {n}"
                for n in sorted(unreached - set(UNREACHED))]
    names = set(counted.values())
    problems += [f"listed but reached by a program: {n}" if n in names else
                 f"listed but no longer exists: {n}" for n in sorted(set(UNREACHED) - unreached)]
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp).resolve()
        problems = [f"program failed: {c}" for c in run(records)] + check(records)
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
