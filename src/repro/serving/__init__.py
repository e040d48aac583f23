"""LLM serving substrate: engine, backends, workloads, metrics, models.

The end-to-end experiments of the paper (Figures 7, 9, 10) hold this stack
constant and vary only the attention backend; see
:class:`repro.serving.engine.ServingEngine`.
"""

# Re-exported for convenience: the ServingEngine constructor accepts these
# directly (``fault_plan=``, ``resilience=``).
from repro.faults import FaultPlan, ResilienceConfig, chaos_plan
from repro.serving.backends import (
    AttentionBackend,
    BackendCharacteristics,
    FlashInferBackend,
    TritonBackend,
    TRTLLMBackend,
)
from repro.serving.admission import AdmissionController
from repro.serving.batching import BatchFormer, RunState, StepPlan
from repro.serving.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    Checkpointer,
    CrashReport,
    DirectoryStore,
    NoSnapshotError,
    RecoveredState,
    RecoveryManager,
    SnapshotIntegrityError,
    SnapshotVerificationError,
    WorldMismatchError,
    run_lives,
)
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.executor import Postprocessor, StepExecutor
from repro.serving.metrics import RequestTrace, ServingMetrics, expected_tokens
from repro.serving.overload import (
    BROWNOUT_LADDER,
    BrownoutController,
    FrontDoor,
    OverloadConfig,
    OverloadReport,
    TokenBucket,
    slo_attainment,
)
from repro.serving.plan_cache import PlanCache
from repro.serving.policy import (
    FCFSPolicy,
    PriorityPolicy,
    SchedulerPolicy,
    POLICIES,
    SLAAwarePolicy,
    get_policy,
)
from repro.serving.tuning import OperatingPoint, find_max_rate
from repro.serving.model import (
    LLAMA_3_1_8B,
    LLAMA_3_1_70B,
    VICUNA_13B,
    ModelConfig,
)
from repro.serving.workload import (
    MIXED_LONG_PROMPT_THRESHOLD,
    Request,
    bursty_workload,
    constant_lengths,
    mixed_disagg_workload,
    poisson_arrivals,
    sharegpt_workload,
    shared_prefix_workload,
    uniform_lengths,
    variable_workload,
    zipf_lengths,
)

__all__ = [
    "FaultPlan",
    "ResilienceConfig",
    "chaos_plan",
    "AttentionBackend",
    "BackendCharacteristics",
    "FlashInferBackend",
    "TritonBackend",
    "TRTLLMBackend",
    "EngineConfig",
    "ServingEngine",
    "CheckpointConfig",
    "CheckpointStore",
    "Checkpointer",
    "CrashReport",
    "DirectoryStore",
    "NoSnapshotError",
    "RecoveredState",
    "RecoveryManager",
    "SnapshotIntegrityError",
    "SnapshotVerificationError",
    "WorldMismatchError",
    "run_lives",
    "AdmissionController",
    "BatchFormer",
    "RunState",
    "StepPlan",
    "StepExecutor",
    "Postprocessor",
    "PlanCache",
    "SchedulerPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "SLAAwarePolicy",
    "POLICIES",
    "get_policy",
    "RequestTrace",
    "ServingMetrics",
    "expected_tokens",
    "BROWNOUT_LADDER",
    "BrownoutController",
    "FrontDoor",
    "OverloadConfig",
    "OverloadReport",
    "TokenBucket",
    "slo_attainment",
    "OperatingPoint",
    "find_max_rate",
    "LLAMA_3_1_8B",
    "LLAMA_3_1_70B",
    "VICUNA_13B",
    "ModelConfig",
    "MIXED_LONG_PROMPT_THRESHOLD",
    "Request",
    "bursty_workload",
    "constant_lengths",
    "mixed_disagg_workload",
    "poisson_arrivals",
    "sharegpt_workload",
    "shared_prefix_workload",
    "uniform_lengths",
    "variable_workload",
    "zipf_lengths",
]
