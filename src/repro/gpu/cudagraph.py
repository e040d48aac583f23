"""CUDAGraph capture/replay simulation.

CUDAGraphs record a fixed sequence of kernel launches with frozen arguments
(grid sizes, pointers, scalars) and replay them with one host-side launch
(paper §3.3.1, Appendix D.1).  The *functional* consequence FlashInfer must
satisfy — and the one we verify — is:

* every kernel captured must declare a **launch signature** (grid size +
  workspace section addresses) and the replay fails if any signature would
  differ from capture time;
* per-step variability may flow only through workspace *contents* (the plan
  data written by ``plan()``), never through launch arguments;
* replay costs one launch overhead total instead of one per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class GraphCaptureError(RuntimeError):
    """A capture/replay rule was violated (the CUDA analog would crash or
    silently compute garbage; we fail loudly)."""


@dataclass
class _CapturedLaunch:
    fn: Callable[[], Any]
    signature: Tuple
    name: str


class CudaGraph:
    """Records launches inside ``capture()`` and replays them verbatim.

    Usage mirrors ``torch.cuda.graph``::

        g = CudaGraph()
        with g.capture():
            wrapper.run(q)       # wrapper registers its launches on the
                                 # active graph via CudaGraph.add_launch
        ...
        wrapper.plan(seqlens)    # new plan data, same launch signatures
        out = g.replay()
    """

    _active: Optional["CudaGraph"] = None

    def __init__(self) -> None:
        self._launches: List[_CapturedLaunch] = []
        self._captured = False
        self.replay_count = 0

    # -- capture ------------------------------------------------------------

    class _CaptureCtx:
        def __init__(self, graph: "CudaGraph"):
            self.graph = graph

        def __enter__(self):
            if CudaGraph._active is not None:
                raise GraphCaptureError("nested CUDAGraph capture")
            if self.graph._captured:
                raise GraphCaptureError("graph already captured; create a new graph")
            CudaGraph._active = self.graph
            return self.graph

        def __exit__(self, exc_type, exc, tb):
            CudaGraph._active = None
            if exc_type is None:
                self.graph._captured = True
            return False

    def capture(self) -> "_CaptureCtx":
        return CudaGraph._CaptureCtx(self)

    @classmethod
    def current(cls) -> Optional["CudaGraph"]:
        """The graph currently capturing, if any."""
        return cls._active

    @classmethod
    def add_launch(
        cls,
        fn: Callable[[], Any],
        signature: Tuple,
        name: str = "kernel",
    ) -> Any:
        """Run ``fn`` now and, if a capture is active, record it.

        ``signature`` must contain every launch-time argument that CUDAGraph
        would freeze (grid size, workspace addresses, scalar params); ``fn``
        must re-read anything step-varying from the workspace.
        """
        result = fn()
        graph = cls._active
        if graph is not None:
            graph._launches.append(_CapturedLaunch(fn, signature, name))
        return result

    # -- replay ---------------------------------------------------------------

    @property
    def num_launches(self) -> int:
        return len(self._launches)

    def replay(self) -> List[Any]:
        """Re-execute every captured launch after re-validating signatures."""
        if not self._captured:
            raise GraphCaptureError("replay before capture completed")
        results = []
        for launch in self._launches:
            sig_fn = getattr(launch.fn, "current_signature", None)
            if sig_fn is not None:
                now = sig_fn()
                if now != launch.signature:
                    raise GraphCaptureError(
                        f"launch {launch.name!r}: signature changed since capture "
                        f"(captured {launch.signature}, now {now}); CUDAGraph replay "
                        f"would use stale arguments"
                    )
            results.append(launch.fn())
        self.replay_count += 1
        return results

