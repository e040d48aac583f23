"""User-allocated workspace buffer with fixed-offset sections.

Paper Appendix D: FlashInfer stores scheduler metadata and split-KV partial
outputs in a single user-provided device buffer, divided into *sections*
whose offsets are fixed at first plan time.  CUDAGraph capture freezes
kernel pointer arguments, so section addresses must never move; sections are
therefore sized to upper bounds and only their *contents* change per
generation step.

We model addresses as ``(buffer id, offset)`` pairs; :class:`CudaGraph`
checks them for stability across replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: Byte alignment of every section's offset.
SECTION_ALIGNMENT = 256


@dataclass
class WorkspaceSection:
    """A named, fixed-offset region of the workspace."""

    name: str
    offset: int
    nbytes: int
    buffer_id: int

    @property
    def address(self) -> "tuple[int, int]":
        """Stable address token compared by CUDAGraph capture/replay."""
        return (self.buffer_id, self.offset)


class WorkspaceBuffer:
    """A byte buffer carved into named sections at fixed offsets.

    Sections are created once (on the first ``plan``) with upper-bound
    sizes; re-creating an existing section with a larger size raises, which
    is exactly the CUDAGraph incompatibility the layout is designed to
    avoid (Appendix D.1).
    """

    _next_id = 0

    def __init__(self, nbytes: int):
        if nbytes <= 0:
            raise ValueError("workspace must be non-empty")
        self.nbytes = int(nbytes)
        self.buffer = np.zeros(self.nbytes, dtype=np.uint8)
        self._sections: Dict[str, WorkspaceSection] = {}
        self._cursor = 0
        self.buffer_id = WorkspaceBuffer._next_id
        WorkspaceBuffer._next_id += 1

    def section(self, name: str) -> Optional[WorkspaceSection]:
        return self._sections.get(name)

    def allocate_section(self, name: str, nbytes: int) -> WorkspaceSection:
        """Create (or validate) a section of at least ``nbytes``.

        Idempotent: a repeat request that fits the existing section returns
        it unchanged; a larger request raises (the address would move).
        """
        existing = self._sections.get(name)
        if existing is not None:
            if nbytes > existing.nbytes:
                raise ValueError(
                    f"section {name!r} was sized to {existing.nbytes} bytes at plan "
                    f"time; {nbytes} requested later. Provide a larger upper bound "
                    f"on the first plan call (Appendix D.3)."
                )
            return existing
        offset = -(-self._cursor // SECTION_ALIGNMENT) * SECTION_ALIGNMENT
        if offset + nbytes > self.nbytes:
            raise MemoryError(
                f"workspace exhausted: need {nbytes} bytes for {name!r}, "
                f"{self.nbytes - offset} available"
            )
        sec = WorkspaceSection(name, offset, int(nbytes), self.buffer_id)
        self._sections[name] = sec
        self._cursor = offset + nbytes
        return sec

    def view(self, name: str, dtype=np.uint8) -> np.ndarray:
        """Typed view of a section's bytes."""
        sec = self._sections[name]
        count = sec.nbytes // np.dtype(dtype).itemsize
        return self.buffer[sec.offset : sec.offset + count * np.dtype(dtype).itemsize].view(dtype)

    def write(self, name: str, data: np.ndarray) -> None:
        """Copy ``data`` into a section (the ``cudaMemcpyAsync`` of App. D).

        The copy may fill only a prefix of the section — plan data shrinks
        and grows per step while the section stays at its upper bound.
        """
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        sec = self._sections[name]
        if raw.nbytes > sec.nbytes:
            raise ValueError(
                f"data ({raw.nbytes} B) exceeds section {name!r} ({sec.nbytes} B)"
            )
        self.buffer[sec.offset : sec.offset + raw.nbytes] = raw

    def read(self, name: str, dtype, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` from a section's start."""
        sec = self._sections[name]
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes > sec.nbytes:
            raise ValueError(f"read of {nbytes} B exceeds section {name!r}")
        return self.buffer[sec.offset : sec.offset + nbytes].view(dtype).copy()
