"""Kernel abstraction.

A Concord ``parallel_for`` site compiles into two artifacts: the CPU
function executed by worker threads and an OpenCL kernel for the GPU.
Our :class:`Kernel` mirrors that: an optional *real* Python CPU body
(used for correctness validation and the examples) plus the
:class:`~repro.soc.cost_model.KernelCostModel` that drives the SoC
simulator's timing and power.

The kernel's ``key`` plays the role of the CPU function pointer ``f``
in Fig. 7: it indexes the scheduler's global alpha table G across
invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import RuntimeLayerError
from repro.soc.cost_model import KernelCostModel

#: Real CPU implementation: body(lo, hi) executes items [lo, hi).
CpuFn = Callable[[int, int], None]


@dataclass
class Kernel:
    """One data-parallel kernel: identity, cost model, optional bodies."""

    name: str
    cost: KernelCostModel
    cpu_fn: Optional[CpuFn] = None
    #: Table-G key; defaults to the kernel name.
    key: Optional[str] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise RuntimeLayerError("kernel needs a name")
        if self.key is None:
            self.key = self.name

    def execute_cpu(self, lo: int, hi: int) -> None:
        """Run the real CPU body over items [lo, hi)."""
        if self.cpu_fn is None:
            raise RuntimeLayerError(f"kernel {self.name} has no CPU body")
        self.cpu_fn(lo, hi)
