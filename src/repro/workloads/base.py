"""Workload base class.

A workload couples the paper-scale *cost model* (what the simulator
times) with a reduced-scale *real implementation* (what the tests
validate).  See DESIGN.md, decision 2: simulated timing is O(simulated
seconds) regardless of the paper's input size, while algorithmic
correctness is checked at laptop scale against reference
implementations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError
from repro.runtime.kernel import Kernel
from repro.soc.cost_model import KernelCostModel


@dataclass(frozen=True)
class InvocationSpec:
    """One kernel invocation: its iteration count."""

    n_items: float

    def __post_init__(self) -> None:
        if self.n_items <= 0:
            raise WorkloadError("invocation must have positive items")


class Workload(abc.ABC):
    """One benchmark application with a single data-parallel kernel."""

    #: Full name and the paper's abbreviation.
    name: str = ""
    abbrev: str = ""
    #: Regular (R) vs irregular (IR) per the paper's classification.
    regular: bool = True
    #: Whether the 32-bit tablet build supports this workload.
    tablet_supported: bool = True
    #: Input descriptions for Table 1.
    input_desktop: str = ""
    input_tablet: str = "N/A"
    #: Expected Table-1 characterization (desktop).
    expected_compute_bound: bool = True
    expected_cpu_short: bool = False
    expected_gpu_short: bool = False

    # -- paper-scale simulation interface -----------------------------------------

    @abc.abstractmethod
    def cost_model(self, tablet: bool = False) -> KernelCostModel:
        """Cost of one kernel iteration at the platform's input scale."""

    @abc.abstractmethod
    def invocations(self, tablet: bool = False) -> List[InvocationSpec]:
        """Iteration counts of every kernel invocation, in order."""

    def make_kernel(self, tablet: bool = False) -> Kernel:
        """Kernel used by the evaluation harness (no real body needed)."""
        return Kernel(name=self.abbrev, cost=self.cost_model(tablet=tablet))

    @property
    def num_invocations(self) -> int:
        return len(self.invocations(tablet=False))

    def total_items(self, tablet: bool = False) -> float:
        return sum(inv.n_items for inv in self.invocations(tablet=tablet))

    # -- real-computation interface -----------------------------------------------

    @abc.abstractmethod
    def validate(self) -> None:
        """Run the real algorithm at reduced scale and assert correctness.

        Raises (AssertionError or WorkloadError) on any mismatch with
        the reference result.  Called by the test suite and examples.
        """

    def make_executable_kernel(self) -> Optional[Kernel]:
        """A kernel with a real body at reduced scale, when available."""
        return None

    def __repr__(self) -> str:
        return f"<Workload {self.abbrev} ({self.name})>"
