"""Per-kernel cost models.

A :class:`KernelCostModel` tells the SoC simulator how expensive one
parallel iteration ("work item") of a kernel is, on each device, and how
it exercises the memory system.  The energy-aware scheduler never sees
these numbers directly - it only observes the performance counters,
timers and the energy MSR the simulator derives from them - preserving
the paper's black-box setting.

The model is deliberately roofline-shaped:

* the *compute* cost of an item is ``instructions_per_item`` scaled by a
  per-device efficiency factor (``cpu_simd_efficiency`` folds in how
  well the kernel vectorizes on CPU; ``gpu_simd_efficiency`` and
  ``gpu_divergence`` fold in SIMT lane utilization and branch
  divergence for irregular kernels);
* the *memory* cost of an item is the L3-miss traffic it generates:
  ``instructions_per_item * loadstore_fraction * l3_miss_rate`` cache
  lines fetched from DRAM.

The ratio of L3 misses to load/store instructions is exactly what the
paper's online classifier thresholds at 0.33 to decide memory- versus
compute-bound, so these models drive both timing *and* classification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import SpecError
from repro.units import CACHELINE_BYTES

#: Per-item quantities :class:`KernelCostModel` derives from its fields.
_DERIVED = ("loadstores_per_item", "l3_misses_per_item", "dram_bytes_per_item",
            "gpu_instructions_per_item", "gpu_dram_bytes_per_item")


@dataclass(frozen=True)
class KernelCostModel:
    """Cost of one parallel iteration of a data-parallel kernel."""

    name: str
    #: Dynamic instructions retired per item on the CPU.
    instructions_per_item: float
    #: Fraction of those instructions that are loads/stores.
    loadstore_fraction: float
    #: L3 misses per load/store instruction (0..1).
    l3_miss_rate: float
    #: Fraction of CPU peak IPC this kernel achieves (vectorization,
    #: ILP, branch behaviour), 0..1.
    cpu_simd_efficiency: float = 1.0
    #: Fraction of GPU peak throughput this kernel achieves, 0..1.
    gpu_simd_efficiency: float = 1.0
    #: Extra GPU throughput loss from branch divergence (irregular
    #: kernels), 0..1; effective GPU efficiency is scaled by (1 - this).
    gpu_divergence: float = 0.0
    #: GPU instruction expansion: GPU ISA instructions per CPU
    #: instruction for the same item (address math, masking).
    gpu_instruction_expansion: float = 1.0
    #: GPU DRAM traffic relative to CPU traffic for the same item.
    #: Below 1.0 models coalescing: wide SIMT gathers turn the CPU's
    #: scattered cache-line misses into fewer, denser transactions.
    gpu_traffic_factor: float = 1.0
    #: Coefficient of variation of per-item cost (0 for regular kernels).
    item_cost_cv: float = 0.0
    #: Correlation length of the cost variation across the iteration
    #: space, as a fraction of N (long-range structure breaks profiling).
    cost_profile_scale: float = 0.1
    #: Seed tag so each kernel's irregularity pattern is unique but
    #: deterministic.
    rng_tag: int = 0

    def __post_init__(self) -> None:
        if self.instructions_per_item <= 0:
            raise SpecError(f"{self.name}: instructions_per_item must be positive")
        for attr in ("loadstore_fraction", "l3_miss_rate", "cpu_simd_efficiency",
                     "gpu_simd_efficiency", "gpu_divergence"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"{self.name}: {attr}={value} must be in [0,1]")
        if self.item_cost_cv < 0:
            raise SpecError(f"{self.name}: item_cost_cv must be non-negative")
        if self.gpu_instruction_expansion <= 0:
            raise SpecError(f"{self.name}: gpu_instruction_expansion must be positive")
        if self.gpu_traffic_factor <= 0:
            raise SpecError(f"{self.name}: gpu_traffic_factor must be positive")
        self._derive()

    # -- derived quantities -------------------------------------------------
    #
    # The simulator reads these on every tick, so they are computed once,
    # at construction, into plain instance attributes (see
    # ``_DERIVED``).  They are not dataclass fields: equality, hashing,
    # ``repr``, ``asdict`` (and with it ``RunSpec.canonical()``) and
    # pickles see only the fields.

    #: Load/store instructions per item.
    loadstores_per_item: ClassVar[float]
    #: LLC misses per item.
    l3_misses_per_item: ClassVar[float]
    #: DRAM traffic per item, bytes (one cache line per miss).
    dram_bytes_per_item: ClassVar[float]
    #: GPU dynamic instructions per item.
    gpu_instructions_per_item: ClassVar[float]
    #: DRAM traffic per item on the GPU (coalescing applied).
    gpu_dram_bytes_per_item: ClassVar[float]

    def _derive(self) -> None:
        loadstores = self.instructions_per_item * self.loadstore_fraction
        l3_misses = loadstores * self.l3_miss_rate
        dram_bytes = l3_misses * CACHELINE_BYTES
        values = (loadstores, l3_misses, dram_bytes,
                  self.instructions_per_item * self.gpu_instruction_expansion,
                  dram_bytes * self.gpu_traffic_factor)
        for name, value in zip(_DERIVED, values):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    @property
    def miss_to_loadstore_ratio(self) -> float:
        """The classification statistic the paper thresholds at 0.33."""
        return self.l3_miss_rate

    def with_overrides(self, **kwargs: object) -> "KernelCostModel":
        """Return a copy with some fields replaced (for ablations)."""
        return replace(self, **kwargs)
