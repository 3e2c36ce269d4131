"""The eight power-characterization micro-benchmarks (Section 2).

They form the cross-product of {compute-bound, memory-bound} x
{CPU short, CPU long} x {GPU short, GPU long}:

* the **compute-bound** probe repeatedly performs floating-point
  multiply-add operations on register-resident data (near-zero LLC
  misses);
* the **memory-bound** probe randomly updates memory locations in a
  large array through precomputed random indices (high LLC miss rate);
* **CPU-biased** cells (CPU short, GPU long) use a kernel variant that
  maps poorly onto the GPU (heavy divergence/serialization), as the
  paper describes for workloads that "perform much faster on the CPU
  than the GPU";
* **GPU-biased** cells (CPU long, GPU short) use a variant whose CPU
  code is scalar and branchy (low effective IPC) while the GPU version
  streams well.

The characterization sweep needs only each probe's cost model.
"""

from __future__ import annotations

from typing import List

from repro.core.categories import (
    Boundedness,
    DeviceDuration,
    WorkloadCategory,
)
from repro.core.characterization import CharacterizationMicrobench
from repro.soc.cost_model import KernelCostModel

#: CPU-alone duration targets used during characterization.
SHORT_CPU_TARGET_S = 0.045
LONG_CPU_TARGET_S = 1.2
#: The GPU-biased (CPU-long) cells use a shorter CPU target so the
#: GPU side lands safely under the 100 ms threshold.
GPU_BIASED_CPU_TARGET_S = 1.0

_S = DeviceDuration.SHORT
_L = DeviceDuration.LONG


def _compute_cost(name: str, cpu_eff: float, gpu_eff: float) -> KernelCostModel:
    """FMA-loop probe: all arithmetic, no LLC traffic."""
    return KernelCostModel(
        name=name,
        instructions_per_item=2000.0,
        loadstore_fraction=0.2,
        l3_miss_rate=0.0,
        cpu_simd_efficiency=cpu_eff,
        gpu_simd_efficiency=gpu_eff,
    )


def _memory_cost(name: str, cpu_eff: float, gpu_eff: float) -> KernelCostModel:
    """Random-update probe: ~81 LLC misses per item."""
    return KernelCostModel(
        name=name,
        instructions_per_item=300.0,
        loadstore_fraction=0.45,
        l3_miss_rate=0.6,
        cpu_simd_efficiency=cpu_eff,
        gpu_simd_efficiency=gpu_eff,
    )


def standard_microbenches() -> List[CharacterizationMicrobench]:
    """The eight probes, one per workload category.

    Device-duration bias is encoded in the per-device efficiency of
    the kernel variant; the iteration count is calibrated by the
    characterizer to hit ``cpu_target_s``.
    """
    benches: List[CharacterizationMicrobench] = []

    def add(bound: Boundedness, cpu_dur: DeviceDuration,
            gpu_dur: DeviceDuration, cost: KernelCostModel,
            cpu_target: float) -> None:
        # Short-category probes repeat back-to-back (how short kernels
        # occur in applications); long probes run once.
        short = (cpu_dur is DeviceDuration.SHORT
                 or gpu_dur is DeviceDuration.SHORT)
        benches.append(CharacterizationMicrobench(
            category=WorkloadCategory(bound, cpu_dur, gpu_dur),
            cost=cost, cpu_target_s=cpu_target,
            repetitions=20 if short else 1))

    # -- compute-bound cells -------------------------------------------------
    add(Boundedness.COMPUTE, _S, _S,
        _compute_cost("ub-compute-ss", cpu_eff=1.0, gpu_eff=1.0),
        SHORT_CPU_TARGET_S)
    add(Boundedness.COMPUTE, _L, _L,
        _compute_cost("ub-compute-ll", cpu_eff=1.0, gpu_eff=1.0),
        LONG_CPU_TARGET_S)
    add(Boundedness.COMPUTE, _S, _L,
        _compute_cost("ub-compute-sl", cpu_eff=1.0, gpu_eff=0.1),
        SHORT_CPU_TARGET_S)
    add(Boundedness.COMPUTE, _L, _S,
        _compute_cost("ub-compute-ls", cpu_eff=0.08, gpu_eff=1.0),
        GPU_BIASED_CPU_TARGET_S)

    # -- memory-bound cells --------------------------------------------------
    add(Boundedness.MEMORY, _S, _S,
        _memory_cost("ub-memory-ss", cpu_eff=1.0, gpu_eff=1.0),
        SHORT_CPU_TARGET_S)
    add(Boundedness.MEMORY, _L, _L,
        _memory_cost("ub-memory-ll", cpu_eff=1.0, gpu_eff=1.0),
        LONG_CPU_TARGET_S)
    add(Boundedness.MEMORY, _S, _L,
        _memory_cost("ub-memory-sl", cpu_eff=1.0, gpu_eff=0.003),
        SHORT_CPU_TARGET_S)
    add(Boundedness.MEMORY, _L, _S,
        _memory_cost("ub-memory-ls", cpu_eff=0.0012, gpu_eff=1.0),
        GPU_BIASED_CPU_TARGET_S)

    return benches


def microbench_for(category: WorkloadCategory) -> CharacterizationMicrobench:
    """Look up the standard probe for a category."""
    for bench in standard_microbenches():
        if bench.category == category:
            return bench
    raise KeyError(str(category))
