"""Per-device throughput model.

Throughput follows a roofline: a device processing a kernel is limited
either by its instruction throughput at the current frequency or by the
DRAM bandwidth its L3 misses demand.  When the CPU and GPU co-execute,
they contend for the shared memory bandwidth; we allocate it
proportionally to demand, which is the standard fair-share model and
matches the co-execution slowdowns the paper's reference [12] reports
for integrated GPUs.

The returned :class:`DeviceRates` carries, per device:

* ``items_per_s`` - average-cost items per second (the simulator's
  :class:`~repro.soc.work.WorkRegion` converts this into actual items
  using the kernel's irregularity profile);
* ``memory_stall_fraction`` - how memory-limited the device is right
  now (0 = pure compute, 1 = fully stalled on DRAM), which feeds the
  power model's stall scaling;
* ``traffic_bytes_per_s`` - DRAM traffic, which feeds uncore power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.soc.cost_model import KernelCostModel
from repro.soc.spec import PlatformSpec


@dataclass(frozen=True)
class DeviceRates:
    """Instantaneous throughput of both devices under contention."""

    cpu_items_per_s: float
    gpu_items_per_s: float
    cpu_memory_stall_fraction: float
    gpu_memory_stall_fraction: float
    cpu_traffic_bytes_per_s: float
    gpu_traffic_bytes_per_s: float

    @property
    def total_traffic_bytes_per_s(self) -> float:
        return self.cpu_traffic_bytes_per_s + self.gpu_traffic_bytes_per_s


def gpu_occupancy(spec: PlatformSpec, dispatch_items: float) -> float:
    """EU occupancy for a kernel dispatch of ``dispatch_items`` items.

    The paper sizes GPU_PROFILE_SIZE to the hardware parallelism (2240
    on the desktop GPU) precisely because smaller dispatches leave EUs
    idle; we model that as linear occupancy up to the hardware width.
    Occupancy is a property of the *dispatch*, not of how many items
    remain: the thread dispatcher keeps the EU array fed until the
    final wave.
    """
    hw = spec.gpu.hardware_parallelism
    if dispatch_items <= 0:
        return 0.0
    return min(1.0, dispatch_items / hw)


def compute_rates(spec: PlatformSpec, cost: KernelCostModel,
                  cpu_freq_hz: float, gpu_freq_hz: float,
                  cpu_active_cores: float, gpu_items_in_flight: float,
                  cpu_active: bool, gpu_active: bool) -> DeviceRates:
    """Throughput of both devices for one simulator tick.

    ``cpu_active_cores`` is the number of CPU worker cores currently
    executing kernel items (the GPU proxy thread occupies one hardware
    thread but contributes no item throughput while blocked on the
    GPU).
    """
    cpu_bytes_per_item = cost.dram_bytes_per_item
    gpu_bytes_per_item = cost.gpu_dram_bytes_per_item

    # --- unconstrained compute-side rates -----------------------------------
    cpu_compute = 0.0
    if cpu_active and cpu_active_cores > 0:
        instr_rate = spec.cpu.instruction_rate(cpu_freq_hz, cpu_active_cores)
        cpu_compute = instr_rate * cost.cpu_simd_efficiency / cost.instructions_per_item

    gpu_compute = 0.0
    if gpu_active:
        occ = gpu_occupancy(spec, gpu_items_in_flight)
        instr_rate = spec.gpu.instruction_rate(gpu_freq_hz, occ)
        effective = cost.gpu_simd_efficiency * (1.0 - cost.gpu_divergence)
        gpu_compute = instr_rate * effective / cost.gpu_instructions_per_item

    if cpu_bytes_per_item <= 0.0:
        # Pure compute kernel: no memory contention at all.
        return DeviceRates(
            cpu_items_per_s=cpu_compute,
            gpu_items_per_s=gpu_compute,
            cpu_memory_stall_fraction=0.0,
            gpu_memory_stall_fraction=0.0,
            cpu_traffic_bytes_per_s=0.0,
            gpu_traffic_bytes_per_s=0.0,
        )

    # --- per-device link limits ----------------------------------------------
    cpu_link_rate = spec.cpu.mem_bw_bytes_per_s / cpu_bytes_per_item
    gpu_link_rate = spec.gpu.mem_bw_bytes_per_s / gpu_bytes_per_item
    cpu_solo = min(cpu_compute, cpu_link_rate)
    gpu_solo = min(gpu_compute, gpu_link_rate)

    # --- shared-bandwidth contention ------------------------------------------
    demand_cpu = cpu_solo * cpu_bytes_per_item
    demand_gpu = gpu_solo * gpu_bytes_per_item
    total_demand = demand_cpu + demand_gpu
    shared = spec.memory.shared_bw_bytes_per_s
    if total_demand > shared and total_demand > 0:
        scale = shared / total_demand
        cpu_rate = cpu_solo * scale
        gpu_rate = gpu_solo * scale
    else:
        cpu_rate = cpu_solo
        gpu_rate = gpu_solo

    # --- LLC-thrash coupling ---------------------------------------------------
    # Beyond raw bandwidth sharing, a streaming GPU inflates the CPU's
    # memory latency (LLC evictions, queueing at the memory
    # controller).  The CPU loses throughput proportional to how much
    # of the shared bandwidth the GPU is consuming; the lost cycles are
    # stall cycles for the power model.
    kappa = spec.memory.llc_contention_factor
    if kappa > 0.0 and cpu_rate > 0 and gpu_rate > 0:
        gpu_share = min(1.0, (gpu_rate * gpu_bytes_per_item) / shared)
        cpu_rate *= 1.0 - kappa * gpu_share

    cpu_stall = 0.0 if cpu_compute <= 0 else max(0.0, 1.0 - cpu_rate / cpu_compute)
    gpu_stall = 0.0 if gpu_compute <= 0 else max(0.0, 1.0 - gpu_rate / gpu_compute)

    return DeviceRates(
        cpu_items_per_s=cpu_rate,
        gpu_items_per_s=gpu_rate,
        cpu_memory_stall_fraction=cpu_stall,
        gpu_memory_stall_fraction=gpu_stall,
        cpu_traffic_bytes_per_s=cpu_rate * cpu_bytes_per_item,
        gpu_traffic_bytes_per_s=gpu_rate * gpu_bytes_per_item,
    )


def compute_rates_batch(spec: PlatformSpec, cost: KernelCostModel,
                        cpu_freq_hz: "np.ndarray", gpu_freq_hz: "np.ndarray",
                        cpu_active_cores: float, gpu_items_in_flight: float,
                        cpu_active: bool, gpu_active: bool) -> DeviceRates:
    """Vectorized twin of :func:`compute_rates` over frequency arrays.

    Element ``i`` of every returned array reproduces
    ``compute_rates(..., cpu_freq_hz[i], gpu_freq_hz[i], ...)`` with the
    *same elementary operations in the same order*, so each element is
    bit-identical to the scalar result (IEEE arithmetic is deterministic
    per element; only reductions over elements can reassociate).  The
    fast clock mode's batched-transient path depends on that equality -
    keep this function in lockstep with :func:`compute_rates`.

    Device activity and core counts are scalars (constant over the
    batch span); only frequencies vary per element.
    """
    cpu_freq_hz = np.asarray(cpu_freq_hz, dtype=float)
    gpu_freq_hz = np.asarray(gpu_freq_hz, dtype=float)
    zeros = np.zeros_like(cpu_freq_hz)
    cpu_bytes_per_item = cost.dram_bytes_per_item
    gpu_bytes_per_item = cost.gpu_dram_bytes_per_item

    cpu_compute = zeros
    if cpu_active and cpu_active_cores > 0:
        instr_rate = spec.cpu.instruction_rate(cpu_freq_hz, cpu_active_cores)
        cpu_compute = instr_rate * cost.cpu_simd_efficiency / cost.instructions_per_item

    gpu_compute = zeros
    if gpu_active:
        occ = gpu_occupancy(spec, gpu_items_in_flight)
        instr_rate = spec.gpu.instruction_rate(gpu_freq_hz, occ)
        effective = cost.gpu_simd_efficiency * (1.0 - cost.gpu_divergence)
        gpu_compute = instr_rate * effective / cost.gpu_instructions_per_item

    if cpu_bytes_per_item <= 0.0:
        return DeviceRates(
            cpu_items_per_s=cpu_compute,
            gpu_items_per_s=gpu_compute,
            cpu_memory_stall_fraction=zeros,
            gpu_memory_stall_fraction=zeros,
            cpu_traffic_bytes_per_s=zeros,
            gpu_traffic_bytes_per_s=zeros,
        )

    cpu_link_rate = spec.cpu.mem_bw_bytes_per_s / cpu_bytes_per_item
    gpu_link_rate = spec.gpu.mem_bw_bytes_per_s / gpu_bytes_per_item
    cpu_solo = np.minimum(cpu_compute, cpu_link_rate)
    gpu_solo = np.minimum(gpu_compute, gpu_link_rate)

    demand_cpu = cpu_solo * cpu_bytes_per_item
    demand_gpu = gpu_solo * gpu_bytes_per_item
    total_demand = demand_cpu + demand_gpu
    shared = spec.memory.shared_bw_bytes_per_s
    contended = (total_demand > shared) & (total_demand > 0)
    scale = np.divide(shared, total_demand,
                      out=np.ones_like(total_demand), where=contended)
    cpu_rate = np.where(contended, cpu_solo * scale, cpu_solo)
    gpu_rate = np.where(contended, gpu_solo * scale, gpu_solo)

    kappa = spec.memory.llc_contention_factor
    if kappa > 0.0:
        both = (cpu_rate > 0) & (gpu_rate > 0)
        gpu_share = np.minimum(1.0, (gpu_rate * gpu_bytes_per_item) / shared)
        cpu_rate = np.where(both, cpu_rate * (1.0 - kappa * gpu_share), cpu_rate)

    cpu_q = np.divide(cpu_rate, cpu_compute,
                      out=np.zeros_like(cpu_rate), where=cpu_compute > 0)
    gpu_q = np.divide(gpu_rate, gpu_compute,
                      out=np.zeros_like(gpu_rate), where=gpu_compute > 0)
    cpu_stall = np.where(cpu_compute <= 0, 0.0,
                         np.maximum(0.0, 1.0 - cpu_q))
    gpu_stall = np.where(gpu_compute <= 0, 0.0,
                         np.maximum(0.0, 1.0 - gpu_q))

    return DeviceRates(
        cpu_items_per_s=cpu_rate,
        gpu_items_per_s=gpu_rate,
        cpu_memory_stall_fraction=cpu_stall,
        gpu_memory_stall_fraction=gpu_stall,
        cpu_traffic_bytes_per_s=cpu_rate * cpu_bytes_per_item,
        gpu_traffic_bytes_per_s=gpu_rate * gpu_bytes_per_item,
    )
