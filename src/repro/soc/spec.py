"""Platform specifications for the simulated integrated CPU-GPU SoC.

A :class:`PlatformSpec` bundles the CPU, GPU, memory-system and PCU
parameters of one processor.  Two calibrated factory functions are
provided, mirroring the paper's evaluation platforms:

* :func:`haswell_desktop` - an Intel 4th-generation Core i7-4770 class
  desktop part with an HD Graphics 4600 class integrated GPU (20 EUs,
  7 threads/EU, 16-wide SIMD, i.e. 2240-way parallelism);
* :func:`baytrail_tablet` - an Intel Atom Z3740 class tablet part with
  a 4-EU integrated GPU.

The power coefficients are calibrated so the simulator reproduces the
package-power levels the paper reports: on the desktop, ~45 W for
CPU-alone compute-bound execution, ~30 W for GPU-alone, ~55 W for
compute-bound co-execution and ~63 W for memory-bound co-execution,
with short GPU bursts dropping the package below ~40 W (Fig. 4); on the
tablet, ~1.5 W CPU-alone / ~2 W GPU-alone compute-bound and ~0.7 W /
~1.3 W memory-bound (Figs. 5 and 6).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SpecError
from repro.units import gb_per_s, ghz, ms


def _pow(base, exponent: float):
    """``base ** exponent`` for a scalar or an ndarray, bit-stable.

    numpy's vectorized pow kernel can differ from C ``pow`` by 1 ulp on
    some inputs, which would break the fast clock mode's guarantee that
    batched model evaluation is bit-identical to per-tick scalar calls
    (see :func:`repro.soc.power.package_power_batch`).  Arrays therefore
    exponentiate element-wise through python floats, which route to the
    same libm ``pow`` the scalar model uses.
    """
    if isinstance(base, np.ndarray):
        return np.array([b ** exponent for b in base.tolist()])
    return base ** exponent

#: Valid simulator clock modes (see docs/PERFORMANCE.md):
#:
#: * ``"exact"`` - the reference mode: tick-by-tick execution (with the
#:   adaptive stretch for quiet spans).  Required wherever byte-stable
#:   fingerprints or calibration matter.  The factories' default.
#: * ``"fast"`` - additionally fast-forwards *settled* spans (PCU at
#:   target, no throttle, no pending event) in closed-form macro-steps.
#:   End-to-end time/energy/items agree with exact mode to < 1e-6
#:   relative; traces are decimated, not per-tick.
TICK_MODES = ("exact", "fast")


def _resolve_tick_mode(mode: Optional[str]) -> str:
    """Factory helper: None means exact (:class:`PlatformSpec` validates
    anything else)."""
    return "exact" if mode is None else mode


@dataclass(frozen=True)
class CpuSpec:
    """Multi-core CPU complex of the package.

    ``effective_ipc`` is instructions retired per cycle per core for a
    well-vectorized kernel; per-kernel cost models further scale it.
    """

    name: str
    num_cores: int
    smt_per_core: int
    min_freq_hz: float
    base_freq_hz: float
    turbo_freq_hz: float
    effective_ipc: float
    #: Achievable memory bandwidth when the CPU alone saturates memory.
    mem_bw_bytes_per_s: float
    #: Dynamic power coefficient: watts = coeff * cores * (f/GHz)**exponent.
    dyn_power_coeff_w: float
    dyn_power_exponent: float
    #: Leakage per active core, watts.
    leakage_per_core_w: float
    #: Power multiplier for fully memory-stalled cores (0..1).
    memory_stall_power_factor: float

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise SpecError(f"{self.name}: num_cores must be positive")
        if not (self.min_freq_hz <= self.base_freq_hz <= self.turbo_freq_hz):
            raise SpecError(f"{self.name}: frequencies must be ordered min<=base<=turbo")
        if not 0.0 <= self.memory_stall_power_factor <= 1.0:
            raise SpecError(f"{self.name}: memory_stall_power_factor must be in [0,1]")

    def dynamic_power_w(self, freq_hz: float, active_cores: float) -> float:
        """Dynamic power of ``active_cores`` cores running at ``freq_hz``."""
        f_ghz = freq_hz / ghz(1.0)
        return self.dyn_power_coeff_w * active_cores * _pow(f_ghz, self.dyn_power_exponent)

    def instruction_rate(self, freq_hz: float, active_cores: float) -> float:
        """Peak instructions/second across ``active_cores`` cores."""
        return freq_hz * self.effective_ipc * active_cores


@dataclass(frozen=True)
class GpuSpec:
    """Integrated GPU complex of the package."""

    name: str
    num_eus: int
    threads_per_eu: int
    simd_width: int
    min_freq_hz: float
    turbo_freq_hz: float
    #: Instructions per cycle per EU for a well-behaved kernel
    #: (folds in SIMD lanes and co-issue).
    effective_ipc_per_eu: float
    mem_bw_bytes_per_s: float
    dyn_power_coeff_w: float
    dyn_power_exponent: float
    leakage_w: float
    memory_stall_power_factor: float
    #: Fixed cost of dispatching one kernel to the GPU (driver + ring).
    kernel_launch_overhead_s: float

    def __post_init__(self) -> None:
        if self.num_eus <= 0:
            raise SpecError(f"{self.name}: num_eus must be positive")
        if self.min_freq_hz > self.turbo_freq_hz:
            raise SpecError(f"{self.name}: min freq above turbo freq")

    @property
    def hardware_parallelism(self) -> int:
        """Work items needed to occupy every SIMD lane of every thread."""
        return self.num_eus * self.threads_per_eu * self.simd_width

    def dynamic_power_w(self, freq_hz: float, utilization: float) -> float:
        """Dynamic power at ``freq_hz`` with EU array ``utilization`` (0..1)."""
        f_ghz = freq_hz / ghz(1.0)
        return self.dyn_power_coeff_w * utilization * _pow(f_ghz, self.dyn_power_exponent)

    def instruction_rate(self, freq_hz: float, occupancy: float) -> float:
        """Peak GPU instructions/second at ``occupancy`` (0..1)."""
        return freq_hz * self.effective_ipc_per_eu * self.num_eus * occupancy


@dataclass(frozen=True)
class MemorySpec:
    """Shared memory system (LLC + memory controller + DRAM path)."""

    #: Total bandwidth available to CPU+GPU combined.
    shared_bw_bytes_per_s: float
    #: Uncore power per byte/s of memory traffic, watts / (bytes/s).
    traffic_power_w_per_bps: float
    #: Static uncore power when package is awake.
    uncore_static_w: float
    #: How much GPU streaming degrades CPU throughput beyond raw
    #: bandwidth sharing: LLC thrash and memory-latency inflation.
    #: CPU item rate is scaled by (1 - factor * gpu_traffic_share)
    #: while both devices are active.
    llc_contention_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.shared_bw_bytes_per_s <= 0:
            raise SpecError("shared_bw_bytes_per_s must be positive")
        if not 0.0 <= self.llc_contention_factor < 1.0:
            raise SpecError("llc_contention_factor must be in [0, 1)")

    def traffic_power_w(self, bytes_per_s: float) -> float:
        """Uncore/DRAM-path power induced by ``bytes_per_s`` of traffic."""
        return self.traffic_power_w_per_bps * bytes_per_s


@dataclass(frozen=True)
class PcuSpec:
    """Package-control-unit firmware policy parameters.

    These model the *black box* the paper characterizes: the scheduler
    under test never reads them; only the simulator does.
    """

    #: How often the PCU re-evaluates its policy.
    sample_interval_s: float
    #: Package power cap enforced by throttling the CPU.
    package_cap_w: float
    #: CPU frequency target while the GPU is also active (power sharing).
    cpu_coexec_freq_hz: float
    #: CPU frequency floor applied *immediately* when the GPU becomes
    #: active; the CPU then ramps back toward ``cpu_coexec_freq_hz``.
    cpu_gpu_activation_floor_hz: float
    #: Normal CPU frequency ramp-up rate, Hz per second (fast - idle to
    #: turbo in about a millisecond, as on real parts).
    cpu_ramp_up_hz_per_s: float
    #: Slow ramp-up rate used while recovering from a GPU-activation
    #: throttle - the hysteresis that makes short GPU bursts pin the
    #: CPU at low frequency for their whole duration (Fig. 4).
    cpu_recovery_ramp_hz_per_s: float
    #: CPU frequency ramp-down rate, Hz per second (fast).
    cpu_ramp_down_hz_per_s: float
    #: GPU frequency ramp rate, Hz per second.
    gpu_ramp_hz_per_s: float
    #: Delay after GPU goes idle before the CPU is allowed back to turbo.
    gpu_idle_release_s: float
    #: GPU idleness after which a re-activation counts as a *cold*
    #: start and re-triggers the hard CPU floor.  Much longer than the
    #: release delay: kernels launched a few tens of ms apart keep the
    #: package in its co-execution regime.
    gpu_cold_threshold_s: float = 0.3

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise SpecError("sample_interval_s must be positive")
        if self.package_cap_w <= 0:
            raise SpecError("package_cap_w must be positive")


@dataclass(frozen=True)
class PlatformSpec:
    """Complete description of one integrated CPU-GPU processor."""

    name: str
    cpu: CpuSpec
    gpu: GpuSpec
    memory: MemorySpec
    pcu: PcuSpec
    #: Idle package power (clock-gated cores, display engine, etc.).
    idle_power_w: float
    #: Joules per unit of the MSR_PKG_ENERGY_STATUS register.
    energy_unit_j: float
    #: Simulator tick.
    tick_s: float
    #: GPU_PROFILE_SIZE used by the runtime on this platform (the paper
    #: sizes it to the GPU's hardware parallelism: 2048 on the desktop).
    gpu_profile_size: int = field(default=2048)
    #: Simulator clock mode: one of :data:`TICK_MODES`.  ``"exact"``
    #: is the reference; ``"fast"`` macro-steps settled spans (see
    #: docs/PERFORMANCE.md).  Part of the spec (not a simulator flag)
    #: so it flows into :class:`~repro.harness.engine.RunSpec` cache
    #: keys: fast and exact results are never conflated.
    tick_mode: str = field(default="exact")

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise SpecError("tick_s must be positive")
        if self.energy_unit_j <= 0:
            raise SpecError("energy_unit_j must be positive")
        if self.gpu_profile_size <= 0:
            raise SpecError("gpu_profile_size must be positive")
        if self.tick_mode not in TICK_MODES:
            raise SpecError(
                f"tick_mode {self.tick_mode!r} not in {TICK_MODES}")

    def with_tick_mode(self, mode: str) -> "PlatformSpec":
        """This spec under another clock mode (validated, frozen copy).

        The supported way to flip an existing spec between ``exact``
        and ``fast``: explicit at the call site, no process-global
        state, and the copy participates in engine cache keys exactly
        like a factory-built spec.
        """
        if mode == self.tick_mode:
            return self
        return dataclasses.replace(self, tick_mode=mode)


def haswell_desktop(tick_mode: Optional[str] = None) -> PlatformSpec:
    """Calibrated spec for the paper's desktop platform.

    3.4 GHz 4-core/8-thread Core i7-4770 class CPU with an HD Graphics
    4600 class GPU (20 EUs x 7 threads x SIMD16 = 2240-way), 8 GB RAM.

    ``tick_mode`` selects the simulator clock mode (one of
    :data:`TICK_MODES`); None means ``"exact"``.
    """
    cpu = CpuSpec(
        name="i7-4770-class",
        num_cores=4,
        smt_per_core=2,
        min_freq_hz=ghz(0.8),
        base_freq_hz=ghz(3.4),
        turbo_freq_hz=ghz(3.9),
        effective_ipc=4.0,
        mem_bw_bytes_per_s=gb_per_s(21.0),
        dyn_power_coeff_w=0.42,
        dyn_power_exponent=2.2,
        leakage_per_core_w=0.55,
        # Haswell-class out-of-order cores keep most of the machine
        # spinning while stalled on DRAM; memory-bound work therefore
        # draws about as much core power as compute-bound work, and the
        # uncore traffic power on top makes it draw *more* overall -
        # the paper's 63 W vs 55 W co-execution observation.
        memory_stall_power_factor=1.0,
    )
    gpu = GpuSpec(
        name="hd4600-class",
        num_eus=20,
        threads_per_eu=7,
        simd_width=16,
        min_freq_hz=ghz(0.35),
        turbo_freq_hz=ghz(1.2),
        effective_ipc_per_eu=7.0,
        mem_bw_bytes_per_s=gb_per_s(18.0),
        dyn_power_coeff_w=14.5,
        dyn_power_exponent=1.9,
        leakage_w=1.3,
        memory_stall_power_factor=0.75,
        kernel_launch_overhead_s=ms(0.025),
    )
    memory = MemorySpec(
        shared_bw_bytes_per_s=gb_per_s(24.0),
        traffic_power_w_per_bps=0.50 / gb_per_s(1.0),
        uncore_static_w=2.4,
        llc_contention_factor=0.55,
    )
    pcu = PcuSpec(
        sample_interval_s=ms(1.0),
        package_cap_w=66.0,
        cpu_coexec_freq_hz=ghz(3.6),
        cpu_gpu_activation_floor_hz=ghz(1.2),
        cpu_ramp_up_hz_per_s=ghz(1.0) / ms(1.0),
        cpu_recovery_ramp_hz_per_s=ghz(0.015) / ms(1.0),  # 15 MHz per ms
        cpu_ramp_down_hz_per_s=ghz(1.0) / ms(1.0),  # near-instant down
        gpu_ramp_hz_per_s=ghz(1.5) / ms(1.0),
        gpu_idle_release_s=ms(10.0),
        gpu_cold_threshold_s=0.3,
    )
    return PlatformSpec(
        name="haswell-desktop",
        cpu=cpu,
        gpu=gpu,
        memory=memory,
        pcu=pcu,
        idle_power_w=7.5,
        energy_unit_j=1.0 / (1 << 14),
        tick_s=ms(0.5),
        gpu_profile_size=2048,
        tick_mode=_resolve_tick_mode(tick_mode),
    )


def ultrabook_15w(tick_mode: Optional[str] = None) -> PlatformSpec:
    """A third, hypothetical platform: a 15 W-class ultrabook SoC.

    Not part of the paper's evaluation - included because the paper's
    whole point is SKU-to-SKU variability ("power management policies
    for a processor vary from one specific SKU to another"): the
    black-box pipeline must work on processors nobody calibrated
    workloads for.  2 SMT cores + 12 EUs, between the desktop and the
    tablet in every respect.
    """
    cpu = CpuSpec(
        name="ultrabook-cpu",
        num_cores=2,
        smt_per_core=2,
        min_freq_hz=ghz(0.6),
        base_freq_hz=ghz(1.8),
        turbo_freq_hz=ghz(3.0),
        effective_ipc=4.0,
        mem_bw_bytes_per_s=gb_per_s(14.0),
        dyn_power_coeff_w=0.38,
        dyn_power_exponent=2.2,
        leakage_per_core_w=0.3,
        memory_stall_power_factor=0.9,
    )
    gpu = GpuSpec(
        name="ultrabook-gpu",
        num_eus=12,
        threads_per_eu=7,
        simd_width=16,
        min_freq_hz=ghz(0.3),
        turbo_freq_hz=ghz(0.95),
        effective_ipc_per_eu=7.0,
        mem_bw_bytes_per_s=gb_per_s(12.0),
        dyn_power_coeff_w=9.0,
        dyn_power_exponent=1.9,
        leakage_w=0.6,
        memory_stall_power_factor=0.7,
        kernel_launch_overhead_s=ms(0.03),
    )
    memory = MemorySpec(
        shared_bw_bytes_per_s=gb_per_s(15.0),
        traffic_power_w_per_bps=0.3 / gb_per_s(1.0),
        uncore_static_w=1.0,
        llc_contention_factor=0.45,
    )
    pcu = PcuSpec(
        sample_interval_s=ms(1.0),
        package_cap_w=15.0,
        cpu_coexec_freq_hz=ghz(2.2),
        cpu_gpu_activation_floor_hz=ghz(1.0),
        cpu_ramp_up_hz_per_s=ghz(1.0) / ms(1.0),
        cpu_recovery_ramp_hz_per_s=ghz(0.012) / ms(1.0),
        cpu_ramp_down_hz_per_s=ghz(1.0) / ms(1.0),
        gpu_ramp_hz_per_s=ghz(1.0) / ms(1.0),
        gpu_idle_release_s=ms(10.0),
        gpu_cold_threshold_s=0.3,
    )
    return PlatformSpec(
        name="ultrabook-15w",
        cpu=cpu,
        gpu=gpu,
        memory=memory,
        pcu=pcu,
        idle_power_w=2.5,
        energy_unit_j=1.0 / (1 << 14),
        tick_s=ms(0.5),
        gpu_profile_size=12 * 7 * 16,
        tick_mode=_resolve_tick_mode(tick_mode),
    )


def baytrail_tablet(tick_mode: Optional[str] = None) -> PlatformSpec:
    """Calibrated spec for the paper's tablet platform.

    1.33 GHz 4-core Atom Z3740 class CPU with a 4-EU integrated GPU
    (4 EUs x 7 threads x SIMD16 = 448-way), 2 GB RAM.  On this part the
    GPU draws *more* power than the CPU, and memory-bound work draws
    less than compute-bound work (the paper calls this out as
    surprising); the characterization curves come out mostly concave.
    """
    cpu = CpuSpec(
        name="atom-z3740-class",
        num_cores=4,
        smt_per_core=1,
        min_freq_hz=ghz(0.5),
        base_freq_hz=ghz(1.33),
        turbo_freq_hz=ghz(1.86),
        effective_ipc=1.6,
        mem_bw_bytes_per_s=gb_per_s(5.3),
        dyn_power_coeff_w=0.0815,
        dyn_power_exponent=2.2,
        leakage_per_core_w=0.012,
        # In-order Silvermont cores clock-gate aggressively while
        # stalled, so memory-bound work draws *less* power than
        # compute-bound work on this platform - the asymmetry the
        # paper calls out as surprising (0.7 W vs 1.5 W CPU-alone).
        memory_stall_power_factor=0.18,
    )
    gpu = GpuSpec(
        name="baytrail-gen7-class",
        num_eus=4,
        threads_per_eu=7,
        simd_width=16,
        min_freq_hz=ghz(0.311),
        turbo_freq_hz=ghz(0.667),
        effective_ipc_per_eu=9.0,
        mem_bw_bytes_per_s=gb_per_s(4.2),
        dyn_power_coeff_w=3.55,
        dyn_power_exponent=1.9,
        leakage_w=0.05,
        memory_stall_power_factor=0.55,
        kernel_launch_overhead_s=ms(0.12),
    )
    memory = MemorySpec(
        shared_bw_bytes_per_s=gb_per_s(5.8),
        traffic_power_w_per_bps=0.020 / gb_per_s(1.0),
        uncore_static_w=0.09,
        llc_contention_factor=0.35,
    )
    pcu = PcuSpec(
        sample_interval_s=ms(2.0),
        package_cap_w=3.2,
        cpu_coexec_freq_hz=ghz(1.46),
        cpu_gpu_activation_floor_hz=ghz(1.3),
        cpu_ramp_up_hz_per_s=ghz(0.5) / ms(1.0),
        cpu_recovery_ramp_hz_per_s=ghz(0.011) / ms(1.0),
        cpu_ramp_down_hz_per_s=ghz(0.5) / ms(1.0),
        gpu_ramp_hz_per_s=ghz(0.4) / ms(1.0),
        gpu_idle_release_s=ms(15.0),
        gpu_cold_threshold_s=0.4,
    )
    return PlatformSpec(
        name="baytrail-tablet",
        cpu=cpu,
        gpu=gpu,
        memory=memory,
        pcu=pcu,
        idle_power_w=0.22,
        energy_unit_j=1.0 / (1 << 5) * 1e-3,
        tick_s=ms(1.0),
        gpu_profile_size=448,
        tick_mode=_resolve_tick_mode(tick_mode),
    )
