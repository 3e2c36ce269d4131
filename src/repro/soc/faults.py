"""Deterministic, seeded fault injection for the simulated SoC.

The paper's premise is that EAS must survive a hostile, opaque
platform: an unreadable PCU policy, a GPU that may be busy with other
work, and a 32-bit ``MSR_PKG_ENERGY_STATUS`` register that silently
wraps.  This module makes that hostility *injectable* so the runtime's
recovery paths can be exercised reproducibly:

* **MSR faults** - transient read glitches (bit flips on one read) and
  forced extra wraparounds (a persistent register offset jump of a full
  2**32 units plus change, corrupting any measurement window it lands
  inside - the multi-wrap hazard documented in :mod:`repro.soc.msr`);
* **counter faults** - dropouts (a phase's ``CounterDelta`` activity
  fields read zero) and multiplicative noise;
* **GPU faults** - launch failures and hangs (the phase raises
  :class:`~repro.errors.GpuFaultError` after burning real simulated
  time) and dud launches that complete but *report* zero GPU progress;
* **``gpu_busy`` flapping** - performance counter A26 transiently
  reads busy when the GPU is idle.

All faults are drawn from one seeded :class:`numpy.random.Generator`,
so a given (seed, schedule of software actions) produces a
byte-identical fault sequence - the chaos campaign asserts this.

:class:`FaultySoC` wraps an :class:`~repro.soc.simulator.IntegratedProcessor`
behind the same software-visible interface, so runtimes and schedulers
cannot tell (and must not care) whether they are talking to a healthy
or a faulty package.  Ground truth stays available to *harness* code
through :attr:`FaultySoC.inner` - measurement corruption must never be
able to corrupt an experiment's bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional

import numpy as np

from repro.errors import GpuFaultError, SimulationError
from repro.soc.counters import CounterSnapshot
from repro.soc.simulator import IntegratedProcessor, PhaseRequest, PhaseResult

_MSR_MASK = (1 << 32) - 1

#: Items-remaining below which a region counts as absent (mirrors the
#: simulator's completion epsilon).
_DONE_EPS = 1e-9


def fault_level_problem(level: float) -> Optional[str]:
    """Why ``level`` is not a fault level, or None when it is.

    A level scales every injection probability, so it must lie in
    [0, 1]; NaN, negative and above-one levels are rejected wherever a
    level enters (``RunSpec``, ``JobSpec``, the CLI) rather than running
    silently fault-free or failing inside a worker.
    """
    if not 0.0 <= level <= 1.0:
        return f"fault level {level} outside [0, 1]"
    return None


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for diagnostics and campaign reporting."""

    t: float
    kind: str
    detail: str = ""


@dataclass
class FaultConfig:
    """Per-fault-class injection probabilities (all seeded, all in [0, 1]).

    Probabilities are per *opportunity*: per MSR read, per counter-
    bearing phase, per GPU-bearing phase, per ``gpu_busy`` read.
    """

    seed: int = 0
    #: One MSR read returns a bit-flipped value (transient glitch).
    msr_glitch_prob: float = 0.0
    #: The register jumps by a full wrap (2**32 units) plus change; a
    #: measurement window spanning the jump silently mis-reports.
    msr_extra_wrap_prob: float = 0.0
    #: A phase's CounterDelta activity fields read zero.
    counter_dropout_prob: float = 0.0
    #: A phase's CounterDelta activity fields are perturbed.
    counter_noise_prob: float = 0.0
    #: Log-normal sigma of the multiplicative counter noise.
    counter_noise_sigma: float = 0.3
    #: A GPU-bearing phase fails at launch (GpuFaultError after the
    #: launch overhead has been paid).
    gpu_launch_failure_prob: float = 0.0
    #: A GPU-bearing phase hangs; the watchdog kills it after
    #: ``hang_cost_s`` (GpuFaultError, offloaded items stay pooled).
    gpu_hang_prob: float = 0.0
    #: A GPU-bearing phase completes but *reports* zero GPU progress.
    gpu_zero_progress_prob: float = 0.0
    #: One ``gpu_busy`` read spuriously returns True.
    gpu_busy_flap_prob: float = 0.0
    #: Simulated time a hung launch burns before the watchdog fires.
    hang_cost_s: float = 0.002
    #: Absolute simulated times (s) at which the register
    #: deterministically jumps by a full wrap plus change.  Unlike
    #: ``msr_extra_wrap_prob``'s per-read draws, these land *mid-phase*
    #: through the simulator's event-source plumbing - exercising the
    #: clock's guarantee that neither tick stretching nor fast-mode
    #: macro-stepping ever advances across a scheduled fault.
    scheduled_wrap_times: "tuple[float, ...]" = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_prob"):
                value = getattr(self, f.name)
                if not 0.0 <= value <= 1.0:
                    raise SimulationError(
                        f"fault probability {f.name}={value} outside [0, 1]")
        if self.counter_noise_sigma < 0:
            raise SimulationError("counter_noise_sigma must be non-negative")
        if self.hang_cost_s < 0:
            raise SimulationError("hang_cost_s must be non-negative")
        for t in self.scheduled_wrap_times:
            if not (math.isfinite(t) and t >= 0.0):
                raise SimulationError(
                    f"scheduled wrap time {t} must be finite and non-negative")
        self.scheduled_wrap_times = tuple(sorted(self.scheduled_wrap_times))

    @classmethod
    def from_level(cls, level: float, seed: int = 0) -> "FaultConfig":
        """Scale one scalar fault level into a full injection profile.

        ``level`` is the chaos campaign's sweep variable; the per-class
        probabilities below keep launch failures the dominant hazard
        (as on real parts, where a busy or wedged GPU is far more
        common than an SMI-corrupted MSR read).
        """
        problem = fault_level_problem(level)
        if problem is not None:
            raise SimulationError(problem)
        return cls(
            seed=seed,
            msr_glitch_prob=0.25 * level,
            msr_extra_wrap_prob=0.05 * level,
            counter_dropout_prob=0.25 * level,
            counter_noise_prob=0.5 * level,
            gpu_launch_failure_prob=0.5 * level,
            gpu_hang_prob=0.1 * level,
            gpu_zero_progress_prob=0.25 * level,
            gpu_busy_flap_prob=0.25 * level,
        )


@dataclass
class FaultLog:
    """Chronological record of every injected fault."""

    events: List[FaultEvent] = field(default_factory=list)

    def append(self, t: float, kind: str, detail: str = "") -> None:
        self.events.append(FaultEvent(t=t, kind=kind, detail=detail))

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def kinds(self) -> "dict[str, int]":
        out: "dict[str, int]" = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


class _ScheduledWrapSource:
    """Discrete event source firing deterministic MSR wrap jumps.

    Registered with the wrapped processor's clock, which never ticks -
    and never macro-steps - across ``next_event_time``; the register
    jump is therefore applied at exactly its scheduled instant in both
    clock modes, however the surrounding span was fast-forwarded.
    """

    def __init__(self, shim: "FaultySoC", times: "tuple[float, ...]") -> None:
        self._shim = shim
        self._times = times
        self._idx = 0

    def next_event_time(self, now: float) -> float:
        if self._idx >= len(self._times):
            return float("inf")
        return self._times[self._idx]

    def fire(self, now: float) -> None:
        # Full wrap plus a deterministic per-event remainder, so
        # successive jumps are distinguishable in the log and in tests.
        jump = (1 << 32) + 4096 * (self._idx + 1)
        self._shim._msr_offset_units += jump
        self._shim.fault_log.append(
            now, "msr-scheduled-wrap",
            f"scheduled at t={self._times[self._idx]:.6f}s, "
            f"offset jumped by {jump} units")
        self._idx += 1


class FaultySoC:
    """An :class:`IntegratedProcessor` behind a fault-injecting shim.

    Implements the same software-visible interface (``spec``, ``now``,
    ``read_energy_msr``, ``energy_joules_between``,
    ``snapshot_counters``, ``gpu_busy``, ``set_power_hint``, ``idle``,
    ``run_phase``), delegating to the wrapped processor and injecting
    seeded faults on the way through.  Injected GPU failures *cost
    simulated time* (launch overhead, watchdog timeouts) before they
    surface - resilience is not free, and the chaos campaign's EDP
    bounds account for that.
    """

    def __init__(self, inner: IntegratedProcessor,
                 config: Optional[FaultConfig] = None) -> None:
        self.inner = inner
        self.config = config or FaultConfig()
        self.fault_log = FaultLog()
        self._rng = np.random.default_rng(0xFA17 + 31 * self.config.seed)
        self._msr_offset_units = 0
        if self.config.scheduled_wrap_times:
            inner.add_event_source(
                _ScheduledWrapSource(self, self.config.scheduled_wrap_times))

    # -- passthrough state -------------------------------------------------------

    @property
    def spec(self):
        return self.inner.spec

    @property
    def now(self) -> float:
        return self.inner.now

    @property
    def pcu(self):
        return self.inner.pcu

    @property
    def msr(self):
        return self.inner.msr

    @property
    def counters(self):
        return self.inner.counters

    @property
    def trace(self):
        return self.inner.trace

    # -- fault plumbing -----------------------------------------------------------

    def _trip(self, probability: float) -> bool:
        """One seeded Bernoulli draw (no draw when the class is off)."""
        if probability <= 0.0:
            return False
        return float(self._rng.random()) < probability

    def _log(self, kind: str, detail: str = "") -> None:
        self.fault_log.append(self.inner.now, kind, detail)

    # -- software-visible interface ----------------------------------------------

    def read_energy_msr(self) -> int:
        cfg = self.config
        if self._trip(cfg.msr_extra_wrap_prob):
            jump = (1 << 32) + int(self._rng.integers(1, 1 << 20))
            self._msr_offset_units += jump
            self._log("msr-extra-wrap", f"offset jumped by {jump} units")
        value = (self.inner.read_energy_msr() + self._msr_offset_units) & _MSR_MASK
        if self._trip(cfg.msr_glitch_prob):
            flip = int(self._rng.integers(1, 1 << 16)) << int(self._rng.integers(0, 17))
            value = (value ^ flip) & _MSR_MASK
            self._log("msr-glitch", f"read xor {flip:#x}")
        return value

    def energy_joules_between(self, before: int, after: int) -> float:
        return self.inner.energy_joules_between(before, after)

    def snapshot_counters(self) -> CounterSnapshot:
        return self.inner.snapshot_counters()

    @property
    def gpu_busy(self) -> bool:
        if self._trip(self.config.gpu_busy_flap_prob):
            self._log("gpu-busy-flap")
            return True
        return self.inner.gpu_busy

    def set_power_hint(self, hint: float) -> None:
        self.inner.set_power_hint(hint)

    def idle(self, duration_s: float) -> None:
        self.inner.idle(duration_s)

    def run_phase(self, request: PhaseRequest) -> PhaseResult:
        cfg = self.config
        gpu_present = (request.gpu_region is not None
                       and request.gpu_region.items_remaining > _DONE_EPS)
        if gpu_present:
            overhead = self.spec.gpu.kernel_launch_overhead_s
            if self._trip(cfg.gpu_launch_failure_prob):
                # The launch attempt costs its overhead before failing;
                # no work was dispatched, so the items stay pooled.
                self.inner.idle(overhead)
                self._log("gpu-launch-fail")
                raise GpuFaultError("GPU kernel launch failed")
            if self._trip(cfg.gpu_hang_prob):
                self.inner.idle(overhead + cfg.hang_cost_s)
                self._log("gpu-hang", f"watchdog after {cfg.hang_cost_s}s")
                raise GpuFaultError(
                    f"GPU kernel hung; watchdog fired after {cfg.hang_cost_s}s")

        result = self.inner.run_phase(request)
        return self._corrupt_observations(result, gpu_present)

    # -- observation corruption ----------------------------------------------------

    def _corrupt_observations(self, result: PhaseResult,
                              gpu_present: bool) -> PhaseResult:
        """Perturb what software *observes* about a completed phase.

        The physical simulation already happened - work was retired and
        energy deposited - so only the returned observation is touched.
        """
        cfg = self.config
        if gpu_present and self._trip(cfg.gpu_zero_progress_prob):
            self._log("gpu-zero-progress")
            result = replace(
                result, gpu_items=0.0,
                counters=replace(result.counters, gpu_items=0.0))
        if self._trip(cfg.counter_dropout_prob):
            self._log("counter-dropout")
            result = replace(result, counters=replace(
                result.counters,
                instructions_retired=0.0,
                loadstore_instructions=0.0,
                l3_misses=0.0))
        elif self._trip(cfg.counter_noise_prob):
            factors = np.exp(cfg.counter_noise_sigma
                             * self._rng.standard_normal(3))
            self._log("counter-noise",
                      f"factors {factors[0]:.3f}/{factors[1]:.3f}/{factors[2]:.3f}")
            delta = result.counters
            result = replace(result, counters=replace(
                delta,
                instructions_retired=delta.instructions_retired * factors[0],
                loadstore_instructions=delta.loadstore_instructions * factors[1],
                l3_misses=delta.l3_misses * factors[2]))
        return result
