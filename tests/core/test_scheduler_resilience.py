"""EAS resilience: retries, degradation, quarantine, sanity fallbacks.

Deterministic fault scenarios are built from two shims:

* :class:`_ScriptedGpu` - wraps a healthy processor and fails GPU-bearing
  phases according to an explicit script (no randomness at all);
* :class:`~repro.soc.faults.FaultySoC` with probability-1.0 classes for
  the always-faulty cases.
"""

import pytest

from repro.core.metrics import EDP
from repro.core.profiling import ProfileAggregate
from repro.core.scheduler import (
    FAULT_BUDGET,
    GPU_FAULTED_FALLBACK,
    MAX_PROFILE_ROUNDS,
    EnergyAwareScheduler,
    SchedulerConfig,
)
from repro.errors import GpuFaultError
from repro.runtime.kernel import Kernel
from repro.runtime.runtime import ConcordRuntime, ProfileObservation
from repro.soc.cost_model import KernelCostModel
from repro.soc.counters import CounterDelta
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor

N_ITEMS = 2_000_000.0


@pytest.fixture
def kernel():
    return Kernel(name="resil", cost=KernelCostModel(
        name="resil", instructions_per_item=500.0,
        loadstore_fraction=0.2, l3_miss_rate=0.0,
        cpu_simd_efficiency=0.5, gpu_simd_efficiency=0.5))


class _ScriptedGpu:
    """Fails GPU-bearing ``run_phase`` calls per an explicit script.

    ``script`` is a sequence of booleans consumed one per GPU-bearing
    phase: True -> raise :class:`GpuFaultError` (after paying the launch
    overhead, like the real substrate), False -> pass through.  When the
    script is exhausted every phase passes through.
    """

    def __init__(self, inner, script):
        self.inner = inner
        self._script = list(script)
        self.gpu_attempts = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def gpu_busy(self):
        return self.inner.gpu_busy

    def run_phase(self, request):
        gpu_present = (request.gpu_region is not None
                       and request.gpu_region.items_remaining > 1e-9)
        if gpu_present:
            self.gpu_attempts += 1
            if self._script and self._script.pop(0):
                self.inner.idle(self.inner.spec.gpu.kernel_launch_overhead_s)
                raise GpuFaultError("scripted launch failure")
        return self.inner.run_phase(request)


def run_once(processor, kernel, scheduler, n=N_ITEMS):
    return ConcordRuntime(processor).parallel_for(kernel, n, scheduler)


class TestRetry:
    def test_transient_fault_is_retried_and_absorbed(
            self, desktop, desktop_characterization, kernel):
        """One failed profiling chunk must not cost the invocation its
        GPU: the retry succeeds and scheduling proceeds normally."""
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        result = run_once(scripted, kernel, scheduler)
        assert result.alpha > 0.0
        assert GPU_FAULTED_FALLBACK not in result.notes
        assert not scheduler.degraded_kernels
        assert result.cpu_items + result.gpu_items == pytest.approx(
            N_ITEMS, rel=1e-6)

    def test_faulted_partitioned_run_retries_then_succeeds(
            self, desktop, desktop_characterization, kernel):
        """Profiling is clean; the partitioned launch fails once.  The
        remainder must still reach the GPU on the retry."""
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [])
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        run_once(scripted, kernel, scheduler)  # populate table G
        attempts_before = scripted.gpu_attempts
        scripted._script = [True]  # fail the next (partitioned) launch
        result = run_once(scripted, kernel, scheduler)
        assert result.alpha > 0.0
        assert GPU_FAULTED_FALLBACK not in result.notes
        assert scripted.gpu_attempts == attempts_before + 2  # fail + retry


class TestGracefulDegradation:
    def test_dead_gpu_degrades_and_completes(
            self, desktop, desktop_characterization, kernel):
        faulty = FaultySoC(IntegratedProcessor(desktop),
                           FaultConfig(seed=1, gpu_launch_failure_prob=1.0))
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        result = run_once(faulty, kernel, scheduler)
        assert GPU_FAULTED_FALLBACK in result.notes
        assert result.alpha == 0.0
        assert kernel.key in scheduler.degraded_kernels
        assert result.cpu_items == pytest.approx(N_ITEMS, rel=1e-6)
        # The budget bounds the time wasted on the lost cause.
        assert faulty.fault_log.count("gpu-launch-fail") == FAULT_BUDGET

    def test_degradation_is_sticky_across_invocations(
            self, desktop, desktop_characterization, kernel):
        faulty = FaultySoC(IntegratedProcessor(desktop),
                           FaultConfig(seed=1, gpu_launch_failure_prob=1.0))
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        runtime = ConcordRuntime(faulty)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        faults_after_first = faulty.fault_log.count()
        result = runtime.parallel_for(kernel, N_ITEMS, scheduler)
        assert GPU_FAULTED_FALLBACK in result.notes
        # No further GPU attempts: the degraded kernel goes straight to
        # the CPU without touching the device again.
        assert faulty.fault_log.count() == faults_after_first

    def test_leaky_bucket_never_degrades_mostly_healthy_gpu(
            self, desktop, desktop_characterization, kernel):
        """Faults interleaved with successes drain the bucket: a
        lifetime fault count far above the budget must not degrade."""
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        # Strict fail/pass alternation: every fault is retried at once
        # and the retry succeeds, so the bucket oscillates 1 -> 0.
        scripted = _ScriptedGpu(IntegratedProcessor(desktop),
                                [True, False] * 40)
        runtime = ConcordRuntime(scripted)
        for _ in range(6):
            runtime.parallel_for(kernel, N_ITEMS, scheduler)
        assert not scheduler.degraded_kernels
        assert scheduler.fault_totals[kernel.key] >= 2 * FAULT_BUDGET

    def test_zero_progress_observation_counts_as_fault(
            self, desktop, desktop_characterization, kernel):
        """A device that 'completes' but reports zero progress is as
        broken as one that raises; the budget must catch it too."""
        faulty = FaultySoC(IntegratedProcessor(desktop),
                           FaultConfig(seed=2, gpu_zero_progress_prob=1.0))
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        result = run_once(faulty, kernel, scheduler)
        assert GPU_FAULTED_FALLBACK in result.notes
        assert kernel.key in scheduler.degraded_kernels
        # The *observed* gpu_items were zeroed by the fault, so ground
        # truth must come from the wrapped simulator's counters.
        truth = faulty.inner.snapshot_counters()
        assert truth.cpu_items + truth.gpu_items == pytest.approx(
            N_ITEMS, rel=1e-6)


class TestQuarantine:
    def test_alpha_derived_under_faults_is_quarantined(
            self, desktop, desktop_characterization, kernel):
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        run_once(scripted, kernel, scheduler)
        entry = scheduler.table.lookup(kernel.key)
        assert entry is not None and entry.quarantined

    def test_quarantined_entry_not_reused_then_replaced_by_clean(
            self, desktop, desktop_characterization, kernel):
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        runtime = ConcordRuntime(scripted)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        # Second invocation re-profiles (the tainted alpha is not
        # trusted) and, being fault-free, replaces the entry outright.
        result = runtime.parallel_for(kernel, N_ITEMS, scheduler)
        assert result.profiled
        assert scheduler.decisions[-1].from_table is False
        entry = scheduler.table.lookup(kernel.key)
        assert entry is not None and not entry.quarantined
        # Third invocation reuses the now-clean entry.
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        assert scheduler.decisions[-1].from_table is True


class TestWatchdog:
    def test_profile_round_cap_bounds_the_loop(
            self, desktop, desktop_characterization, kernel):
        """With convergence disabled and profiling allowed to consume
        the whole invocation, only the watchdog ends the loop."""
        config = SchedulerConfig(profile_fraction=1.0,
                                 convergence_tolerance=-1.0)
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                         config=config)
        result = run_once(IntegratedProcessor(desktop), kernel, scheduler)
        assert result.profile_rounds == MAX_PROFILE_ROUNDS
        assert result.cpu_items + result.gpu_items == pytest.approx(
            N_ITEMS, rel=1e-6)


class TestGpuBusyDebounce:
    def test_transient_flap_does_not_forfeit_gpu(
            self, desktop, desktop_characterization, kernel):
        class _OneFlap:
            def __init__(self, inner):
                self.inner = inner
                self._flaps = 1

            def __getattr__(self, name):
                return getattr(self.inner, name)

            @property
            def gpu_busy(self):
                if self._flaps > 0:
                    self._flaps -= 1
                    return True
                return self.inner.gpu_busy

        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        result = run_once(_OneFlap(IntegratedProcessor(desktop)), kernel,
                          scheduler)
        assert "gpu-busy-fallback" not in result.notes
        assert result.alpha > 0.0

    def test_persistently_busy_gpu_falls_back_to_cpu(
            self, desktop, desktop_characterization, kernel):
        faulty = FaultySoC(IntegratedProcessor(desktop),
                           FaultConfig(seed=3, gpu_busy_flap_prob=1.0))
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        result = run_once(faulty, kernel, scheduler)
        assert "gpu-busy-fallback" in result.notes
        assert result.alpha == 0.0
        assert result.cpu_items == pytest.approx(N_ITEMS, rel=1e-6)


def _observation(cpu_items=0.0, gpu_items=0.0, cpu_time_s=1.0,
                 gpu_time_s=1.0):
    counters = CounterDelta(elapsed_s=cpu_time_s, instructions_retired=1e6,
                            loadstore_instructions=2e5, l3_misses=1e3,
                            cpu_items=cpu_items, gpu_items=gpu_items,
                            gpu_busy_time_s=gpu_time_s)
    return ProfileObservation(cpu_time_s=cpu_time_s, gpu_time_s=gpu_time_s,
                              cpu_items=cpu_items, gpu_items=gpu_items,
                              counters=counters, energy_j=1.0)


class TestDeriveAlphaSanity:
    """Unit-level checks of the measurement sanity guards."""

    @pytest.fixture
    def scheduler(self, desktop_characterization):
        return EnergyAwareScheduler(desktop_characterization, EDP)

    def test_no_progress_falls_back_cpu_only(self, scheduler):
        aggregate = ProfileAggregate()
        aggregate.add(_observation())  # zero items on both devices
        alpha, category, note = scheduler._derive_alpha(
            aggregate, 1e6, 2e6, "fresh-kernel")
        assert alpha == 0.0
        assert category is None
        assert note == "alpha-fallback-cpu-only"

    def test_no_progress_falls_back_to_last_good(self, scheduler):
        scheduler.table.record("seen-kernel", alpha=0.7, weight=1e6)
        aggregate = ProfileAggregate()
        aggregate.add(_observation())
        alpha, _, note = scheduler._derive_alpha(
            aggregate, 1e6, 2e6, "seen-kernel")
        assert alpha == 0.7
        assert note == "alpha-from-last-good"

    def test_no_progress_ignores_quarantined_last_good(self, scheduler):
        scheduler.table.record("tainted", alpha=0.9, weight=1e6,
                               quarantined=True)
        aggregate = ProfileAggregate()
        aggregate.add(_observation())
        alpha, _, note = scheduler._derive_alpha(aggregate, 1e6, 2e6, "tainted")
        assert alpha == 0.0
        assert note == "alpha-fallback-cpu-only"

    def test_absurd_throughput_treated_as_no_progress(self, scheduler):
        aggregate = ProfileAggregate()
        # 1e20 items in a second: sensor garbage, not a fast GPU.
        aggregate.add(_observation(gpu_items=1e20, cpu_items=0.0))
        alpha, _, note = scheduler._derive_alpha(aggregate, 1e6, 2e6, "absurd")
        assert alpha == 0.0
        assert note == "alpha-fallback-cpu-only"

    def test_nan_throughput_rejected(self, scheduler):
        aggregate = ProfileAggregate()
        aggregate.add(_observation(gpu_items=float("nan"), cpu_items=0.0))
        alpha, _, note = scheduler._derive_alpha(aggregate, 1e6, 2e6, "nan")
        assert alpha == 0.0
        assert note is not None

    def test_healthy_measurements_pass_untouched(self, scheduler):
        aggregate = ProfileAggregate()
        aggregate.add(_observation(cpu_items=5e5, gpu_items=8e5))
        alpha, category, note = scheduler._derive_alpha(
            aggregate, 1e6, 2e6, "healthy")
        assert note is None
        assert category is not None
        assert 0.0 <= alpha <= 1.0
