"""The EAS algorithm (Fig. 7) end to end on the simulated SoC."""

import pytest

from repro.core.metrics import EDP, ENERGY
from repro.core.scheduler import EnergyAwareScheduler, SchedulerConfig
from repro.runtime.kernel import Kernel
from repro.runtime.runtime import ConcordRuntime
from repro.soc.cost_model import KernelCostModel
from repro.soc.simulator import IntegratedProcessor


def compute_kernel(name="eas-compute"):
    return Kernel(name=name, cost=KernelCostModel(
        name=name, instructions_per_item=800.0,
        loadstore_fraction=0.2, l3_miss_rate=0.0,
        cpu_simd_efficiency=0.9, gpu_simd_efficiency=0.9))


def memory_kernel(name="eas-memory"):
    return Kernel(name=name, cost=KernelCostModel(
        name=name, instructions_per_item=200.0,
        loadstore_fraction=0.25, l3_miss_rate=0.4,
        cpu_simd_efficiency=0.03, gpu_simd_efficiency=0.05))


def cpu_biased_kernel(name="eas-cpu-biased"):
    return Kernel(name=name, cost=KernelCostModel(
        name=name, instructions_per_item=800.0,
        loadstore_fraction=0.2, l3_miss_rate=0.0,
        cpu_simd_efficiency=1.0, gpu_simd_efficiency=0.01))


@pytest.fixture
def eas(desktop_characterization):
    return EnergyAwareScheduler(desktop_characterization, EDP)


@pytest.fixture
def runtime(desktop):
    return ConcordRuntime(IntegratedProcessor(desktop))


class TestFirstInvocation:
    def test_profiles_then_partitions(self, runtime, eas):
        result = runtime.parallel_for(compute_kernel(), 2_000_000.0, eas)
        assert result.profiled
        assert result.profile_rounds >= 1
        assert 0.0 <= result.alpha <= 1.0
        decision = eas.decisions[0]
        assert decision.category_code is not None
        assert decision.cpu_throughput > 0
        assert decision.gpu_throughput > 0

    def test_small_n_runs_cpu_only(self, runtime, eas, desktop):
        n = desktop.gpu_profile_size / 2
        result = runtime.parallel_for(compute_kernel(), float(n), eas)
        assert not result.profiled
        assert result.alpha == 0.0
        assert result.gpu_items == 0.0
        entry = eas.table.lookup("eas-compute")
        assert entry.provisional

    def test_classifies_memory_kernel_as_memory(self, runtime, eas):
        runtime.parallel_for(memory_kernel(), 2_000_000.0, eas)
        assert eas.decisions[0].category_code.startswith("M")

    def test_classifies_compute_kernel_as_compute(self, runtime, eas):
        runtime.parallel_for(compute_kernel(), 2_000_000.0, eas)
        assert eas.decisions[0].category_code.startswith("C")

    def test_cpu_biased_kernel_stays_on_cpu(self, runtime, eas):
        """The paper's FD behaviour: a GPU-hostile kernel gets alpha
        near zero."""
        result = runtime.parallel_for(cpu_biased_kernel(), 2_000_000.0, eas)
        assert result.alpha <= 0.1


class TestTableReuse:
    def test_second_invocation_reuses_alpha(self, runtime, eas):
        kernel = compute_kernel()
        first = runtime.parallel_for(kernel, 2_000_000.0, eas)
        second = runtime.parallel_for(kernel, 2_000_000.0, eas)
        assert first.profiled
        assert not second.profiled
        assert second.alpha == pytest.approx(first.alpha)

    def test_provisional_superseded_by_large_invocation(self, runtime, eas,
                                                        desktop):
        kernel = compute_kernel()
        small = runtime.parallel_for(kernel, 100.0, eas)
        assert small.alpha == 0.0
        big = runtime.parallel_for(kernel, 2_000_000.0, eas)
        assert big.profiled
        assert not eas.table.lookup(kernel.key).provisional

    def test_outgrown_entry_triggers_reprofiling(self, runtime,
                                                 desktop_characterization):
        """A launch more than REPROFILE_GROWTH times the one its alpha
        was derived from profiles again."""
        eas = EnergyAwareScheduler(desktop_characterization, EDP)
        kernel = compute_kernel()
        runtime.parallel_for(kernel, 5_000.0, eas)
        grown = runtime.parallel_for(kernel, 1_000_000.0, eas)
        assert grown.profiled

    def test_always_reprofile_config(self, runtime, desktop_characterization):
        eas = EnergyAwareScheduler(desktop_characterization, EDP,
                                   config=SchedulerConfig(always_reprofile=True))
        kernel = compute_kernel()
        runtime.parallel_for(kernel, 2_000_000.0, eas)
        second = runtime.parallel_for(kernel, 2_000_000.0, eas)
        assert second.profiled

    def test_distinct_kernels_have_distinct_entries(self, runtime, eas):
        runtime.parallel_for(compute_kernel("k1"), 2_000_000.0, eas)
        runtime.parallel_for(memory_kernel("k2"), 2_000_000.0, eas)
        assert len(eas.table) == 2


class TestGpuBusyFallback:
    def test_busy_gpu_forces_cpu_execution(self, runtime, eas):
        """Section 5: if GPU counter A26 reports busy, run on the CPU."""
        runtime.processor.counters.account_gpu_busy(True, 0.0)
        result = runtime.parallel_for(compute_kernel(), 2_000_000.0, eas)
        assert result.alpha == 0.0
        assert result.gpu_items == 0.0
        assert "gpu-busy-fallback" in result.notes


class TestProfilingBehaviour:
    def test_profiling_respects_half_fraction(self, runtime, eas):
        """Profiling consumes at most half of the invocation."""
        result = runtime.parallel_for(compute_kernel(), 4_000_000.0, eas)
        profiled_items = sum(
            obs for obs in [result.cpu_items + result.gpu_items])
        assert profiled_items == pytest.approx(4_000_000.0, rel=1e-6)

    def test_decision_overhead_is_microseconds(self, runtime, eas):
        """The paper reports 1-2 us scheduling overhead; ours must stay
        within the same order of magnitude (sub-millisecond)."""
        runtime.parallel_for(compute_kernel(), 4_000_000.0, eas)
        decision = eas.decisions[0]
        assert decision.decision_overhead_s < 5e-3

    def test_metric_changes_alpha(self, desktop, desktop_characterization):
        """ENERGY pulls alpha at or above the EDP choice for a
        GPU-cheap kernel (power falls monotonically with alpha on the
        desktop)."""
        alphas = {}
        for metric in (ENERGY, EDP):
            runtime = ConcordRuntime(IntegratedProcessor(desktop))
            eas = EnergyAwareScheduler(desktop_characterization, metric)
            result = runtime.parallel_for(memory_kernel(), 20_000_000.0, eas)
            alphas[metric.name] = result.alpha
        assert alphas["energy"] >= alphas["edp"] - 0.1001
