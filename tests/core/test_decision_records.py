"""Every EAS exit path emits a structured :class:`DecisionRecord`.

One test per row of the exit-path table in :mod:`repro.obs.records`,
plus the audit-quality properties the chaos campaign relies on (fault
events named, fallback reasons explicit) and the semantic-equivalence
guarantee of the disabled observer.
"""

import pytest

from repro.core.baselines import CpuOnlyScheduler
from repro.core.metrics import EDP
from repro.core.scheduler import FAULT_BUDGET, EnergyAwareScheduler
from repro.errors import GpuFaultError
from repro.obs import ALL_EXIT_PATHS, Observer
from repro.obs.records import (
    EXIT_DEADLINE_INFEASIBLE,
    EXIT_DEGRADED,
    EXIT_FAULT_DEGRADED,
    EXIT_GPU_BUSY,
    EXIT_PROFILED,
    EXIT_SMALL_N,
    EXIT_TABLE_HIT,
)
from repro.runtime.kernel import Kernel
from repro.runtime.runtime import ConcordRuntime
from repro.soc.cost_model import KernelCostModel
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor

N_ITEMS = 2_000_000.0


def make_kernel(name="audit"):
    return Kernel(name=name, cost=KernelCostModel(
        name=name, instructions_per_item=500.0,
        loadstore_fraction=0.2, l3_miss_rate=0.0,
        cpu_simd_efficiency=0.5, gpu_simd_efficiency=0.5))


class _ScriptedGpu:
    """Fail GPU-bearing phases per an explicit boolean script."""

    def __init__(self, inner, script):
        self.inner = inner
        self._script = list(script)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def gpu_busy(self):
        return self.inner.gpu_busy

    def run_phase(self, request):
        gpu_present = (request.gpu_region is not None
                       and request.gpu_region.items_remaining > 1e-9)
        if gpu_present and self._script and self._script.pop(0):
            self.inner.idle(self.inner.spec.gpu.kernel_launch_overhead_s)
            raise GpuFaultError("scripted launch failure")
        return self.inner.run_phase(request)


@pytest.fixture
def eas(desktop_characterization):
    return EnergyAwareScheduler(desktop_characterization, EDP)


def run_once(processor, kernel, scheduler, n=N_ITEMS):
    return ConcordRuntime(processor).parallel_for(kernel, n, scheduler)


class TestExitPaths:
    def test_profiled(self, desktop, eas):
        kernel = make_kernel()
        run_once(IntegratedProcessor(desktop), kernel, eas)
        [d] = eas.decisions
        assert d.exit_path == EXIT_PROFILED
        assert d.kernel == kernel.key
        assert d.n_items == N_ITEMS
        assert d.profile_rounds >= 1
        assert d.category_code is not None
        assert d.cpu_throughput > 0 and d.gpu_throughput > 0
        assert d.decision_overhead_s > 0
        assert not d.from_table and not d.table_hit
        assert d.fallback_reason is None and d.fault_events == []

    def test_table_hit(self, desktop, eas):
        kernel = make_kernel()
        processor = IntegratedProcessor(desktop)
        run_once(processor, kernel, eas)
        run_once(processor, kernel, eas)
        d = eas.decisions[-1]
        assert d.exit_path == EXIT_TABLE_HIT
        assert d.from_table and d.table_hit
        assert d.alpha == eas.decisions[0].alpha
        assert d.profile_rounds == 0

    def test_small_n(self, desktop, eas):
        kernel = make_kernel()
        n = float(desktop.gpu_profile_size) / 2
        run_once(IntegratedProcessor(desktop), kernel, eas, n=n)
        [d] = eas.decisions
        assert d.exit_path == EXIT_SMALL_N
        assert d.alpha == 0.0
        assert "GPU_PROFILE_SIZE" in d.fallback_reason

    def test_gpu_busy(self, desktop, eas):
        kernel = make_kernel()
        processor = IntegratedProcessor(desktop)
        processor.counters.account_gpu_busy(True, 0.0)
        run_once(processor, kernel, eas)
        [d] = eas.decisions
        assert d.exit_path == EXIT_GPU_BUSY
        assert d.alpha == 0.0
        assert "busy" in d.fallback_reason

    def test_fault_degraded_then_sticky_degraded(
            self, desktop, desktop_characterization):
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        kernel = make_kernel()
        faulty = FaultySoC(IntegratedProcessor(desktop),
                           FaultConfig(seed=1, gpu_launch_failure_prob=1.0))
        runtime = ConcordRuntime(faulty)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        first = scheduler.decisions[-1]
        assert first.exit_path == EXIT_FAULT_DEGRADED
        assert f"fault budget ({FAULT_BUDGET})" in first.fallback_reason
        # Named, ordered fault events from *this* invocation.
        assert len(first.fault_events) >= FAULT_BUDGET
        assert all("GPU" in e or "gpu" in e for e in first.fault_events)
        assert first.faults_observed >= FAULT_BUDGET

        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        second = scheduler.decisions[-1]
        assert second.exit_path == EXIT_DEGRADED
        assert f"fault budget ({FAULT_BUDGET})" in second.fallback_reason
        assert "sticky" in second.fallback_reason
        # The sticky record still names the original fault events.
        assert second.fault_events == first.fault_events

    def test_profiled_with_partitioned_fault_names_the_fallback(
            self, desktop, desktop_characterization):
        """Profiling succeeds, every partitioned retry faults: the
        exit is still 'profiled' but the record explains the CPU
        drain."""
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        kernel = make_kernel()
        # Pass profiling chunks through, fail everything afterwards.
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [])
        runtime = ConcordRuntime(scripted)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)  # warm table G
        scripted._script = [True] * 50
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        d = scheduler.decisions[-1]
        assert d.exit_path == EXIT_TABLE_HIT
        assert d.alpha == 0.0
        assert d.fallback_reason is not None
        assert "CPU" in d.fallback_reason
        # The partitioned-phase faults, named and in order: the launch
        # is retried until the fault budget is gone.
        partitioned = [e for e in d.fault_events
                       if e.startswith("partitioned:")]
        assert len(partitioned) == FAULT_BUDGET

    def test_quarantined_alpha_is_flagged(
            self, desktop, desktop_characterization):
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        kernel = make_kernel()
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        run_once(scripted, kernel, scheduler)
        [d] = scheduler.decisions
        assert d.exit_path == EXIT_PROFILED
        assert d.quarantined
        assert d.fault_events

    def test_every_exit_path_is_reachable(self):
        """The table in repro.obs.records is the closed set the
        decision-record tests walk: no path untested, no test outside
        the set (deadline-infeasible is exercised in
        tests/core/test_constrained_scheduling.py)."""
        tested = {EXIT_PROFILED, EXIT_TABLE_HIT, EXIT_SMALL_N,
                  EXIT_GPU_BUSY, EXIT_DEGRADED, EXIT_FAULT_DEGRADED,
                  EXIT_DEADLINE_INFEASIBLE}
        assert tested == set(ALL_EXIT_PATHS)
        assert len(ALL_EXIT_PATHS) == 7


class TestTableAuditSemantics:
    """``table_hit`` is raw presence; ``table_usable`` is eligibility.

    Regression: the two used to be conflated in one flag, so hit-rate
    metrics counted quarantined/provisional entries the scheduler
    refused to reuse.
    """

    def test_usable_reuse_sets_both_flags(self, desktop, eas):
        kernel = make_kernel()
        processor = IntegratedProcessor(desktop)
        run_once(processor, kernel, eas)
        run_once(processor, kernel, eas)
        d = eas.decisions[-1]
        assert d.exit_path == EXIT_TABLE_HIT
        assert d.table_hit and d.table_usable

    def test_quarantined_entry_is_hit_but_not_usable(
            self, desktop, desktop_characterization):
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        kernel = make_kernel()
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        runtime = ConcordRuntime(scripted)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        assert scheduler.decisions[-1].quarantined
        runtime.parallel_for(kernel, N_ITEMS, scheduler)
        d = scheduler.decisions[-1]
        assert d.exit_path == EXIT_PROFILED
        assert d.table_hit and not d.table_usable

    def test_provisional_entry_is_hit_but_not_usable(self, desktop, eas):
        kernel = make_kernel()
        processor = IntegratedProcessor(desktop)
        small = float(desktop.gpu_profile_size) / 2
        run_once(processor, kernel, eas, n=small)
        assert eas.decisions[-1].exit_path == EXIT_SMALL_N
        run_once(processor, kernel, eas)
        d = eas.decisions[-1]
        assert d.exit_path == EXIT_PROFILED
        assert d.table_hit and not d.table_usable

    def test_metrics_count_hits_and_usable_separately(
            self, desktop, desktop_characterization):
        observer = Observer()
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                         observer=observer)
        kernel = make_kernel()
        scripted = _ScriptedGpu(IntegratedProcessor(desktop), [True])
        runtime = ConcordRuntime(scripted)
        runtime.parallel_for(kernel, N_ITEMS, scheduler)  # quarantined
        runtime.parallel_for(kernel, N_ITEMS, scheduler)  # hit, unusable
        runtime.parallel_for(kernel, N_ITEMS, scheduler)  # hit, usable
        counters = observer.metrics.snapshot()["counters"]
        assert counters["eas.table_hits"] == 2
        assert counters["eas.table_usable"] == 1


class _OneFlap:
    """Reports the GPU busy on the first ``gpu_busy`` read only."""

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


class TestDebounceIdleAccounting:
    """The ``gpu_busy`` debounce re-reads at once: it idles no
    simulated time, so no decision has idle time to account for."""

    def test_debounce_idle_charged_to_gpu_busy_decision(
            self, desktop, desktop_characterization):
        """A GPU still busy at the re-read: the gpu_busy decision
        carries no idle charge and ends at the instant a plain
        CPU-only run of the same kernel does."""
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP)
        busy = IntegratedProcessor(desktop)
        busy.counters.account_gpu_busy(True, 0.0)
        run_once(busy, make_kernel(), scheduler)
        [d] = scheduler.decisions
        assert d.exit_path == EXIT_GPU_BUSY
        assert "debounce_idle_s" not in d.to_dict()
        cpu_only = IntegratedProcessor(desktop)
        run_once(cpu_only, make_kernel(), CpuOnlyScheduler())
        assert d.sim_time_s == busy.now == cpu_only.now

    def test_charge_resets_between_invocations(
            self, desktop, desktop_characterization):
        """The re-read is per invocation: a flap on each of two
        invocations is filtered both times."""
        observer = Observer()
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                         observer=observer)
        flapping = _OneFlap(IntegratedProcessor(desktop))
        kernel = make_kernel()
        run_once(flapping, kernel, scheduler)
        flapping._flaps = 1
        run_once(flapping, kernel, scheduler)
        first, second = scheduler.decisions
        assert first.exit_path == EXIT_PROFILED
        assert second.exit_path == EXIT_TABLE_HIT
        counters = observer.metrics.snapshot()["counters"]
        assert counters["eas.gpu_busy_flaps_filtered"] == 2

    def test_clean_read_charges_nothing(self, desktop,
                                        desktop_characterization):
        observer = Observer()
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                         observer=observer)
        run_once(IntegratedProcessor(desktop), make_kernel(), scheduler)
        [d] = scheduler.decisions
        assert d.exit_path == EXIT_PROFILED
        counters = observer.metrics.snapshot()["counters"]
        assert "eas.gpu_busy_flaps_filtered" not in counters

    def test_flap_filtered_by_one_reread(
            self, desktop, desktop_characterization):
        """One immediate re-read filters a transient flap: the record
        is the clean run's, at the same simulated instant - the
        debounce burns no simulated time."""
        def run(processor, observer=None):
            scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                             observer=observer)
            ConcordRuntime(processor).parallel_for(make_kernel(), N_ITEMS,
                                                   scheduler)
            [d] = scheduler.decisions
            return d

        clean = run(IntegratedProcessor(desktop))
        observer = Observer()
        flapped = run(_OneFlap(IntegratedProcessor(desktop)), observer)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["eas.gpu_busy_flaps_filtered"] == 1
        assert flapped.exit_path == clean.exit_path == EXIT_PROFILED
        assert flapped.alpha == clean.alpha
        assert flapped.sim_time_s == clean.sim_time_s


class TestRecordQuality:
    def test_records_are_json_ready_and_explainable(self, desktop, eas):
        import json

        kernel = make_kernel()
        processor = IntegratedProcessor(desktop)
        run_once(processor, kernel, eas)
        run_once(processor, kernel, eas, n=100.0)
        for d in eas.decisions:
            payload = json.loads(json.dumps(d.to_dict()))
            assert payload["exit_path"] == d.exit_path
            line = d.explain()
            assert kernel.key in line and d.exit_path in line

    def test_decision_overhead_is_microseconds(self, desktop, eas):
        run_once(IntegratedProcessor(desktop), make_kernel(), eas)
        [d] = eas.decisions
        assert 0.0 < d.decision_overhead_s < 0.01

    def test_observer_receives_the_same_records(
            self, desktop, desktop_characterization):
        observer = Observer()
        scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                         observer=observer)
        processor = IntegratedProcessor(desktop, observer=observer)
        ConcordRuntime(processor, observer=observer).parallel_for(
            make_kernel(), N_ITEMS, scheduler)
        assert observer.decisions == scheduler.decisions
        # Stamped on the simulated timeline by the bound clock.
        assert all(d.sim_time_s is not None for d in observer.decisions)


class TestDisabledObserverEquivalence:
    def test_observed_run_schedules_identically(
            self, desktop, desktop_characterization):
        """Observability must never change scheduling: alpha, rounds,
        items, simulated time and energy all match bit-for-bit between
        an observed run and a bare one."""
        def run(observer):
            scheduler = EnergyAwareScheduler(desktop_characterization, EDP,
                                             observer=observer)
            processor = IntegratedProcessor(desktop, observer=observer)
            runtime = ConcordRuntime(processor, observer=observer)
            kernel = make_kernel()
            results = [runtime.parallel_for(kernel, N_ITEMS, scheduler),
                       runtime.parallel_for(kernel, N_ITEMS / 2, scheduler)]
            return results, processor.now, processor.msr.lifetime_joules, \
                scheduler.decisions

        bare_results, bare_t, bare_e, bare_decisions = run(None)
        obs_results, obs_t, obs_e, obs_decisions = run(Observer())

        assert obs_t == bare_t
        assert obs_e == bare_e
        for bare, observed in zip(bare_results, obs_results):
            assert observed.alpha == bare.alpha
            assert observed.profile_rounds == bare.profile_rounds
            assert observed.cpu_items == bare.cpu_items
            assert observed.gpu_items == bare.gpu_items
        for bare, observed in zip(bare_decisions, obs_decisions):
            assert observed.exit_path == bare.exit_path
            assert observed.alpha == bare.alpha
