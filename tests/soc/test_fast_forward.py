"""Fast clock mode: equivalence, contracts, and bulk accounting.

The fast-forward engine's whole claim is that it changes *when work is
computed*, not *what is computed*: end-to-end time, energy, and item
counts must agree with the exact tick loop to better than 1e-6
relative on every tier-1 scenario, and the scheduler must take the
same decisions.  This file pins that claim, plus the supporting
contracts it leans on: the PCU fast-forward interface, multi-wrap MSR
bulk deposits, and the bit-equality of the vectorized model twins.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.metrics import ENERGY
from repro.core.scheduler import EnergyAwareScheduler
from repro.errors import SimulationError
from repro.harness.experiment import run_application
from repro.obs.observer import Observer
from repro.soc.device import compute_rates, compute_rates_batch
from repro.soc.faults import FaultConfig
from repro.soc.msr import EnergyMsr
from repro.soc.pcu import Pcu
from repro.soc.power import package_power, package_power_batch
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import baytrail_tablet, haswell_desktop
from repro.soc.work import CostProfile, WorkRegion, split_for_offload
from repro.workloads.registry import suite_workloads

#: The tentpole's divergence budget (relative, on time/energy/items).
REL_TOL = 1e-6


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _run(spec, workload, characterization, tablet, fault_level):
    scheduler = EnergyAwareScheduler(characterization, ENERGY)
    observer = Observer()
    fault_config = (FaultConfig.from_level(fault_level, seed=7)
                    if fault_level > 0 else None)
    run = run_application(spec, workload, scheduler, "EAS", tablet=tablet,
                          observer=observer, fault_config=fault_config)
    return run, observer


class TestFastExactEquivalence:
    """Every suite workload, both platforms, fault levels 0.0 / 0.3."""

    @pytest.mark.parametrize("fault_level", [0.0, 0.3])
    def test_desktop_suite(self, desktop, desktop_characterization,
                           fault_level):
        self._check_suite(desktop, desktop_characterization,
                          tablet=False, fault_level=fault_level)

    @pytest.mark.parametrize("fault_level", [0.0, 0.3])
    def test_tablet_suite(self, tablet, tablet_characterization,
                          fault_level):
        self._check_suite(tablet, tablet_characterization,
                          tablet=True, fault_level=fault_level)

    def _check_suite(self, base_spec, characterization, tablet, fault_level):
        for workload in suite_workloads(tablet=tablet):
            exact_run, exact_obs = _run(
                replace(base_spec, tick_mode="exact"), workload,
                characterization, tablet, fault_level)
            fast_run, fast_obs = _run(
                replace(base_spec, tick_mode="fast"), workload,
                characterization, tablet, fault_level)

            label = f"{workload.abbrev} fault={fault_level}"
            assert _rel(exact_run.time_s, fast_run.time_s) < REL_TOL, label
            # Application energy goes through the quantized 32-bit MSR
            # read protocol: allow the two quantization boundaries the
            # raw reads may straddle on top of the relative budget.
            unit_slack = 2.0 * base_spec.energy_unit_j
            assert (abs(exact_run.energy_j - fast_run.energy_j)
                    <= REL_TOL * max(abs(exact_run.energy_j), 1.0)
                    + unit_slack), label

            assert len(exact_run.invocations) == len(fast_run.invocations), label
            for ex, fa in zip(exact_run.invocations, fast_run.invocations):
                # Each phase end carries +-_MIN_DT (1e-7 s) of clock
                # quantization, which dominates relative error on
                # sub-millisecond micro-invocations; allow a few
                # minimum ticks of absolute slack on top of the
                # relative budget.
                assert (abs(ex.duration_s - fa.duration_s)
                        <= REL_TOL * max(ex.duration_s, fa.duration_s)
                        + 5e-7), label
                assert _rel(ex.cpu_items, fa.cpu_items) < REL_TOL, label
                assert _rel(ex.gpu_items, fa.gpu_items) < REL_TOL, label

            # Same scheduling story, decision for decision.
            exact_paths = [d.exit_path for d in exact_obs.decisions]
            fast_paths = [d.exit_path for d in fast_obs.decisions]
            assert exact_paths == fast_paths, label
            for ex, fa in zip(exact_obs.decisions, fast_obs.decisions):
                assert abs(ex.alpha - fa.alpha) < 1e-6, label


class TestFastModePhases:
    """Direct phase-level checks of the macro-step machinery."""

    def _specs(self):
        base = haswell_desktop()
        return (replace(base, tick_mode="exact"),
                replace(base, tick_mode="fast"))

    def test_fast_mode_takes_macro_steps(self, compute_cost):
        _, fast = self._specs()
        soc = IntegratedProcessor(fast)
        region = WorkRegion.for_span(CostProfile(compute_cost), 1e6, 0.0, 1e6)
        soc.run_phase(PhaseRequest(cost=compute_cost, cpu_region=region,
                                   gpu_region=None))
        assert soc._last_phase_macro_steps > 0
        assert soc._last_phase_ticks < 100

    def test_phase_results_match_exact(self, memory_cost):
        exact_spec, fast_spec = self._specs()
        results = []
        for spec in (exact_spec, fast_spec):
            soc = IntegratedProcessor(spec)
            gpu, cpu = split_for_offload(CostProfile(memory_cost),
                                         2e6, 0.0, 2e6, 0.5)
            res = soc.run_phase(PhaseRequest(cost=memory_cost,
                                             cpu_region=cpu, gpu_region=gpu))
            results.append(res)
        exact_res, fast_res = results
        assert _rel(exact_res.duration_s, fast_res.duration_s) < REL_TOL
        assert _rel(exact_res.energy_j, fast_res.energy_j) < REL_TOL
        assert _rel(exact_res.cpu_items, fast_res.cpu_items) < REL_TOL
        assert _rel(exact_res.gpu_items, fast_res.gpu_items) < REL_TOL

    def test_fast_idle_macro_steps_instead_of_ticking(self):
        _, fast = self._specs()
        soc = IntegratedProcessor(fast)
        # Let any cold-start transient die down first.
        soc.idle(0.01)
        scalar_steps = []
        original_step = soc.pcu.step

        def counting_step(*args, **kwargs):
            scalar_steps.append(1)
            return original_step(*args, **kwargs)

        soc.pcu.step = counting_step
        soc.idle(5.0)
        # A settled idle wait advances in O(1) jumps, not O(duration)
        # scalar PCU steps (5 s would be 10,000 ticks at 0.5 ms).
        assert len(scalar_steps) < 10
        assert soc.now == pytest.approx(5.01)

    def test_idle_energy_matches_exact(self):
        exact_spec, fast_spec = self._specs()
        energies = []
        for spec in (exact_spec, fast_spec):
            soc = IntegratedProcessor(spec)
            soc.idle(2.5)
            energies.append(soc.msr.lifetime_joules)
        assert _rel(energies[0], energies[1]) < REL_TOL

    def test_fast_trace_preserves_energy(self, compute_cost):
        _, fast = self._specs()
        soc = IntegratedProcessor(fast, trace_enabled=True)
        region = WorkRegion.for_span(CostProfile(compute_cost), 1e6, 0.0, 1e6)
        res = soc.run_phase(PhaseRequest(cost=compute_cost, cpu_region=region,
                                         gpu_region=None))
        trace_e = sum(s.package_w * s.dt for s in soc.trace.samples)
        assert trace_e == pytest.approx(res.energy_j, rel=1e-6)


class TestPcuFastForwardContract:
    """settled / time_to_next_transition / macro_step / clone."""

    def _pcu(self):
        return Pcu(haswell_desktop())

    def test_not_settled_when_ramping(self):
        pcu = self._pcu()
        # Fresh PCU starts at min frequency, far below the turbo target.
        assert not pcu.settled(0.0, True, False, 10.0)

    def test_settled_after_ramp_completes(self):
        pcu = self._pcu()
        now = 0.0
        for _ in range(10_000):
            pcu.step(now, 1e-3, cpu_active=True, gpu_active=False,
                     last_package_power_w=10.0)
            now += 1e-3
            if pcu.settled(now, True, False, 10.0):
                break
        assert pcu.settled(now, True, False, 10.0)
        assert pcu.state.cpu_freq_hz == pcu.spec.cpu.turbo_freq_hz

    def test_not_settled_over_cap_or_throttled(self):
        pcu = self._pcu()
        pcu.state.cpu_freq_hz = pcu.spec.cpu.turbo_freq_hz
        pcu.state.gpu_freq_hz = pcu.spec.gpu.min_freq_hz
        assert pcu.settled(0.0, True, False, 10.0)
        over = pcu.spec.pcu.package_cap_w + 1.0
        assert not pcu.settled(0.0, True, False, over)
        pcu.state.cap_throttle_hz = 1e8
        assert not pcu.settled(0.0, True, False, 10.0)

    def test_transition_instant_is_ulp_consistent_with_target_flip(self):
        """The reported release instant is exactly when the target flips."""
        pcu = self._pcu()
        pcu.state.last_gpu_active_t = 0.123456
        t_rel = pcu.time_to_next_transition(0.125, True, False)
        release = pcu.spec.pcu.gpu_idle_release_s
        assert t_rel == pcu.state.last_gpu_active_t + release
        coexec = pcu.spec.pcu.cpu_coexec_freq_hz
        turbo = pcu.spec.cpu.turbo_freq_hz
        # An instant before the release the target is still co-exec...
        assert pcu._cpu_target_hz(np.nextafter(t_rel, 0.0), True, False) == coexec
        # ...and one minimum tick past it the flip has happened - the
        # documented contract: the flip lands within an ulp of the
        # reported instant and callers tick across it with _MIN_DT.
        assert pcu._cpu_target_hz(t_rel + 1e-7, True, False) == turbo

    def test_no_transition_when_gpu_active_or_cpu_idle(self):
        pcu = self._pcu()
        pcu.state.last_gpu_active_t = 0.1
        assert pcu.time_to_next_transition(0.2, True, True) == float("inf")
        assert pcu.time_to_next_transition(0.2, False, False) == float("inf")

    def test_macro_step_only_moves_gpu_timestamp(self):
        pcu = self._pcu()
        pcu.state.cpu_freq_hz = pcu.spec.pcu.cpu_coexec_freq_hz
        pcu.state.gpu_freq_hz = pcu.spec.gpu.turbo_freq_hz
        pcu.state.last_gpu_active_t = 1.0
        pcu._gpu_was_active = True
        cpu_f, gpu_f = pcu.macro_step(1.0, 3.0, cpu_active=True,
                                      gpu_active=True)
        assert (cpu_f, gpu_f) == (pcu.state.cpu_freq_hz, pcu.state.gpu_freq_hz)
        assert pcu.state.last_gpu_active_t == 4.0
        pcu.macro_step(4.0, 1.0, cpu_active=True, gpu_active=False)
        assert pcu.state.last_gpu_active_t == 4.0  # idle span: untouched

    def test_macro_step_matches_stepping_when_settled(self):
        """A settled span stepped tick-by-tick ends where macro_step says."""
        spec = haswell_desktop()
        a, b = Pcu(spec), Pcu(spec)
        for pcu in (a, b):
            pcu.state.cpu_freq_hz = spec.cpu.turbo_freq_hz
        a.macro_step(0.0, 0.5, cpu_active=True, gpu_active=False)
        now = 0.0
        for _ in range(500):
            b.step(now, 1e-3, cpu_active=True, gpu_active=False,
                   last_package_power_w=10.0)
            now += 1e-3
        assert a.state.cpu_freq_hz == b.state.cpu_freq_hz
        assert a.state.gpu_freq_hz == b.state.gpu_freq_hz
        assert a.state.cap_throttle_hz == b.state.cap_throttle_hz

    def test_clone_is_independent(self):
        pcu = self._pcu()
        twin = pcu.clone()
        assert twin.state == pcu.state
        twin.step(0.0, 1e-3, cpu_active=True, gpu_active=True,
                  last_package_power_w=10.0)
        assert twin.state != pcu.state
        assert pcu.state.last_gpu_active_t == float("-inf")

    def test_edge_pending(self):
        pcu = self._pcu()
        assert pcu.edge_pending(True)
        assert not pcu.edge_pending(False)
        pcu.step(0.0, 1e-3, cpu_active=True, gpu_active=True,
                 last_package_power_w=10.0)
        assert not pcu.edge_pending(True)
        assert pcu.edge_pending(False)

    def test_bound_dt_snaps_to_sample_grid_only_when_armed(self):
        pcu = self._pcu()
        interval = pcu.spec.pcu.sample_interval_s
        now = 0.25 * interval
        # Unarmed: no throttle, under cap - dt passes through.
        assert pcu.bound_dt(now, 10 * interval, 10.0) == 10 * interval
        # Armed by an active throttle: clipped to the next grid point.
        pcu.state.cap_throttle_hz = 1e8
        assert pcu.bound_dt(now, 10 * interval, 10.0) == pytest.approx(
            0.75 * interval)


class TestMsrMultiWrapDeposit:
    """Bulk deposits (``power * duration`` in one call, as macro-steps
    make them) may cross several 32-bit wraps at once."""

    def test_bulk_deposit_crosses_several_wraps(self):
        msr = EnergyMsr(energy_unit_j=2.0 ** -14)
        period = msr.max_window_joules()
        msr.deposit(period * 3.5)
        assert msr.wrap_count == 3
        assert msr.lifetime_joules == pytest.approx(3.5 * period)
        # The register itself only shows the sub-wrap remainder.
        assert msr.read() == int(0.5 * period / msr.energy_unit_j) & 0xFFFFFFFF

    def test_wrap_crossings_accumulate_across_calls(self):
        msr = EnergyMsr(energy_unit_j=2.0 ** -14)
        period = msr.max_window_joules()
        crossings = []
        for duration_s in (0.75, 0.75, 2.0):
            before = msr.wrap_count
            msr.deposit(period * duration_s)
            crossings.append(msr.wrap_count - before)
        assert crossings == [0, 1, 2]
        assert msr.wrap_count == 3

    def test_multiwrap_window_aliases_like_hardware(self):
        """A window spanning >1 wrap silently under-reports - the
        documented RAPL hazard that bulk deposits must preserve."""
        msr = EnergyMsr(energy_unit_j=2.0 ** -14)
        before = msr.read()
        true_joules = 2.25 * msr.max_window_joules()
        msr.deposit(true_joules)
        measured = msr.joules_between(before, msr.read())
        assert measured == pytest.approx(0.25 * msr.max_window_joules(),
                                         rel=1e-9)

    def test_zero_and_negative_deposits(self):
        msr = EnergyMsr(energy_unit_j=2.0 ** -14)
        msr.deposit(0.0 * 100.0)
        msr.deposit(100.0 * 0.0)
        assert msr.wrap_count == 0 and msr.lifetime_joules == 0.0
        with pytest.raises(SimulationError):
            msr.deposit(-1.0)


class TestBatchModelBitEquality:
    """The vectorized model twins must match the scalar models bit for
    bit, element-wise - the batched-transient path depends on it."""

    def _freq_grid(self, spec, n=512):
        rng = np.random.default_rng(0xBEEF)
        cpu = rng.uniform(spec.cpu.min_freq_hz, spec.cpu.turbo_freq_hz, n)
        gpu = rng.uniform(spec.gpu.min_freq_hz, spec.gpu.turbo_freq_hz, n)
        return cpu, gpu

    @pytest.mark.parametrize("tablet", [False, True])
    def test_compute_rates_batch(self, tablet, memory_cost):
        spec = baytrail_tablet() if tablet else haswell_desktop()
        cpu_f, gpu_f = self._freq_grid(spec)
        batch = compute_rates_batch(spec, memory_cost, cpu_f, gpu_f,
                                    cpu_active_cores=3.85,
                                    gpu_items_in_flight=5000.0,
                                    cpu_active=True, gpu_active=True)
        for i in range(len(cpu_f)):
            scalar = compute_rates(spec, memory_cost, cpu_f[i], gpu_f[i],
                                   3.85, 5000.0,
                                   cpu_active=True, gpu_active=True)
            assert batch.cpu_items_per_s[i] == scalar.cpu_items_per_s
            assert batch.gpu_items_per_s[i] == scalar.gpu_items_per_s
            assert (batch.cpu_memory_stall_fraction[i]
                    == scalar.cpu_memory_stall_fraction)
            assert (batch.gpu_memory_stall_fraction[i]
                    == scalar.gpu_memory_stall_fraction)
            assert (batch.cpu_traffic_bytes_per_s[i]
                    == scalar.cpu_traffic_bytes_per_s)
            assert (batch.gpu_traffic_bytes_per_s[i]
                    == scalar.gpu_traffic_bytes_per_s)

    def test_compute_rates_batch_pure_compute(self, compute_cost):
        spec = haswell_desktop()
        cpu_f, gpu_f = self._freq_grid(spec, n=128)
        batch = compute_rates_batch(spec, compute_cost, cpu_f, gpu_f,
                                    4.0, 2240.0, True, True)
        for i in range(len(cpu_f)):
            scalar = compute_rates(spec, compute_cost, cpu_f[i], gpu_f[i],
                                   4.0, 2240.0, True, True)
            assert batch.cpu_items_per_s[i] == scalar.cpu_items_per_s
            assert batch.gpu_items_per_s[i] == scalar.gpu_items_per_s

    @pytest.mark.parametrize("tablet", [False, True])
    def test_package_power_batch(self, tablet, memory_cost):
        spec = baytrail_tablet() if tablet else haswell_desktop()
        cpu_f, gpu_f = self._freq_grid(spec)
        rates = compute_rates_batch(spec, memory_cost, cpu_f, gpu_f,
                                    3.85, 5000.0, True, True)
        batch = package_power_batch(spec, rates, cpu_f, gpu_f,
                                    cpu_active_cores=3.85, gpu_active=True)
        for i in range(len(cpu_f)):
            scalar_rates = compute_rates(spec, memory_cost, cpu_f[i],
                                         gpu_f[i], 3.85, 5000.0, True, True)
            scalar = package_power(spec, scalar_rates, cpu_f[i], gpu_f[i],
                                   3.85, True)
            assert batch.cpu_w[i] == scalar.cpu_w
            assert batch.gpu_w[i] == scalar.gpu_w
            assert batch.uncore_w[i] == scalar.uncore_w
            assert (batch.cpu_w[i] + batch.gpu_w[i] + batch.uncore_w[i]
                    + batch.idle_w) == scalar.package_w
