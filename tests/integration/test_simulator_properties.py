"""Property-based invariants of the SoC simulator.

Hypothesis generates random (but valid) kernel cost models and splits;
the simulator must uphold physical and accounting invariants for all
of them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.soc.cost_model import KernelCostModel
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import haswell_desktop
from repro.soc.work import CostProfile, split_for_offload

_SPEC = haswell_desktop()

cost_models = st.builds(
    KernelCostModel,
    name=st.just("prop"),
    instructions_per_item=st.floats(50.0, 5000.0),
    loadstore_fraction=st.floats(0.05, 0.5),
    l3_miss_rate=st.floats(0.0, 0.6),
    cpu_simd_efficiency=st.floats(0.01, 1.0),
    gpu_simd_efficiency=st.floats(0.01, 1.0),
    gpu_divergence=st.floats(0.0, 0.6),
    gpu_traffic_factor=st.floats(0.4, 1.0),
    item_cost_cv=st.floats(0.0, 1.2),
    rng_tag=st.integers(0, 50),
)


def run_split(cost, n, alpha):
    processor = IntegratedProcessor(_SPEC)
    profile = CostProfile(cost)
    if alpha <= 0.0:
        from repro.soc.work import WorkRegion

        request = PhaseRequest(
            cost=cost,
            cpu_region=WorkRegion.for_span(profile, n, 0.0, n),
            gpu_region=None)
    elif alpha >= 1.0:
        from repro.soc.work import WorkRegion

        request = PhaseRequest(
            cost=cost, cpu_region=None,
            gpu_region=WorkRegion.for_span(profile, n, 0.0, n))
    else:
        gpu_region, cpu_region = split_for_offload(profile, n, 0.0, n, alpha)
        request = PhaseRequest(cost=cost, cpu_region=cpu_region,
                               gpu_region=gpu_region)
    return processor, processor.run_phase(request)


class TestInvariants:
    @given(cost=cost_models, alpha=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_items_conserved_and_energy_physical(self, cost, alpha):
        n = 300_000.0
        processor, result = run_split(cost, n, alpha)
        # Every item processed exactly once.
        assert result.cpu_items + result.gpu_items == pytest.approx(
            n, rel=1e-6)
        # Power bounded by physics: above the idle floor, below a
        # generous package ceiling.
        power = result.energy_j / result.duration_s
        assert power > _SPEC.idle_power_w * 0.9
        assert power < 1.5 * _SPEC.pcu.package_cap_w
        # MSR bookkeeping agrees with the exact accounting.
        assert processor.msr.lifetime_joules == pytest.approx(
            result.energy_j, rel=1e-6)

    @given(cost=cost_models)
    @settings(max_examples=20, deadline=None)
    def test_counter_rates_match_cost_model(self, cost):
        _, result = run_split(cost, 200_000.0, 0.0)
        delta = result.counters
        assert delta.instructions_retired == pytest.approx(
            result.cpu_items * cost.instructions_per_item, rel=1e-6)
        assert delta.miss_to_loadstore_ratio == pytest.approx(
            cost.l3_miss_rate, rel=1e-6)

    @given(cost=cost_models)
    @example(cost=KernelCostModel(
        name="prop", instructions_per_item=4686.0, loadstore_fraction=0.5,
        l3_miss_rate=0.0, cpu_simd_efficiency=0.015625,
        gpu_simd_efficiency=1.0, gpu_divergence=0.0, gpu_traffic_factor=1.0,
        item_cost_cv=1.0, rng_tag=36))
    @settings(max_examples=15, deadline=None)
    def test_hybrid_bounded_by_sequential_halves(self, cost):
        """An even hybrid split can never be slower than running its
        two halves back-to-back on their own devices (concurrency can
        only help), up to PCU transients.  Note the hybrid *can* be
        slower than the faster single device on short runs - that is
        the Fig. 4 activation-throttle regime, by design.

        Each half is run on its own, not estimated as half of a
        single-device run: with ``item_cost_cv > 0`` the halves carry
        unequal work (the pinned example's trailing CPU half holds 72%
        of it, so half the CPU-only time understates it by 0.32 s).
        """
        n = 300_000.0
        gpu_half, cpu_half = split_for_offload(CostProfile(cost), n, 0.0, n, 0.5)
        cpu_alone = IntegratedProcessor(_SPEC).run_phase(PhaseRequest(
            cost=cost, cpu_region=cpu_half, gpu_region=None))
        gpu_alone = IntegratedProcessor(_SPEC).run_phase(PhaseRequest(
            cost=cost, cpu_region=None, gpu_region=gpu_half))
        _, hybrid = run_split(cost, n, 0.5)
        sequential = cpu_alone.duration_s + gpu_alone.duration_s
        transient_allowance = 0.25  # activation throttle + ramps
        assert hybrid.duration_s <= sequential * 1.10 + transient_allowance

    @given(alpha=st.floats(0.05, 0.95), cost=cost_models)
    @settings(max_examples=20, deadline=None)
    def test_split_respected(self, alpha, cost):
        n = 300_000.0
        _, result = run_split(cost, n, alpha)
        assert result.gpu_items == pytest.approx(alpha * n, rel=1e-6)
