"""Work regions and irregular cost profiles, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.soc.cost_model import KernelCostModel
from repro.soc.work import CostProfile, WorkRegion, split_for_offload


def cost(cv=0.0, scale=0.1, tag=1):
    return KernelCostModel(
        name="w", instructions_per_item=100.0, loadstore_fraction=0.2,
        l3_miss_rate=0.1, item_cost_cv=cv, cost_profile_scale=scale,
        rng_tag=tag)


class TestCostProfile:
    def test_uniform_profile_for_regular_kernels(self):
        profile = CostProfile(cost(cv=0.0))
        assert profile.integral(0.2, 0.7) == pytest.approx(0.5)

    def test_irregular_profile_has_unit_mean(self):
        profile = CostProfile(cost(cv=1.0))
        assert profile.integral(0.0, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_irregular_profile_varies(self):
        profile = CostProfile(cost(cv=1.0, scale=0.2))
        assert profile.multipliers.std() > 0.3

    def test_deterministic_per_tag(self):
        a = CostProfile(cost(cv=0.8, tag=5))
        b = CostProfile(cost(cv=0.8, tag=5))
        c = CostProfile(cost(cv=0.8, tag=6))
        assert np.array_equal(a.multipliers, b.multipliers)
        assert not np.array_equal(a.multipliers, c.multipliers)

    def test_advance_inverts_integral(self):
        profile = CostProfile(cost(cv=0.9, tag=2))
        u0 = 0.17
        work = 0.31
        u1 = profile.advance(u0, work)
        assert profile.integral(u0, u1) == pytest.approx(work, rel=1e-6)

    def test_advance_clamps_at_end(self):
        profile = CostProfile(cost(cv=0.5))
        assert profile.advance(0.9, 10.0) == 1.0

    def test_rejects_reversed_bounds(self):
        profile = CostProfile(cost())
        with pytest.raises(SimulationError):
            profile.integral(0.8, 0.2)

    @given(u0=st.floats(0.0, 0.99), work=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_advance_is_monotone_property(self, u0, work):
        profile = CostProfile(cost(cv=1.2, tag=9))
        u1 = profile.advance(u0, work)
        assert u1 >= u0
        assert u1 <= 1.0


class TestWorkRegion:
    def test_consume_returns_items(self):
        profile = CostProfile(cost())
        region = WorkRegion.for_span(profile, 1000.0, 0.0, 1000.0)
        done = region.consume(250.0)
        assert done == pytest.approx(250.0)
        assert region.items_remaining == pytest.approx(750.0)

    def test_consume_caps_at_region_end(self):
        profile = CostProfile(cost())
        region = WorkRegion.for_span(profile, 1000.0, 0.0, 100.0)
        done = region.consume(1e6)
        assert done == pytest.approx(100.0)
        assert region.is_done

    def test_consume_rejects_negative(self):
        profile = CostProfile(cost())
        region = WorkRegion.for_span(profile, 100.0, 0.0, 100.0)
        with pytest.raises(SimulationError):
            region.consume(-1.0)

    def test_work_remaining_scales_with_multiplier(self):
        profile = CostProfile(cost(cv=1.0, tag=3))
        region = WorkRegion.for_span(profile, 10000.0, 0.0, 10000.0)
        assert region.work_remaining == pytest.approx(10000.0, rel=1e-6)

    def test_time_to_complete(self):
        profile = CostProfile(cost())
        region = WorkRegion.for_span(profile, 1000.0, 0.0, 1000.0)
        assert region.time_to_complete(100.0) == pytest.approx(10.0)
        assert region.time_to_complete(0.0) == float("inf")

    def test_empty_region(self):
        profile = CostProfile(cost())
        region = WorkRegion.empty(profile, 100.0)
        assert region.is_done
        assert region.items_remaining == 0.0

    def test_rejects_bad_range(self):
        profile = CostProfile(cost())
        with pytest.raises(SimulationError):
            WorkRegion.for_span(profile, 100.0, 50.0, 20.0)

    @given(capacity=st.lists(st.floats(0.1, 400.0), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_items_conserved_property(self, capacity):
        """However consumption is chunked, items done + items remaining
        always equals the region size."""
        profile = CostProfile(cost(cv=1.1, tag=7))
        region = WorkRegion.for_span(profile, 5000.0, 1000.0, 4000.0)
        total_done = 0.0
        for c in capacity:
            total_done += region.consume(c)
        assert total_done + region.items_remaining == pytest.approx(
            3000.0, rel=1e-6)


class TestSplitForOffload:
    @given(alpha=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_exactly(self, alpha):
        profile = CostProfile(cost(cv=0.7, tag=4))
        gpu, cpu = split_for_offload(profile, 10000.0, 2000.0, 10000.0, alpha)
        assert gpu.items_remaining == pytest.approx(alpha * 8000.0)
        assert cpu.items_remaining == pytest.approx((1 - alpha) * 8000.0)
        assert gpu.stop_item == pytest.approx(cpu.start_item)

    def test_gpu_gets_leading_block(self):
        profile = CostProfile(cost())
        gpu, cpu = split_for_offload(profile, 100.0, 0.0, 100.0, 0.3)
        assert gpu.start_item == 0.0
        assert cpu.stop_item == 100.0
