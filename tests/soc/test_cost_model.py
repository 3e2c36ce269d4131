"""Kernel cost model derived quantities and validation."""

import pytest

from repro.errors import SpecError
from repro.soc.cost_model import KernelCostModel
from repro.units import CACHELINE_BYTES


def make(**kwargs):
    base = dict(name="k", instructions_per_item=100.0,
                loadstore_fraction=0.3, l3_miss_rate=0.2)
    base.update(kwargs)
    return KernelCostModel(**base)


class TestDerivedQuantities:
    def test_loadstores_per_item(self):
        assert make().loadstores_per_item == pytest.approx(30.0)

    def test_l3_misses_per_item(self):
        assert make().l3_misses_per_item == pytest.approx(6.0)

    def test_dram_bytes_one_cacheline_per_miss(self):
        assert make().dram_bytes_per_item == pytest.approx(6.0 * CACHELINE_BYTES)

    def test_gpu_traffic_factor_scales_gpu_bytes(self):
        cost = make(gpu_traffic_factor=0.5)
        assert cost.gpu_dram_bytes_per_item == pytest.approx(
            cost.dram_bytes_per_item / 2)

    def test_gpu_instruction_expansion(self):
        cost = make(gpu_instruction_expansion=1.5)
        assert cost.gpu_instructions_per_item == pytest.approx(150.0)

    def test_miss_to_loadstore_ratio_is_classification_statistic(self):
        assert make(l3_miss_rate=0.4).miss_to_loadstore_ratio == 0.4

    def test_with_overrides_returns_new_model(self):
        cost = make()
        other = cost.with_overrides(l3_miss_rate=0.9)
        assert other.l3_miss_rate == 0.9
        assert cost.l3_miss_rate == 0.2


class TestValidation:
    def test_rejects_nonpositive_instructions(self):
        with pytest.raises(SpecError):
            make(instructions_per_item=0.0)

    @pytest.mark.parametrize("field", [
        "loadstore_fraction", "l3_miss_rate", "cpu_simd_efficiency",
        "gpu_simd_efficiency", "gpu_divergence",
    ])
    def test_rejects_out_of_range_fractions(self, field):
        with pytest.raises(SpecError):
            make(**{field: 1.5})
        with pytest.raises(SpecError):
            make(**{field: -0.1})

    def test_rejects_negative_cv(self):
        with pytest.raises(SpecError):
            make(item_cost_cv=-1.0)

    def test_rejects_nonpositive_expansion(self):
        with pytest.raises(SpecError):
            make(gpu_instruction_expansion=0.0)

    def test_rejects_nonpositive_traffic_factor(self):
        with pytest.raises(SpecError):
            make(gpu_traffic_factor=0.0)
