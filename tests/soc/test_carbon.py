"""The seeded carbon-intensity signal (docs/OBJECTIVES.md)."""

import math

import pytest

from repro.errors import HarnessError
from repro.soc.carbon import (
    J_PER_KWH,
    MIN_INTENSITY_GCO2_KWH,
    CarbonSpec,
    CarbonTrace,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = CarbonSpec()
        assert spec.period_s == 86400.0

    @pytest.mark.parametrize("kwargs", [
        {"base_gco2_kwh": 0.0},
        {"base_gco2_kwh": -10.0},
        {"base_gco2_kwh": float("nan")},
        {"amplitude_gco2_kwh": -1.0},
        {"period_s": 0.0},
        {"period_s": float("inf")},
        {"n_harmonics": 0},
        {"noise_gco2_kwh": -1.0},
        {"n_regions": 0},
        {"n_harmonics": 2.5},
        {"n_harmonics": True},
        {"n_regions": 2.0},
        {"seed": True},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(HarnessError):
            CarbonSpec(**kwargs)

    def test_canonical_distinguishes_specs(self):
        canon = {CarbonSpec().canonical(),
                 CarbonSpec(seed=1).canonical(),
                 CarbonSpec(period_s=60.0).canonical(),
                 CarbonSpec(n_regions=2).canonical()}
        assert len(canon) == 4


class TestTraceDeterminism:
    def test_same_spec_same_signal(self):
        a, b = CarbonSpec().trace(), CarbonSpec().trace()
        for t in (0.0, 1234.5, 43210.0, 86399.0):
            for region in range(4):
                assert a.intensity(t, region) == b.intensity(t, region)

    def test_evaluation_is_order_independent(self):
        """A pure function of (t, region): querying out of order or
        repeatedly never changes an answer."""
        trace = CarbonSpec(period_s=120.0).trace()
        forward = [trace.intensity(t / 7.0) for t in range(50)]
        backward = [trace.intensity(t / 7.0) for t in reversed(range(50))]
        assert forward == backward[::-1]

    def test_different_seeds_differ(self):
        a = CarbonSpec(seed=1).trace()
        b = CarbonSpec(seed=2).trace()
        assert any(a.intensity(t) != b.intensity(t)
                   for t in (100.0, 5000.0, 40000.0))


class TestSignalShape:
    def test_floor_holds_even_for_huge_swings(self):
        trace = CarbonSpec(base_gco2_kwh=10.0, amplitude_gco2_kwh=500.0,
                           noise_gco2_kwh=100.0).trace()
        lowest = min(trace.intensity(86400.0 * i / 999) for i in range(1000))
        assert lowest >= MIN_INTENSITY_GCO2_KWH

    def test_signal_actually_varies_over_a_period(self):
        trace = CarbonSpec(period_s=60.0).trace()
        values = [trace.intensity(60.0 * i / 99) for i in range(100)]
        assert max(values) - min(values) > 10.0

    def test_regions_are_staggered(self):
        trace = CarbonSpec(period_s=60.0, noise_gco2_kwh=0.0).trace()
        assert any(abs(trace.intensity(t, 0) - trace.intensity(t, 2)) > 1.0
                   for t in (0.0, 15.0, 30.0, 45.0))

    def test_region_index_wraps(self):
        trace = CarbonSpec(n_regions=4).trace()
        assert trace.intensity(100.0, 1) == trace.intensity(100.0, 5)


class TestGramsAndMedian:
    def test_grams_is_intensity_times_energy(self):
        trace = CarbonSpec().trace()
        t, energy = 1000.0, 5000.0
        expected = trace.intensity(t) * energy / J_PER_KWH
        assert trace.grams(energy, t) == pytest.approx(expected)

    def test_zero_energy_zero_grams(self):
        assert CarbonSpec().trace().grams(0.0, 123.0) == 0.0

    def test_median_is_between_extremes(self):
        trace = CarbonSpec(period_s=60.0).trace()
        values = [trace.intensity(60.0 * i / 256) for i in range(257)]
        median = trace.median_intensity(60.0)
        assert min(values) <= median <= max(values)
        assert math.isfinite(median)

    def test_median_rejects_bad_args(self):
        trace = CarbonSpec().trace()
        with pytest.raises(HarnessError):
            trace.median_intensity(0.0)
        with pytest.raises(HarnessError):
            trace.median_intensity(60.0, samples=1)

    def test_direct_construction_matches_factory(self):
        spec = CarbonSpec(seed=7)
        assert CarbonTrace(spec).intensity(50.0) == \
            spec.trace().intensity(50.0)
