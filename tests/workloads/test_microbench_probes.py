"""Micro-benchmark category realization.

The eight probes must actually *land* in their intended taxonomy cell
when run on the simulated desktop: that is what makes the curve table
trustworthy.
"""

import pytest

from repro.core.categories import DeviceDuration
from repro.core.characterization import PowerCharacterizer
from repro.soc.device import compute_rates
from repro.workloads.microbench import standard_microbenches


class TestCategoryRealization:
    @pytest.mark.parametrize("bench", standard_microbenches(),
                             ids=lambda b: b.category.short_code)
    def test_device_alone_durations_realize_category(self, desktop, bench):
        """Calibrate N to the bench's CPU target, then check each
        device's *alone* duration lands on the intended side of the
        100 ms threshold."""
        characterizer = PowerCharacterizer(spec=desktop, microbenches=[bench])
        n = characterizer._calibrate_items(bench)
        rates = compute_rates(desktop, bench.cost,
                              desktop.cpu.turbo_freq_hz,
                              desktop.gpu.turbo_freq_hz,
                              desktop.cpu.num_cores, 1e9, True, True)
        cpu_alone = n / rates.cpu_items_per_s
        gpu_alone = n / rates.gpu_items_per_s
        threshold = 0.1
        if bench.category.cpu_duration is DeviceDuration.SHORT:
            assert cpu_alone < threshold
        else:
            assert cpu_alone > threshold
        if bench.category.gpu_duration is DeviceDuration.SHORT:
            assert gpu_alone < threshold
        else:
            assert gpu_alone > threshold
