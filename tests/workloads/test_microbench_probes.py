"""Executable micro-benchmark probes and category realization.

The eight probes must actually *land* in their intended taxonomy cell
when run on the simulated desktop: that is what makes the curve table
trustworthy.
"""

import pytest

from repro.core.categories import DeviceDuration
from repro.core.characterization import PowerCharacterizer
from repro.soc.device import compute_rates
from repro.workloads.microbench import (
    ComputeProbe,
    MemoryProbe,
    standard_microbenches,
)


class TestExecutableProbes:
    def test_compute_probe_fills_output(self):
        probe = ComputeProbe(n_items=128, fma_per_item=4)
        probe.body(0, 128)
        assert (probe.out > 0).all()

    def test_memory_probe_counts_updates(self):
        probe = MemoryProbe(n_items=1000, table_size=64, seed=3)
        probe.body(0, 1000)
        assert probe.table.sum() == pytest.approx(1000.0)

    def test_probe_kernels_have_bodies(self):
        bench = standard_microbenches()[0]
        kernel = ComputeProbe(64).make_kernel(bench.cost)
        assert kernel.has_real_body


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
