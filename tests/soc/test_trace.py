"""Power trace recording and aggregation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.soc.trace import PowerTrace, TraceSample


def sample(t, dt, watts, gpu=False):
    return TraceSample(t=t, dt=dt, package_w=watts, cpu_w=watts / 2,
                       gpu_w=watts / 4, uncore_w=watts / 8,
                       cpu_freq_hz=3e9, gpu_freq_hz=1e9, gpu_active=gpu)


@pytest.fixture
def trace():
    tr = PowerTrace()
    for i in range(10):
        tr.append(sample(i * 0.1, 0.1, 10.0 + i, gpu=(i % 2 == 0)))
    return tr


class TestRecording:
    def test_disabled_trace_drops_samples(self):
        tr = PowerTrace(enabled=False)
        tr.append(sample(0.0, 0.1, 5.0))
        assert len(tr) == 0

    def test_duration(self, trace):
        assert trace.duration == pytest.approx(1.0)

    def test_clear(self, trace):
        trace.clear()
        assert len(trace) == 0


class TestAggregation:
    def test_average_power_full_window(self, trace):
        assert trace.average_power() == pytest.approx(14.5)

    def test_average_power_sub_window(self, trace):
        assert trace.average_power(0.0, 0.2) == pytest.approx(10.5)

    def test_average_power_empty_trace_raises(self):
        with pytest.raises(SimulationError):
            PowerTrace().average_power()

    def test_average_power_while_gpu(self, trace):
        gpu_avg = trace.average_power_while(True)
        idle_avg = trace.average_power_while(False)
        assert gpu_avg == pytest.approx(np.mean([10, 12, 14, 16, 18]))
        assert idle_avg == pytest.approx(np.mean([11, 13, 15, 17, 19]))

    def test_min_power_while_gpu_active(self, trace):
        assert trace.min_power_while_gpu_active() == pytest.approx(10.0)

    def test_gpu_active_intervals(self, trace):
        intervals = trace.gpu_active_intervals()
        assert len(intervals) == 5
        assert intervals[0] == pytest.approx((0.0, 0.1))

    def test_resample_conserves_energy(self, trace):
        times, watts = trace.resample(0.25)
        # All bins are fully occupied here, so sum(mean * interval)
        # reconstructs the original energy exactly.
        resampled_energy = sum(w * 0.25 for w in watts)
        original = sum(s.package_w * s.dt for s in trace.samples)
        assert resampled_energy == pytest.approx(original, rel=1e-9)
        assert len(times) == len(watts)

    def test_resample_rejects_bad_interval(self, trace):
        with pytest.raises(SimulationError):
            trace.resample(0.0)
