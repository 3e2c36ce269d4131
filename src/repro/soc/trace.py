"""Power/time traces for the paper's timeline figures (Figs. 2-4).

The simulator appends one sample per tick; :class:`PowerTrace` offers
the aggregations the figures need (resampling to a plotting interval,
average power over a window, min/max during GPU-active intervals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro._compat import DATACLASS_SLOTS
from repro.errors import SimulationError

#: Macro-steps are decimated into synthesized samples no longer than
#: this many base ticks each, so fast-mode traces keep enough timeline
#: resolution for the figures (matches the exact mode's largest
#: adaptively-stretched tick).
SPAN_DECIMATION_TICKS = 8


@dataclass(**DATACLASS_SLOTS)
class TraceSample:
    """One tick of the power timeline."""

    t: float
    dt: float
    package_w: float
    cpu_w: float
    gpu_w: float
    uncore_w: float
    cpu_freq_hz: float
    gpu_freq_hz: float
    gpu_active: bool


@dataclass
class PowerTrace:
    """Append-only power timeline with figure-oriented queries."""

    samples: List[TraceSample] = field(default_factory=list)
    enabled: bool = True

    def append(self, sample: TraceSample) -> None:
        if self.enabled:
            self.samples.append(sample)

    def append_span(self, t: float, dt: float, package_w: float,
                    cpu_w: float, gpu_w: float, uncore_w: float,
                    cpu_freq_hz: float, gpu_freq_hz: float,
                    gpu_active: bool, max_sample_dt: float) -> None:
        """Record one constant-power macro-step as decimated samples.

        The span ``[t, t + dt)`` is split into equal slices no longer
        than ``max_sample_dt`` (one synthesized sample per decimation
        interval), so every aggregation - :meth:`average_power`,
        :meth:`resample`, :meth:`gpu_active_intervals` - sees the same
        energy and timeline as per-tick appending would, at a bounded
        sample count.
        """
        if not self.enabled or dt <= 0.0:
            return
        if max_sample_dt <= 0:
            raise SimulationError("max_sample_dt must be positive")
        slices = max(1, int(math.ceil(dt / max_sample_dt - 1e-9)))
        slice_dt = dt / slices
        for i in range(slices):
            self.samples.append(TraceSample(
                t=t + i * slice_dt, dt=slice_dt, package_w=package_w,
                cpu_w=cpu_w, gpu_w=gpu_w, uncore_w=uncore_w,
                cpu_freq_hz=cpu_freq_hz, gpu_freq_hz=gpu_freq_hz,
                gpu_active=gpu_active))

    def clear(self) -> None:
        self.samples.clear()

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        if not self.samples:
            return 0.0
        last = self.samples[-1]
        return last.t + last.dt - self.samples[0].t

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def average_power(self, t0: Optional[float] = None,
                      t1: Optional[float] = None) -> float:
        """Time-weighted mean package power over [t0, t1]."""
        if not self.samples:
            raise SimulationError("empty trace")
        total_e = 0.0
        total_t = 0.0
        for s in self.samples:
            if t0 is not None and s.t + s.dt <= t0:
                continue
            if t1 is not None and s.t >= t1:
                break
            lo = s.t if t0 is None else max(s.t, t0)
            hi = s.t + s.dt if t1 is None else min(s.t + s.dt, t1)
            span = max(0.0, hi - lo)
            total_e += s.package_w * span
            total_t += span
        if total_t <= 0:
            raise SimulationError("empty window")
        return total_e / total_t

    def average_power_while(self, gpu_active: bool) -> float:
        """Mean package power restricted to GPU-active (or idle) ticks."""
        num = 0.0
        den = 0.0
        for s in self.samples:
            if s.gpu_active == gpu_active:
                num += s.package_w * s.dt
                den += s.dt
        if den <= 0:
            raise SimulationError("no matching ticks in trace")
        return num / den

    def min_power_while_gpu_active(self) -> float:
        powers = [s.package_w for s in self.samples if s.gpu_active]
        if not powers:
            raise SimulationError("no GPU-active ticks in trace")
        return min(powers)

    def resample(self, interval_s: float) -> "tuple[np.ndarray, np.ndarray]":
        """Resample to fixed intervals; returns (times, mean package watts).

        This is what a figure plots: one point per ``interval_s``,
        each the time-weighted mean of package power over that bin.
        """
        if interval_s <= 0:
            raise SimulationError("interval must be positive")
        if not self.samples:
            return np.array([]), np.array([])
        t0 = self.samples[0].t
        n_bins = max(1, int(np.ceil(self.duration / interval_s)))
        energy = np.zeros(n_bins)
        time_in_bin = np.zeros(n_bins)
        for s in self.samples:
            start = s.t - t0
            remaining = s.dt
            while remaining > 1e-15:
                b = min(int(start / interval_s), n_bins - 1)
                bin_end = (b + 1) * interval_s
                span = min(remaining, max(bin_end - start, 1e-15))
                energy[b] += s.package_w * span
                time_in_bin[b] += span
                start += span
                remaining -= span
        mask = time_in_bin > 0
        centers = (np.arange(n_bins) + 0.5) * interval_s
        watts = np.divide(energy, time_in_bin,
                          out=np.zeros(n_bins), where=mask)
        return centers[mask], watts[mask]

    def gpu_active_intervals(self) -> "list[tuple[float, float]]":
        """Maximal [start, end) intervals during which the GPU was active."""
        intervals: list[tuple[float, float]] = []
        start: Optional[float] = None
        for s in self.samples:
            if s.gpu_active and start is None:
                start = s.t
            elif not s.gpu_active and start is not None:
                intervals.append((start, s.t))
                start = None
        if start is not None:
            last = self.samples[-1]
            intervals.append((start, last.t + last.dt))
        return intervals


def write_csv(trace: PowerTrace, path: str) -> int:
    """Export a trace as CSV (one row per tick); returns rows written.

    Columns: t_s, dt_s, package_w, cpu_w, gpu_w, uncore_w, cpu_freq_ghz,
    gpu_freq_ghz, gpu_active.  Useful for plotting the paper's timeline
    figures with external tools.
    """
    with open(path, "w") as fh:
        fh.write("t_s,dt_s,package_w,cpu_w,gpu_w,uncore_w,"
                 "cpu_freq_ghz,gpu_freq_ghz,gpu_active\n")
        for s in trace.samples:
            fh.write(f"{s.t:.9f},{s.dt:.9f},{s.package_w:.4f},"
                     f"{s.cpu_w:.4f},{s.gpu_w:.4f},{s.uncore_w:.4f},"
                     f"{s.cpu_freq_hz / 1e9:.4f},{s.gpu_freq_hz / 1e9:.4f},"
                     f"{int(s.gpu_active)}\n")
    return len(trace.samples)
