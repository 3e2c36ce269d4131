"""Irregular iteration-space modelling.

The paper's irregular workloads (graph kernels, Mandelbrot, Barnes-Hut,
...) have input-dependent per-iteration cost: some items are much more
expensive than others, and the expensive items cluster (a Mandelbrot
tile inside the set, a hub region of a graph).  This is what makes the
paper's *online profiling* imperfect - the profiled prefix of the
iteration space is not perfectly representative of the rest - and is
the mechanism behind EAS's documented miss on Connected Components
(it picks alpha=1.0 where the Oracle picks 0.9).

We model this with a deterministic :class:`CostProfile`: a per-kernel
multiplier field over the normalized iteration space [0,1], with unit
mean, a configurable coefficient of variation, and a configurable
correlation length.  A :class:`WorkRegion` is a contiguous slice of the
iteration space assigned to one device; it converts *work capacity*
(expressed in average-cost items) into *items completed* by integrating
the multiplier field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.soc.cost_model import KernelCostModel

#: Resolution of the multiplier field across the whole iteration space.
PROFILE_RESOLUTION = 2048

#: Items-remaining at or below which a region counts as done.
_DONE_EPS = 1e-9


def _smooth_field(rng: np.random.Generator, resolution: int, scale: float) -> np.ndarray:
    """A zero-mean smooth random field with correlation length ``scale``.

    Built as white noise convolved with a box kernel whose width is
    ``scale`` of the space, then renormalized to unit standard
    deviation.  Deterministic given the generator state.
    """
    noise = rng.standard_normal(resolution)
    width = max(1, int(resolution * max(scale, 1.0 / resolution)))
    kernel = np.ones(width) / width
    smooth = np.convolve(noise, kernel, mode="same")
    std = smooth.std()
    if std > 0:
        smooth = smooth / std
    return smooth


class CostProfile:
    """Per-item cost multiplier field for one kernel.

    The field has mean 1.0.  Regular kernels (``item_cost_cv == 0``)
    get an identically-1 field and a fast path everywhere.
    """

    def __init__(self, cost_model: KernelCostModel,
                 resolution: int = PROFILE_RESOLUTION) -> None:
        self.cost_model = cost_model
        self.resolution = resolution
        cv = cost_model.item_cost_cv
        if cv <= 0.0:
            multipliers = np.ones(resolution)
        else:
            rng = np.random.default_rng(0xEA5 + 7919 * cost_model.rng_tag)
            # Two components: long-range structure (what defeats
            # prefix-based profiling) and fine-grained jitter.
            coarse = _smooth_field(rng, resolution, cost_model.cost_profile_scale)
            fine = _smooth_field(rng, resolution, 1.0 / resolution)
            field = 0.8 * coarse + 0.2 * fine
            multipliers = np.exp(cv * field)
            multipliers /= multipliers.mean()
        self.multipliers = multipliers
        # Cumulative integral of the multiplier over [0, u]; cum[-1] == 1.
        # Held as a list of the array's own numpy scalars, so lookups
        # are list indexing yet every value (and its type, which reaches
        # ``repr``-based fingerprints) is what indexing the array gives;
        # ``_cum_keys`` is the same grid as Python floats, for bisect.
        cum = np.concatenate(([0.0], np.cumsum(multipliers))) / resolution
        self._cum = list(cum)
        self._cum_keys = cum.tolist()
        self._uniform = cv <= 0.0

    def integral(self, u0: float, u1: float) -> float:
        """Integral of the multiplier field over [u0, u1] (both in [0,1])."""
        if not (0.0 <= u0 <= u1 <= 1.0 + 1e-12):
            raise SimulationError(f"bad integral bounds [{u0}, {u1}]")
        if self._uniform:
            return u1 - u0
        return self._cum_at(u1) - self._cum_at(u0)

    def _cum_at(self, u: float) -> float:
        """Linearly-interpolated cumulative integral at ``u``."""
        # min(max(u, 0.0), 1.0) without the calls: same comparisons,
        # same object returned.
        u = 0.0 if 0.0 > u else u
        x = (1.0 if 1.0 < u else u) * self.resolution
        idx = int(x)
        cum = self._cum
        if idx >= self.resolution:
            return cum[-1]
        frac = x - idx
        lo = cum[idx]
        return lo + frac * (cum[idx + 1] - lo)

    def advance(self, u0: float, work: float) -> float:
        """Position u1 >= u0 such that ``integral(u0, u1) == work``.

        Returns 1.0 (clamped) if the remaining work from ``u0`` is less
        than ``work``.
        """
        if self._uniform:
            return min(1.0, u0 + work)
        cum = self._cum
        target = self._cum_at(u0) + work
        if target >= cum[-1]:
            return 1.0
        # Binary search over the (non-decreasing) cumulative grid - the
        # index np.searchsorted(side="right") gives - then linear interp.
        idx = bisect_right(self._cum_keys, float(target)) - 1
        idx = min(max(idx, 0), self.resolution - 1)
        seg_lo = cum[idx]
        seg_hi = cum[idx + 1]
        frac = 0.0 if seg_hi <= seg_lo else (target - seg_lo) / (seg_hi - seg_lo)
        # The cum -> position roundtrip can lose an ulp; advancing by
        # non-negative work must never move backwards.
        return max(u0, (idx + frac) / self.resolution)


@dataclass
class WorkRegion:
    """A contiguous slice of a kernel's iteration space owned by a device.

    ``n_total`` is the kernel's full iteration count; the region covers
    items ``[start_item, stop_item)``.  ``consume`` converts device work
    capacity (in average-cost item units) into items completed.
    """

    profile: CostProfile
    n_total: float
    start_item: float
    stop_item: float

    def __post_init__(self) -> None:
        if self.n_total <= 0:
            raise SimulationError("WorkRegion: n_total must be positive")
        if not (0.0 <= self.start_item <= self.stop_item <= self.n_total + 1e-6):
            raise SimulationError(
                f"WorkRegion: bad item range [{self.start_item}, {self.stop_item}) "
                f"of {self.n_total}")
        self._pos = self.start_item

    @classmethod
    def for_span(cls, profile: CostProfile, n_total: float,
                 start_item: float, stop_item: float) -> "WorkRegion":
        """Region covering items [start_item, stop_item)."""
        return cls(profile=profile, n_total=n_total,
                   start_item=start_item, stop_item=stop_item)

    @classmethod
    def empty(cls, profile: CostProfile, n_total: float) -> "WorkRegion":
        """A region with no items (device not participating)."""
        return cls(profile=profile, n_total=n_total, start_item=0.0, stop_item=0.0)

    # -- queries -------------------------------------------------------------

    @property
    def position(self) -> float:
        """Current item position (items at lower indices are done)."""
        return self._pos

    @property
    def items_done(self) -> float:
        return self._pos - self.start_item

    # The simulator reads progress as ``stop_item - _pos`` compares:
    # ``items_remaining > eps`` is exactly ``stop_item - _pos > eps``
    # (for any eps >= 0, NaN included), and ``is_done`` its negation.

    @property
    def items_remaining(self) -> float:
        return max(0.0, self.stop_item - self._pos)

    @property
    def work_remaining(self) -> float:
        """Remaining work in average-item units."""
        pos = self._pos
        if not self.stop_item - pos > 0.0:
            return 0.0
        n_total = self.n_total
        return (self.profile.integral(pos / n_total, self.stop_item / n_total)
                * n_total)

    @property
    def is_done(self) -> bool:
        return not self.stop_item - self._pos > _DONE_EPS

    # -- mutation ------------------------------------------------------------

    def consume(self, work_capacity: float) -> float:
        """Spend up to ``work_capacity`` average-item units; return items done.

        If the region completes with capacity to spare, only the work
        actually present is consumed (callers can query
        :attr:`is_done`).
        """
        if work_capacity < 0:
            raise SimulationError("consume: negative work capacity")
        pos = self._pos
        stop = self.stop_item
        if not stop - pos > _DONE_EPS or work_capacity == 0:
            return 0.0
        n_total = self.n_total
        u_stop = stop / n_total
        u1 = self.profile.advance(pos / n_total, work_capacity / n_total)
        new_pos = (u_stop if u_stop < u1 else u1) * n_total
        self._pos = new_pos
        return new_pos - pos

    def time_to_complete(self, item_rate: float) -> float:
        """Time for a device at ``item_rate`` (avg items/s) to finish."""
        if not self.stop_item - self._pos > _DONE_EPS:
            return 0.0
        if item_rate <= 0:
            return float("inf")
        return self.work_remaining / item_rate


def split_for_offload(profile: CostProfile, n_kernel_items: float,
                      start_item: float, stop_item: float,
                      alpha: float) -> "tuple[WorkRegion, WorkRegion]":
    """Split the unprocessed slice ``[start_item, stop_item)`` by GPU ratio.

    ``n_kernel_items`` is the kernel's *full* iteration count (the cost
    profile spans it); the slice being split is whatever remains after
    profiling.  Mirrors the runtime's layout: the GPU is handed the
    leading ``alpha`` fraction as one contiguous offload block and the
    CPU workers steal through the trailing block.  Returns
    ``(gpu_region, cpu_region)``.
    """
    span = stop_item - start_item
    boundary = start_item + alpha * span
    gpu = WorkRegion.for_span(profile, n_kernel_items, start_item, boundary)
    cpu = WorkRegion.for_span(profile, n_kernel_items, boundary, stop_item)
    return gpu, cpu
