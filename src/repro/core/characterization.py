"""One-time platform power characterization (Section 2).

For each of the eight workload categories, a micro-benchmark is swept
across GPU offload ratios; at each ratio the average package power is
measured through the energy MSR (energy delta / time delta, exactly the
hardware protocol) and a sixth-order polynomial is fitted to the sweep.
The result - a :class:`PlatformCharacterization` mapping category to
:class:`~repro.core.power_curve.PowerCurve` - is computed **once per
processor** and reused by every subsequent scheduling decision, so it
is JSON-serializable for caching.

The characterizer is black-box: it only uses the simulated SoC's
software-visible interfaces (run work, read clock, read MSR).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.categories import WorkloadCategory, all_categories, category_from_codes
from repro.core.power_curve import DEFAULT_ORDER, PowerCurve, fit_power_curve
from repro.errors import CharacterizationError
from repro.soc.cost_model import KernelCostModel
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import PlatformSpec
from repro.soc.work import CostProfile, WorkRegion, split_for_offload

#: Default sweep step; the paper's Figs. 5-6 show dense sweeps and a
#: sixth-order fit needs at least 7 points.
DEFAULT_SWEEP_STEP = 0.05

#: Items used for the tiny single-device probe that calibrates N.
_PROBE_ITEMS = 50_000.0

#: How far ``round(1 / step) * step`` may sit from 1 for ``step`` to
#: count as dividing the alpha range.
_STEP_TOL = 1e-9

#: Finest sweep accepted: every point simulates the micro-benchmark, so
#: a grid this dense is a typo, not a measurement plan.
_MAX_SWEEP_INTERVALS = 10_000


def sweep_step_problem(sweep_step: float) -> Optional[str]:
    """Why ``sweep_step`` cannot grid [0, 1], or None when it can.

    A sweep measures alpha = 0, step, 2*step, ..., 1, so the step must
    be finite, lie in (0, 1], be no finer than 1/10000 and divide 1
    (within ``1e-9``); otherwise the grid misses the GPU-only point
    alpha = 1.0, is empty, or cannot be enumerated.
    Whether the grid holds enough points for the fit is the fit's own
    check.
    """
    if not math.isfinite(sweep_step) or not 0.0 < sweep_step <= 1.0:
        return f"sweep_step {sweep_step!r} must be finite and in (0, 1]"
    if 1.0 / sweep_step > _MAX_SWEEP_INTERVALS:
        return (f"sweep_step {sweep_step!r} is finer than "
                f"1/{_MAX_SWEEP_INTERVALS}")
    if abs(round(1.0 / sweep_step) * sweep_step - 1.0) > _STEP_TOL:
        return f"sweep_step {sweep_step!r} does not divide 1"
    return None


@dataclass(frozen=True)
class CharacterizationMicrobench:
    """One of the eight probing micro-benchmarks.

    ``cpu_target_s`` is the intended CPU-alone duration; the
    characterizer calibrates the iteration count to hit it.  The GPU
    duration then follows from the cost model's device bias, which is
    what distinguishes e.g. (CPU short, GPU long) - the CPU-biased
    cell - from the balanced cells.
    """

    category: WorkloadCategory
    cost: KernelCostModel
    cpu_target_s: float
    #: Back-to-back executions per measurement.  Short-category probes
    #: are measured over several repeated launches because that is how
    #: short kernels occur in practice (one launch per BFS frontier,
    #: per frame, per batch); a single cold run would bake the PCU's
    #: one-off activation transient into the whole curve.
    repetitions: int = 1


@dataclass
class PlatformCharacterization:
    """Category -> power curve table for one processor."""

    platform_name: str
    curves: Dict[WorkloadCategory, PowerCurve] = field(default_factory=dict)

    def curve_for(self, category: WorkloadCategory) -> PowerCurve:
        try:
            return self.curves[category]
        except KeyError:
            raise CharacterizationError(
                f"platform {self.platform_name!r} has no curve for "
                f"category {category}") from None

    @property
    def is_complete(self) -> bool:
        return all(c in self.curves for c in all_categories())

    # -- caching ----------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "platform": self.platform_name,
            "curves": {
                cat.short_code: {
                    "coefficients": list(curve.coefficients),
                    "sample_alphas": list(curve.sample_alphas),
                    "sample_powers": list(curve.sample_powers),
                    "label": curve.label,
                }
                for cat, curve in self.curves.items()
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PlatformCharacterization":
        payload = json.loads(text)
        curves = {}
        for code, data in payload["curves"].items():
            curves[category_from_codes(code)] = PowerCurve(
                coefficients=tuple(data["coefficients"]),
                sample_alphas=tuple(data["sample_alphas"]),
                sample_powers=tuple(data["sample_powers"]),
                label=data.get("label", ""),
            )
        return cls(platform_name=payload["platform"], curves=curves)


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a characterization sweep."""

    alpha: float
    power_w: float
    time_s: float


def offload_phase(profile: CostProfile, n_items: float,
                  alpha: float) -> PhaseRequest:
    """One phase of ``n_items`` with fraction ``alpha`` on the GPU:
    CPU-alone at ``alpha <= 0``, GPU-alone at ``alpha >= 1``."""
    if alpha <= 0.0 or alpha >= 1.0:
        region = WorkRegion.for_span(profile, n_items, 0.0, n_items)
        gpu_region, cpu_region = ((region, None) if alpha >= 1.0
                                  else (None, region))
    else:
        gpu_region, cpu_region = split_for_offload(
            profile, n_items, 0.0, n_items, alpha)
    return PhaseRequest(cost=profile.cost_model, cpu_region=cpu_region,
                        gpu_region=gpu_region)


def measure_power(spec: PlatformSpec, cost: KernelCostModel, n_items: float,
                  alpha: float, repetitions: int = 1) -> SweepPoint:
    """Run a micro-benchmark at ``alpha`` on a fresh ``spec`` processor.

    Average package power comes from the energy MSR over one window of
    ``repetitions`` back-to-back executions (see
    :class:`CharacterizationMicrobench.repetitions`).
    """
    processor = IntegratedProcessor(spec)
    profile = CostProfile(cost)
    t0 = processor.now
    msr0 = processor.read_energy_msr()
    for _ in range(max(1, repetitions)):
        processor.run_phase(offload_phase(profile, n_items, alpha))
    msr1 = processor.read_energy_msr()
    elapsed = processor.now - t0
    if elapsed <= 0:
        raise CharacterizationError("measurement window has zero length")
    energy = processor.energy_joules_between(msr0, msr1)
    return SweepPoint(alpha=alpha, power_w=energy / elapsed,
                      time_s=elapsed / max(1, repetitions))


class PowerCharacterizer:
    """Runs the eight-microbenchmark power characterization."""

    def __init__(self, spec: PlatformSpec,
                 microbenches: Sequence[CharacterizationMicrobench] = (),
                 sweep_step: float = DEFAULT_SWEEP_STEP,
                 fit_order: int = DEFAULT_ORDER) -> None:
        """``spec`` names the platform; the characterizer is picklable
        and :meth:`characterize` fans its per-category sweeps out
        through an execution engine."""
        if not microbenches:
            raise CharacterizationError("no micro-benchmarks supplied")
        problem = sweep_step_problem(sweep_step)
        if problem is not None:
            raise CharacterizationError(problem)
        seen = set()
        for mb in microbenches:
            if mb.category in seen:
                raise CharacterizationError(
                    f"duplicate micro-benchmark for category {mb.category}")
            seen.add(mb.category)
        # Characterization is calibration: Table G must come out
        # identical whatever clock mode the experiments then run under,
        # so sweeps are pinned to the exact tick loop.
        self.spec = replace(spec, tick_mode="exact")
        self.microbenches = list(microbenches)
        self.sweep_step = sweep_step
        self.fit_order = fit_order

    # -- public API ---------------------------------------------------------------

    def characterize(self, engine=None) -> PlatformCharacterization:
        """Run every sweep and fit every curve.

        The sweeps run as one batch of ``char-sweep`` specs on an
        :class:`~repro.harness.engine.ExecutionEngine` (``engine``, else
        the run's default), parallel and memoized like any spec; the
        fits happen here.
        """
        from repro.harness.engine import KIND_CHAR_SWEEP, RunSpec, get_default_engine

        specs = [RunSpec(platform=self.spec, kind=KIND_CHAR_SWEEP,
                         workload=bench.category.short_code,
                         sweep_step=self.sweep_step, microbench=bench)
                 for bench in self.microbenches]
        results = (engine or get_default_engine()).run_batch(specs)
        characterization = PlatformCharacterization(
            platform_name=self.spec.name)
        for bench, result in zip(self.microbenches, results):
            points = result.payload
            characterization.curves[bench.category] = fit_power_curve(
                [p.alpha for p in points],
                [p.power_w for p in points],
                order=self.fit_order,
                label=bench.category.short_code)
        return characterization

    def sweep(self, bench: CharacterizationMicrobench) -> List[SweepPoint]:
        """Measure average package power across the alpha grid."""
        n_items = self._calibrate_items(bench)
        alphas = self._sweep_alphas()
        return [measure_power(self.spec, bench.cost, n_items, alpha,
                              repetitions=bench.repetitions)
                for alpha in alphas]

    # -- internals ---------------------------------------------------------------

    def _sweep_alphas(self) -> List[float]:
        n = int(round(1.0 / self.sweep_step))
        return [min(1.0, i * self.sweep_step) for i in range(n + 1)]

    def _calibrate_items(self, bench: CharacterizationMicrobench) -> float:
        """Scale the iteration count to hit the CPU-alone time target."""
        probe_time = measure_power(self.spec, bench.cost, _PROBE_ITEMS,
                                   0.0).time_s
        if probe_time <= 0:
            raise CharacterizationError(
                f"probe run of {bench.category} took no time")
        return max(_PROBE_ITEMS * bench.cpu_target_s / probe_time, 1000.0)
