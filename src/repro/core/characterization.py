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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.categories import WorkloadCategory, all_categories, category_from_codes
from repro.core.power_curve import DEFAULT_ORDER, PowerCurve, fit_power_curve
from repro.errors import CharacterizationError
from repro.soc.cost_model import KernelCostModel
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.work import CostProfile, WorkRegion, split_for_offload

#: Default sweep step; the paper's Figs. 5-6 show dense sweeps and a
#: sixth-order fit needs at least 7 points.
DEFAULT_SWEEP_STEP = 0.05

#: Items used for the tiny single-device probe that calibrates N.
_PROBE_ITEMS = 50_000.0


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


class PowerCharacterizer:
    """Runs the eight-microbenchmark power characterization."""

    def __init__(self,
                 processor_factory: Optional[
                     Callable[[], IntegratedProcessor]] = None,
                 microbenches: Sequence[CharacterizationMicrobench] = (),
                 sweep_step: float = DEFAULT_SWEEP_STEP,
                 fit_order: int = DEFAULT_ORDER,
                 spec=None) -> None:
        """``spec`` (a :class:`~repro.soc.spec.PlatformSpec`) is the
        declarative alternative to ``processor_factory``: it makes the
        characterizer picklable and lets :meth:`characterize` fan its
        per-category sweeps out through an execution engine.  Exactly
        the factory ``lambda: IntegratedProcessor(spec)`` is implied.
        """
        if not microbenches:
            raise CharacterizationError("no micro-benchmarks supplied")
        seen = set()
        for mb in microbenches:
            if mb.category in seen:
                raise CharacterizationError(
                    f"duplicate micro-benchmark for category {mb.category}")
            seen.add(mb.category)
        if processor_factory is None:
            if spec is None:
                raise CharacterizationError(
                    "need a processor_factory or a platform spec")
            # Characterization is calibration: Table G must come out
            # identical whatever clock mode the experiments then run
            # under, so sweeps are pinned to the exact tick loop.
            # (Callers supplying a processor_factory keep full control.)
            spec = replace(spec, tick_mode="exact")
            processor_factory = lambda: IntegratedProcessor(spec)  # noqa: E731
        self.processor_factory = processor_factory
        self.spec = spec
        self.microbenches = list(microbenches)
        self.sweep_step = sweep_step
        self.fit_order = fit_order

    # -- public API ---------------------------------------------------------------

    def characterize(self, engine=None) -> PlatformCharacterization:
        """Run every sweep and fit every curve.

        A characterizer built from a declarative ``spec`` sweeps through
        an :class:`~repro.harness.engine.ExecutionEngine` (``engine``,
        else the run's default), parallel and memoized like any spec; a
        ``processor_factory`` one sweeps inline.  Fits always happen
        here.  Measurements are deterministic, so both paths produce
        bit-identical curves.
        """
        spec_name = (self.spec.name if self.spec is not None
                     else self.processor_factory().spec.name)
        result = PlatformCharacterization(platform_name=spec_name)
        per_bench = self._sweep_all(engine)
        for bench, points in zip(self.microbenches, per_bench):
            curve = fit_power_curve(
                [p.alpha for p in points],
                [p.power_w for p in points],
                order=self.fit_order,
                label=bench.category.short_code)
            result.curves[bench.category] = curve
        return result

    def _sweep_all(self, engine) -> List[List[SweepPoint]]:
        """All sweeps: through the engine when built from a spec."""
        if self.spec is None:
            return [self.sweep(bench) for bench in self.microbenches]
        from repro.harness.engine import KIND_CHAR_SWEEP, RunSpec, get_default_engine

        specs = [RunSpec(platform=self.spec, kind=KIND_CHAR_SWEEP,
                         workload=bench.category.short_code,
                         sweep_step=self.sweep_step, microbench=bench)
                 for bench in self.microbenches]
        engine = engine or get_default_engine()
        return [result.payload for result in engine.run_batch(specs)]

    def sweep(self, bench: CharacterizationMicrobench) -> List[SweepPoint]:
        """Measure average package power across the alpha grid."""
        n_items = self._calibrate_items(bench)
        alphas = self._sweep_alphas()
        return [self._measure(bench.cost, n_items, alpha,
                              repetitions=bench.repetitions)
                for alpha in alphas]

    # -- internals ---------------------------------------------------------------

    def _sweep_alphas(self) -> List[float]:
        n = int(round(1.0 / self.sweep_step))
        return [min(1.0, i * self.sweep_step) for i in range(n + 1)]

    def _calibrate_items(self, bench: CharacterizationMicrobench) -> float:
        """Scale the iteration count to hit the CPU-alone time target."""
        probe_time = self._measure(bench.cost, _PROBE_ITEMS, 0.0).time_s
        if probe_time <= 0:
            raise CharacterizationError(
                f"probe run of {bench.category} took no time")
        return max(_PROBE_ITEMS * bench.cpu_target_s / probe_time, 1000.0)

    def _measure(self, cost: KernelCostModel, n_items: float, alpha: float,
                 repetitions: int = 1) -> SweepPoint:
        """Run the micro-benchmark at ``alpha`` on a fresh processor.

        ``repetitions`` back-to-back executions are measured as one
        window (see :class:`CharacterizationMicrobench.repetitions`).
        """
        processor = self.processor_factory()
        profile = CostProfile(cost)
        t0 = processor.now
        msr0 = processor.read_energy_msr()
        for _ in range(max(1, repetitions)):
            if alpha <= 0.0:
                region = WorkRegion.for_span(profile, n_items, 0.0, n_items)
                request = PhaseRequest(cost=cost, cpu_region=region,
                                       gpu_region=None)
            elif alpha >= 1.0:
                region = WorkRegion.for_span(profile, n_items, 0.0, n_items)
                request = PhaseRequest(cost=cost, cpu_region=None,
                                       gpu_region=region)
            else:
                gpu_region, cpu_region = split_for_offload(
                    profile, n_items, 0.0, n_items, alpha)
                request = PhaseRequest(cost=cost, cpu_region=cpu_region,
                                       gpu_region=gpu_region)
            processor.run_phase(request)
        msr1 = processor.read_energy_msr()
        elapsed = processor.now - t0
        if elapsed <= 0:
            raise CharacterizationError("measurement window has zero length")
        energy = processor.energy_joules_between(msr0, msr1)
        return SweepPoint(alpha=alpha, power_w=energy / elapsed,
                          time_s=elapsed / max(1, repetitions))
