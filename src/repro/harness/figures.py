"""Regenerators for every table and figure in the paper's evaluation.

Each ``regenerate_*`` function runs the corresponding experiment on the
simulated platforms and returns a result object carrying both the raw
data (for tests and benchmarks) and a ``render()`` method that prints
the same rows/series the paper reports.

Index (see DESIGN.md for the full mapping):

* Fig. 1  - CC energy/performance vs GPU offload ratio (desktop)
* Fig. 2  - package power timeline, memory-bound 90/10, both platforms
* Fig. 3  - compute- vs memory-bound co-execution power (desktop)
* Fig. 4  - ten short GPU bursts dropping desktop package power
* Fig. 5  - desktop power characterization (8 categories + polynomials)
* Fig. 6  - tablet power characterization
* Table 1 - workload statistics and classification
* Fig. 9  - desktop EDP efficiency vs Oracle
* Fig. 10 - desktop energy efficiency vs Oracle
* Fig. 11 - tablet EDP efficiency vs Oracle
* Fig. 12 - tablet energy efficiency vs Oracle
* chaos   - robustness chaos campaign: EAS under swept fault injection
  (not a paper figure; see docs/ROBUSTNESS.md)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.categories import WorkloadCategory, all_categories
from repro.core.characterization import (
    PlatformCharacterization,
    measure_power,
    offload_phase,
)
from repro.core.classification import ClassificationInputs, OnlineClassifier
from repro.core.metrics import EDP, ENERGY, EnergyMetric
from repro.errors import UnknownNameError, closest_names
from repro.harness.chaos import regenerate_chaos
from repro.harness.crashchaos import regenerate_crash_chaos
from repro.harness.engine import KIND_MICROBENCH_TIMELINE, RunSpec, get_default_engine
from repro.harness.report import format_bar_chart, format_series, format_table, heading
from repro.harness.suite import (
    AlphaSweep,
    SuiteEvaluation,
    evaluate_suite,
    get_characterization,
    sweep_alphas,
)
from repro.runtime.runtime import ConcordRuntime
from repro.soc.simulator import IntegratedProcessor
from repro.soc.spec import PlatformSpec, baytrail_tablet, haswell_desktop
from repro.soc.trace import PowerTrace
from repro.soc.work import CostProfile
from repro.workloads.base import Workload
from repro.workloads.microbench import microbench_for
from repro.workloads.registry import suite_workloads, workload_by_abbrev

#: Sweeps are metric-independent and expensive; cache per process.
#: Keyed by (platform name, tick mode, workload) - the clock mode is
#: part of the simulation identity, so exact/fast runs never alias.
_sweep_cache: Dict[Tuple[str, str, str], AlphaSweep] = {}


def _cached_sweep(spec: PlatformSpec, workload: Workload,
                  tablet: bool) -> AlphaSweep:
    key = (spec.name, spec.tick_mode, workload.abbrev)
    sweep = _sweep_cache.get(key)
    if sweep is None:
        sweep = sweep_alphas(spec, workload, tablet=tablet)
        _sweep_cache[key] = sweep
    return sweep


def clear_caches() -> None:
    """Drop cached sweeps (used by ablation benchmarks)."""
    _sweep_cache.clear()


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

@dataclass
class Figure1Result:
    """CC on the desktop: energy and runtime vs GPU offload percent."""

    alphas: List[float]
    times_s: List[float]
    energies_j: List[float]

    @property
    def min_energy_alpha(self) -> float:
        return self.alphas[int(np.argmin(self.energies_j))]

    @property
    def best_perf_alpha(self) -> float:
        return self.alphas[int(np.argmin(self.times_s))]

    def render(self) -> str:
        rows = [(f"{a * 100:.0f}%", t, e, e * t)
                for a, t, e in zip(self.alphas, self.times_s, self.energies_j)]
        table = format_table(
            ["GPU offload", "time (s)", "energy (J)", "EDP (J*s)"], rows)
        return "\n".join([
            heading("Figure 1: Connected Components on the desktop"),
            table,
            "",
            f"minimum energy at {self.min_energy_alpha * 100:.0f}% GPU offload "
            f"(paper: 90%)",
            f"best performance at {self.best_perf_alpha * 100:.0f}% GPU offload "
            f"(paper: 60%)",
        ])


def regenerate_figure_1(tick_mode: Optional[str] = None) -> Figure1Result:
    spec = haswell_desktop(tick_mode=tick_mode)
    workload = workload_by_abbrev("CC")
    sweep = _cached_sweep(spec, workload, tablet=False)
    return Figure1Result(
        alphas=list(sweep.alphas),
        times_s=[r.time_s for r in sweep.runs],
        energies_j=[r.energy_j for r in sweep.runs])


# ---------------------------------------------------------------------------
# Figures 2-4: power timelines
# ---------------------------------------------------------------------------

def _run_microbench_partitioned(spec: PlatformSpec, category_code: str,
                                alpha: float, n_items: float,
                                repetitions: int = 1,
                                gap_s: float = 0.05) -> PowerTrace:
    """Run a characterization micro-benchmark at a fixed split with
    tracing on; repetitions are separated by idle gaps (Fig. 4)."""
    from repro.core.categories import category_from_codes

    bench = microbench_for(category_from_codes(category_code))
    processor = IntegratedProcessor(spec, trace_enabled=True)
    profile = CostProfile(bench.cost)
    for _ in range(repetitions):
        processor.run_phase(offload_phase(profile, n_items, alpha))
        if repetitions > 1:
            processor.idle(gap_s)
    return processor.trace


def _items_for_duration(spec: PlatformSpec, category_code: str,
                        cpu_seconds: float) -> float:
    """Iteration count that keeps a micro-benchmark's CPU-alone run at
    roughly ``cpu_seconds`` on this platform."""
    from repro.core.categories import category_from_codes

    bench = microbench_for(category_from_codes(category_code))
    probe = measure_power(spec, bench.cost, 50_000.0, 0.0)
    return max(50_000.0 * cpu_seconds / probe.time_s, 1000.0)


@dataclass
class TimelineResult:
    """A labelled set of power timelines."""

    title: str
    series: Dict[str, Tuple[np.ndarray, np.ndarray]]
    notes: List[str] = field(default_factory=list)

    def fingerprint(self) -> str:
        """SHA-256 over the resampled series bytes and the notes."""
        import hashlib

        digest = hashlib.sha256(self.title.encode())
        for label in sorted(self.series):
            times, watts = self.series[label]
            digest.update(label.encode())
            digest.update(np.asarray(times, dtype=np.float64).tobytes())
            digest.update(np.asarray(watts, dtype=np.float64).tobytes())
        for note in self.notes:
            digest.update(note.encode())
        return digest.hexdigest()

    def render(self) -> str:
        parts = [heading(self.title)]
        for label, (times, watts) in self.series.items():
            parts.append(f"\n--- {label} ---")
            parts.append(format_series(list(times), list(watts)))
        if self.notes:
            parts.append("")
            parts.extend(self.notes)
        return "\n".join(parts)


def regenerate_figure_2(tick_mode: Optional[str] = None) -> TimelineResult:
    """Memory-bound workload, 90% GPU / 10% CPU, on both platforms."""
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    notes: List[str] = []
    # The paper's Fig. 2 application is memory-bound with a GPU that
    # finishes its 90% share long before the CPU finishes 10% - the
    # GPU-biased memory cell (M-LS) of the taxonomy.  The two platform
    # timelines are independent simulations: one engine batch.
    platforms = ((baytrail_tablet(tick_mode=tick_mode), "Bay Trail tablet"),
                 (haswell_desktop(tick_mode=tick_mode), "Haswell desktop"))
    results = get_default_engine().run_batch([
        RunSpec(platform=spec, kind=KIND_MICROBENCH_TIMELINE,
                workload="M-LS",
                params=(("alpha", 0.9), ("cpu_seconds", 2.0)))
        for spec, _ in platforms])
    for (spec, label), result in zip(platforms, results):
        trace = result.payload
        interval = trace.duration / 60.0
        series[label] = trace.resample(interval)
        co = trace.average_power_while(True)
        tail = trace.average_power_while(False)
        direction = "drops" if tail < co else "rises"
        notes.append(
            f"{label}: co-execution {co:.2f} W, CPU-only tail {tail:.2f} W "
            f"-> package power {direction} when only the CPU is active "
            f"(paper: drops on Bay Trail, rises on Haswell)")
    return TimelineResult(
        title="Figure 2: package power, memory-bound 90/10 GPU-CPU split",
        series=series, notes=notes)


def regenerate_figure_3(tick_mode: Optional[str] = None) -> TimelineResult:
    """Long compute- vs memory-bound co-execution on the desktop."""
    spec = haswell_desktop(tick_mode=tick_mode)
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    notes: List[str] = []
    averages: Dict[str, float] = {}
    cells = (("C-LL", "compute-bound"), ("M-LL", "memory-bound"))
    results = get_default_engine().run_batch([
        RunSpec(platform=spec, kind=KIND_MICROBENCH_TIMELINE, workload=code,
                params=(("alpha", 0.5), ("cpu_seconds", 2.5)))
        for code, _ in cells])
    for (_, label), result in zip(cells, results):
        trace = result.payload
        interval = trace.duration / 60.0
        series[label] = trace.resample(interval)
        averages[label] = trace.average_power_while(True)
        notes.append(f"{label}: average co-execution package power "
                     f"{averages[label]:.1f} W")
    notes.append(
        f"memory-bound exceeds compute-bound by "
        f"{averages['memory-bound'] - averages['compute-bound']:.1f} W "
        f"(paper: ~63 W vs ~55 W)")
    return TimelineResult(
        title="Figure 3: desktop co-execution power, compute vs memory bound",
        series=series, notes=notes)


def regenerate_figure_4(tick_mode: Optional[str] = None) -> TimelineResult:
    """Ten short GPU bursts on a memory-bound workload (desktop)."""
    [result] = get_default_engine().run_batch([
        RunSpec(platform=haswell_desktop(tick_mode=tick_mode),
                kind=KIND_MICROBENCH_TIMELINE, workload="M-LL",
                params=(("alpha", 0.05), ("cpu_seconds", 0.45),
                        ("repetitions", 10), ("gap_s", 0.5)))])
    trace = result.payload
    interval = trace.duration / 120.0
    # Steady CPU-phase power: GPU idle, CPU actually executing (the
    # idle gaps between the ten executions are excluded).
    cpu_phase = [s for s in trace.samples if not s.gpu_active and s.cpu_w > 5.0]
    steady = (sum(s.package_w * s.dt for s in cpu_phase)
              / sum(s.dt for s in cpu_phase))
    dip = trace.min_power_while_gpu_active()
    notes = [
        f"steady CPU-phase package power: {steady:.1f} W (paper: ~60 W)",
        f"minimum package power during GPU bursts: {dip:.1f} W "
        f"(paper: < ~40 W)",
        f"number of GPU-active intervals: {len(trace.gpu_active_intervals())}",
    ]
    return TimelineResult(
        title="Figure 4: desktop package power, 10 short GPU bursts "
              "(memory-bound, alpha=0.05)",
        series={"desktop": trace.resample(interval)}, notes=notes)


# ---------------------------------------------------------------------------
# Figures 5-6: characterization curves
# ---------------------------------------------------------------------------

@dataclass
class CharacterizationFigure:
    """Eight power curves with their fitted polynomial equations."""

    platform: str
    characterization: PlatformCharacterization

    def curve_samples(self, code: str) -> Tuple[List[float], List[float]]:
        from repro.core.categories import category_from_codes

        curve = self.characterization.curve_for(category_from_codes(code))
        return list(curve.sample_alphas), list(curve.sample_powers)

    def render(self) -> str:
        parts = [heading(f"Power characterization: {self.platform} "
                         f"(8 categories, 6th-order fits)")]
        for category in all_categories():
            curve = self.characterization.curve_for(category)
            grid = [curve.power(a) for a in np.linspace(0, 1, 11)]
            rows = [(f"{a * 10:.0f}0%", p) for a, p in zip(range(0, 11), grid)]
            parts.append(f"\n[{category.short_code}] {category}")
            parts.append(f"  {curve.equation()}")
            parts.append(f"  fit RMS error: {curve.fit_residual_rms():.3f} W")
            parts.append(format_table(["GPU offload", "P(alpha) W"], rows))
        return "\n".join(parts)


def regenerate_figure_5(tick_mode: Optional[str] = None
                        ) -> CharacterizationFigure:
    spec = haswell_desktop(tick_mode=tick_mode)
    return CharacterizationFigure(platform=spec.name,
                                  characterization=get_characterization(spec))


def regenerate_figure_6(tick_mode: Optional[str] = None
                        ) -> CharacterizationFigure:
    spec = baytrail_tablet(tick_mode=tick_mode)
    return CharacterizationFigure(platform=spec.name,
                                  characterization=get_characterization(spec))


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    """Workload statistics plus measured online classification."""

    rows: List[Tuple[str, str, str, str, int, str, str, str, str]]

    def render(self) -> str:
        headers = ["Name", "Abbrv.", "Input (Desktop)", "Input (Tablet)",
                   "Num. invocations", "Reg/Irreg", "C/M", "CPU S/L",
                   "GPU S/L"]
        return "\n".join([
            heading("Table 1: benchmark statistics "
                    "(C/M and S/L measured by online classification)"),
            format_table(headers, self.rows),
        ])


def _measure_classification(spec: PlatformSpec,
                            workload: Workload) -> WorkloadCategory:
    """One online-profiling round on a fresh processor -> category."""
    processor = IntegratedProcessor(spec)
    runtime = ConcordRuntime(processor)
    kernel = workload.make_kernel()
    invocations = workload.invocations()
    biggest = max(invocations, key=lambda i: i.n_items)
    from repro.runtime.runtime import KernelLaunch

    launch = KernelLaunch(processor, kernel, biggest.n_items,
                          runtime._cost_profile(kernel))
    chunk = min(float(spec.gpu_profile_size), biggest.n_items * 0.5)
    observation = launch.profile_chunk(chunk)
    classifier = OnlineClassifier()
    return classifier.classify(ClassificationInputs(
        l3_misses=observation.counters.l3_misses,
        loadstore_instructions=observation.counters.loadstore_instructions,
        cpu_throughput=observation.cpu_throughput,
        gpu_throughput=observation.gpu_throughput,
        remaining_items=launch.remaining_items))


def regenerate_table_1(tick_mode: Optional[str] = None) -> Table1Result:
    spec = haswell_desktop(tick_mode=tick_mode)
    rows = []
    for workload in suite_workloads(tablet=False):
        category = _measure_classification(spec, workload)
        rows.append((
            workload.name,
            workload.abbrev,
            workload.input_desktop,
            workload.input_tablet if workload.tablet_supported else "N/A",
            workload.num_invocations,
            "R" if workload.regular else "IR",
            category.boundedness.short_code,
            category.cpu_duration.short_code,
            category.gpu_duration.short_code,
        ))
    return Table1Result(rows=rows)


# ---------------------------------------------------------------------------
# Figures 9-12: Oracle-relative efficiency
# ---------------------------------------------------------------------------

@dataclass
class EfficiencyFigure:
    """One of Figs. 9-12: per-workload Oracle-relative efficiency."""

    title: str
    paper_averages: Dict[str, float]
    evaluation: SuiteEvaluation

    def efficiency(self, workload: str, strategy: str) -> float:
        return self.evaluation.outcome(workload, strategy).efficiency_pct

    def average(self, strategy: str) -> float:
        return self.evaluation.average_efficiency_pct(strategy)

    def render(self) -> str:
        strategies = self.evaluation.strategies
        rows = []
        for workload in self.evaluation.workloads():
            rows.append([workload] + [
                self.efficiency(workload, s) for s in strategies])
        rows.append(["AVERAGE"] + [self.average(s) for s in strategies])
        table = format_table(["Workload"] + strategies, rows, float_digits=1)
        bars = format_bar_chart(
            strategies, [self.average(s) for s in strategies],
            unit="%", maximum=100.0)
        paper = ", ".join(f"{k}={v:.1f}%" for k, v in self.paper_averages.items())
        return "\n".join([
            heading(self.title),
            "Efficiency relative to Oracle (100% = Oracle, higher is better)",
            "",
            table,
            "",
            "Average efficiency:",
            bars,
            "",
            f"Paper's averages: {paper}",
        ])


def _efficiency_figure(spec: PlatformSpec, tablet: bool, metric: EnergyMetric,
                       title: str,
                       paper_averages: Dict[str, float]) -> EfficiencyFigure:
    workloads = suite_workloads(tablet=tablet)
    # Hand evaluate_suite only the sweeps already memoized: missing
    # ones then belong to its single engine batch (parallel across
    # workloads) instead of being forced serially here, and the batch
    # results backfill the memo for the sibling figures.
    sweeps = {w.abbrev: _sweep_cache[(spec.name, spec.tick_mode, w.abbrev)]
              for w in workloads
              if (spec.name, spec.tick_mode, w.abbrev) in _sweep_cache}
    evaluation = evaluate_suite(spec, workloads, metric, tablet=tablet,
                                sweeps=sweeps)
    for abbrev, sweep in evaluation.sweeps.items():
        _sweep_cache.setdefault((spec.name, spec.tick_mode, abbrev), sweep)
    return EfficiencyFigure(title=title, paper_averages=paper_averages,
                            evaluation=evaluation)


def regenerate_figure_9(tick_mode: Optional[str] = None) -> EfficiencyFigure:
    return _efficiency_figure(
        haswell_desktop(tick_mode=tick_mode), tablet=False, metric=EDP,
        title="Figure 9: relative EDP efficiency vs Oracle (desktop)",
        paper_averages={"GPU": 79.6, "PERF": 83.9, "EAS": 96.2})


def regenerate_figure_10(tick_mode: Optional[str] = None) -> EfficiencyFigure:
    return _efficiency_figure(
        haswell_desktop(tick_mode=tick_mode), tablet=False, metric=ENERGY,
        title="Figure 10: relative energy-use efficiency vs Oracle (desktop)",
        paper_averages={"GPU": 95.8, "PERF": 70.4, "EAS": 97.2})


def regenerate_figure_11(tick_mode: Optional[str] = None) -> EfficiencyFigure:
    return _efficiency_figure(
        baytrail_tablet(tick_mode=tick_mode), tablet=True, metric=EDP,
        title="Figure 11: relative EDP efficiency vs Oracle (Bay Trail)",
        paper_averages={"EAS": 93.2})


def regenerate_figure_12(tick_mode: Optional[str] = None) -> EfficiencyFigure:
    return _efficiency_figure(
        baytrail_tablet(tick_mode=tick_mode), tablet=True, metric=ENERGY,
        title="Figure 12: relative energy-use efficiency vs Oracle (Bay Trail)",
        paper_averages={"EAS": 96.4})


# ---------------------------------------------------------------------------
# Fleet dispatch (not a paper figure; see docs/FLEET.md)
# ---------------------------------------------------------------------------

def regenerate_fleet(tick_mode: Optional[str] = None):
    """All five placement policies over a 64-node fleet, bursty trace.

    Returns a :class:`~repro.fleet.dispatcher.FleetComparisonResult`.
    Defaults to the ``fast`` clock (a fleet run is many full
    application executions; the exact clock is available via
    ``python -m repro fleet --tick-mode exact``).
    """
    from repro.fleet.dispatcher import compare_fleet_policies
    from repro.fleet.topology import FleetSpec
    from repro.fleet.trace import TraceSpec

    fleet = FleetSpec(n_nodes=64, desktop_fraction=0.5,
                      tick_mode=tick_mode or "fast")
    trace = TraceSpec(kind="bursty", duration_s=60.0, mean_rate_hz=4.0)
    return compare_fleet_policies(fleet, trace)


# ---------------------------------------------------------------------------
# Objectives: constrained EAS vs race-to-idle vs plain EAS, plus a
# carbon-aware fleet cell (not a paper figure; see docs/OBJECTIVES.md)
# ---------------------------------------------------------------------------

#: Workloads the objectives comparison sweeps (tablet-supported, one
#: regular and one irregular).
_OBJECTIVES_WORKLOADS: Tuple[str, ...] = ("MB", "BS")
#: Per-invocation deadline budgets, as multiples of the baseline EAS
#: run's mean invocation time: loose (met by riding the energy-optimal
#: alpha) and tight (forces faster-but-hungrier operating points).
_OBJECTIVES_LOOSE_FACTOR = 1.5
_OBJECTIVES_TIGHT_FACTOR = 0.25


@dataclass
class ObjectivesResult:
    """Deadline-constrained and carbon-aware objective comparison.

    ``rows`` holds one line per (platform, workload, strategy):
    baseline EAS, deadline-constrained EAS (loose budget), and
    race-to-idle on the same budget.  ``infeasible`` audits the tight
    budget: how many invocations exited ``deadline-infeasible``.
    ``carbon_rows`` compares a carbon-priced fleet cell with and
    without temporal shifting.
    """

    rows: List[Tuple[str, str, str, float, float, float]]
    #: (platform, workload, deadline_s, infeasible exits, invocations)
    infeasible: List[Tuple[str, str, float, int, int]]
    carbon_rows: List[Tuple[str, str]]
    #: (unshifted, shifted) carbon fleet fingerprints.
    fleet_fingerprints: Tuple[str, str]

    def fingerprint(self) -> str:
        import hashlib

        lines = [f"row|{p}|{w}|{s}|{t!r}|{e!r}|{m!r}"
                 for p, w, s, t, e, m in self.rows]
        lines += [f"tight|{p}|{w}|{d!r}|{n}|{total}"
                  for p, w, d, n, total in self.infeasible]
        lines += [f"carbon|{k}|{v}" for k, v in self.carbon_rows]
        lines += [f"fleet|{fp}" for fp in self.fleet_fingerprints]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def render(self) -> str:
        strategy_rows = [
            (p, w, s, f"{t:.4f}", f"{e:.1f}", f"{m:.2f}")
            for p, w, s, t, e, m in self.rows]
        tight_rows = [
            (p, w, f"{d:.4f}", f"{n}/{total}")
            for p, w, d, n, total in self.infeasible]
        return "\n".join([
            heading("Objectives: deadline-constrained EAS vs "
                    "race-to-idle (docs/OBJECTIVES.md)"),
            format_table(
                ["platform", "workload", "strategy", "time (s)",
                 "energy (J)", "EDP"], strategy_rows),
            "",
            "Tight budgets (deadline-infeasible exits / invocations):",
            format_table(["platform", "workload", "deadline (s)",
                          "infeasible"], tight_rows),
            "",
            "Carbon-aware fleet cell (diurnal trace):",
            format_table(["quantity", "value"], self.carbon_rows),
            "",
            f"fingerprint: {self.fingerprint()}",
        ])


def regenerate_objectives(tick_mode: Optional[str] = None
                          ) -> ObjectivesResult:
    """Both platforms x (EAS, constrained EAS, race-to-idle), plus a
    carbon-priced fleet cell with and without temporal shifting.

    All application runs go through the engine (parallel under
    ``--jobs N``, byte-identical fingerprints either way); deadlines
    derive deterministically from the baseline EAS runs.
    """
    from dataclasses import replace

    from repro.fleet.dispatcher import run_fleet
    from repro.fleet.topology import FleetSpec
    from repro.fleet.trace import TraceSpec
    from repro.core.metrics import ConstrainedMetric
    from repro.core.scheduler import EnergyAwareScheduler
    from repro.harness.engine import SchedulerSpec
    from repro.harness.experiment import run_application
    from repro.obs.records import EXIT_DEADLINE_INFEASIBLE
    from repro.soc.carbon import CarbonSpec

    engine = get_default_engine()
    platforms = [("desktop", haswell_desktop(tick_mode=tick_mode or "fast"),
                  False),
                 ("tablet", baytrail_tablet(tick_mode=tick_mode or "fast"),
                  True)]
    cells = [(name, spec, tablet, abbrev)
             for name, spec, tablet in platforms
             for abbrev in _OBJECTIVES_WORKLOADS]

    # Phase 1: baseline EAS runs set the deadline scale per cell.
    base_specs = [RunSpec(platform=spec, workload=abbrev,
                          scheduler=SchedulerSpec.eas("edp"), tablet=tablet)
                  for _, spec, tablet, abbrev in cells]
    base_runs = [r.payload for r in engine.run_batch(base_specs)]
    budgets = []
    for run in base_runs:
        mean_inv_s = run.time_s / max(len(run.invocations), 1)
        budgets.append((round(_OBJECTIVES_LOOSE_FACTOR * mean_inv_s, 6),
                        round(_OBJECTIVES_TIGHT_FACTOR * mean_inv_s, 6)))

    # Phase 2: one batch covering every strategy cell.
    strategy_specs = []
    labels = []
    for (name, spec, tablet, abbrev), (loose, _) in zip(cells, budgets):
        constrained = f"edp@{loose:g}"
        for label, scheduler in [
                ("EAS", SchedulerSpec.eas("edp")),
                (f"EAS[{constrained}]", SchedulerSpec.eas(constrained)),
                (f"RACE[{loose:g}s]", SchedulerSpec.race(loose))]:
            strategy_specs.append(RunSpec(
                platform=spec, workload=abbrev, scheduler=scheduler,
                tablet=tablet))
            labels.append((name, abbrev, label))
    strategy_runs = [r.payload for r in engine.run_batch(strategy_specs)]
    rows = [(name, abbrev, label, run.time_s, run.energy_j,
             run.energy_j * run.time_s)
            for (name, abbrev, label), run in zip(labels, strategy_runs)]

    # Tight-budget audit (direct run: the engine payload does not
    # carry decision records, and this run is deterministic anyway).
    infeasible = []
    for (name, spec, tablet, abbrev), (_, tight) in zip(cells, budgets):
        if abbrev != _OBJECTIVES_WORKLOADS[0]:
            continue
        scheduler = EnergyAwareScheduler(
            get_characterization(spec),
            ConstrainedMetric.constrain(EDP, tight))
        run_application(spec, workload_by_abbrev(abbrev), scheduler,
                        "EAS", tablet=tablet)
        exits = [r.exit_path for r in scheduler.decisions]
        infeasible.append((name, abbrev, tight,
                           exits.count(EXIT_DEADLINE_INFEASIBLE),
                           len(exits)))

    # Carbon-aware fleet cell: same diurnal trace, shifted vs not.
    carbon = CarbonSpec(period_s=60.0)
    fleet = FleetSpec(n_nodes=8, desktop_fraction=0.5,
                      tick_mode=tick_mode or "fast", carbon=carbon)
    trace = TraceSpec(kind="diurnal", duration_s=60.0, mean_rate_hz=1.0,
                      workloads=_OBJECTIVES_WORKLOADS)
    unshifted = run_fleet(fleet, trace, policy="energy_aware",
                          engine=engine)
    shifted = run_fleet(fleet, replace(trace, deferral_fraction=0.8),
                        policy="energy_aware", engine=engine)
    carbon_rows = [
        ("carbon, no shifting", f"{unshifted.total_carbon_g:.3f} g CO2"),
        ("carbon, shifted", f"{shifted.total_carbon_g:.3f} g CO2"),
        ("low-carbon energy (shifted)",
         f"{shifted.low_carbon_energy_fraction():.1%} of deferrable "
         f"energy below median intensity"),
    ]
    return ObjectivesResult(
        rows=rows, infeasible=infeasible, carbon_rows=carbon_rows,
        fleet_fingerprints=(unshifted.fingerprint(), shifted.fingerprint()))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGENERATORS = {
    "fig1": regenerate_figure_1,
    "fig2": regenerate_figure_2,
    "fig3": regenerate_figure_3,
    "fig4": regenerate_figure_4,
    "fig5": regenerate_figure_5,
    "fig6": regenerate_figure_6,
    "table1": regenerate_table_1,
    "fig9": regenerate_figure_9,
    "fig10": regenerate_figure_10,
    "fig11": regenerate_figure_11,
    "fig12": regenerate_figure_12,
    "chaos": regenerate_chaos,
    "crashchaos": regenerate_crash_chaos,
    "fleet": regenerate_fleet,
    "objectives": regenerate_objectives,
}


def experiment_id(name: str) -> str:
    """Normalize an experiment name: ``9``/``fig9``/``FIG9`` -> ``fig9``.

    Raises :class:`~repro.errors.UnknownNameError` (a
    :class:`~repro.errors.HarnessError`) with did-you-mean suggestions
    when the result is not a registered experiment.
    """
    normalized = name.strip().lower()
    try:
        normalized = f"fig{int(normalized)}"
    except ValueError:
        pass
    if normalized not in REGENERATORS:
        raise UnknownNameError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(REGENERATORS)}",
            suggestions=closest_names(normalized, list(REGENERATORS)))
    return normalized


def regenerate(name: str):
    """Regenerate one experiment by id (e.g. ``9``, ``fig9``, ``table1``)."""
    return REGENERATORS[experiment_id(name)]()
