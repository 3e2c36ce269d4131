"""The paper's shape claims as one table of rows.

Each experiment regenerates a figure or table of the paper, an ablation
of one EAS design knob, an extension the paper leaves as future work,
or the fault-injection campaign, and returns its measured quantities by
name.  Each :class:`Row` of :data:`ROWS` bounds one quantity, beside the
paper's value where there is one.  Bounds are shape-level: orderings,
and magnitudes near the paper's (EXPERIMENTS.md).  One test per
experiment regenerates it once under the benchmark clock and fails
listing every violated row.  CI runs the table serially, cold::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper_shape.py \\
        -q --benchmark-disable

Oracle sweeps are memoized per process in :mod:`repro.harness.figures`,
so later experiments on a platform reuse earlier ones' sweeps.
"""

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import pytest

from repro.core.baselines import StaticAlphaScheduler
from repro.core.categories import all_categories, category_from_codes
from repro.core.characterization import (
    PlatformCharacterization,
    PowerCharacterizer,
)
from repro.core.classification import OnlineClassifier
from repro.core.hinted import HintedEnergyAwareScheduler
from repro.core.metrics import ED2, EDP, ENERGY
from repro.core.scheduler import EnergyAwareScheduler, SchedulerConfig
from repro.harness import chaos, figures, suite
from repro.harness.experiment import run_application
from repro.soc.cost_model import KernelCostModel
from repro.soc.spec import haswell_desktop
from repro.workloads.base import Workload
from repro.workloads.connected_components import ConnectedComponents
from repro.workloads.microbench import standard_microbenches
from repro.workloads.registry import suite_workloads, workload_by_abbrev
from repro.workloads.synthetic import generate_suite


# -- rows ----------------------------------------------------------------------

class Ref(NamedTuple):
    """A bound read from another quantity of the same experiment, plus
    an offset: ``eas >= perf - 1.0`` is ``Ref("PERF avg %", -1.0)``."""

    quantity: str
    offset: float = 0.0

    def resolve(self, measured: Dict[str, Any]) -> Any:
        value = measured[self.quantity]
        return value + self.offset if self.offset else value

    def __str__(self) -> str:
        return self.quantity + (f" {self.offset:+g}" if self.offset else "")


_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "==": operator.eq, "contains": operator.contains,
    "in open": lambda x, bound: bound[0] < x < bound[1],
    "in closed": lambda x, bound: bound[0] <= x <= bound[1],
}


def _text(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else repr(value)


@dataclass(frozen=True)
class Row:
    """One checked quantity of one experiment:
    ``experiment()[quantity] <op> bound``."""

    experiment: Callable[[], Dict[str, Any]]
    quantity: str
    op: str
    #: A constant, a ``(low, high)`` pair for the interval ops, or a
    #: :class:`Ref` to another measured quantity.
    bound: Any
    #: The paper's value, or None for ablations and extensions.
    paper: Optional[str] = None

    def verdict(self, measured: Dict[str, Any]) -> Tuple[bool, str]:
        """Whether the row holds, and its report line."""
        line = (f"{self.experiment.__name__} | {self.quantity} | "
                f"paper {self.paper or '-'} | ")
        ref = isinstance(self.bound, Ref)
        try:
            value = measured[self.quantity]
            limit = self.bound.resolve(measured) if ref else self.bound
        except KeyError as missing:
            return False, line + f"not measured: {missing}"
        bound = f"{self.op} {self.bound}"
        if ref:
            bound += f" = {_text(limit)}"
        return (_OPS[self.op](value, limit),
                line + f"measured {_text(value)} | bound {bound}")


# -- paper figures and Table 1 -------------------------------------------------

FIG2_PLATFORMS = ("Bay Trail tablet", "Haswell desktop")
CATEGORY_CODES = tuple(category.short_code for category in all_categories())
TABLE1_PAPER = {
    # abbrev: (invocations, reg, C/M, cpu S/L, gpu S/L)
    "BH": (1, "IR", "M", "L", "L"),
    "BFS": (1748, "IR", "M", "S", "S"),
    "CC": (2147, "IR", "M", "S", "S"),
    "FD": (132, "IR", "C", "S", "S"),
    "MB": (1, "IR", "M", "L", "L"),
    "SL": (1, "IR", "M", "L", "L"),
    "SP": (2577, "IR", "M", "S", "S"),
    "BS": (2000, "R", "C", "S", "S"),
    "MM": (1, "R", "C", "L", "L"),
    "NB": (101, "R", "C", "L", "S"),
    "RT": (1, "R", "C", "L", "L"),
    "SM": (100, "R", "M", "S", "S"),
}
TABLE1_COLUMNS = ("invocations", "regularity", "boundedness")


def fig1() -> Dict[str, Any]:
    result = figures.regenerate_figure_1()
    times, energies = result.times_s, result.energies_j
    return {"best-performance alpha": result.best_perf_alpha,
            "minimum-energy alpha": result.min_energy_alpha,
            "fastest time (s)": min(times), "CPU-only time (s)": times[0],
            "GPU-only time (s)": times[-1],
            "lowest energy (J)": min(energies),
            "CPU-only energy (J)": energies[0]}


def fig2() -> Dict[str, Any]:
    result = figures.regenerate_figure_2()
    notes = {note.split(":")[0]: note for note in result.notes}
    measured: Dict[str, Any] = {}
    for label, (times, watts) in result.series.items():
        measured[f"{label} tail note"] = notes[label]
        measured[f"{label} timeline samples"] = len(times)
        measured[f"{label} peak power (W)"] = max(watts)
        measured[f"{label} lowest power (W)"] = min(watts)
    return measured


def _watts(note: str) -> float:
    return float(re.search(r"([\d.]+) W", note).group(1))


def fig3() -> Dict[str, Any]:
    watts = {note.split(":")[0]: _watts(note)
             for note in figures.regenerate_figure_3().notes[:2]}
    return {"compute-bound co-execution (W)": watts["compute-bound"],
            "memory-bound co-execution (W)": watts["memory-bound"]}


def fig4() -> Dict[str, Any]:
    notes = figures.regenerate_figure_4().notes
    steady, dip = _watts(notes[0]), _watts(notes[1])
    return {"GPU bursts": int(re.search(r"(\d+)", notes[2]).group(1)),
            "steady power (W)": steady, "burst dip power (W)": dip,
            "steady minus dip (W)": steady - dip}


def power(code: str, alpha: float) -> str:
    """The measured-quantity name of one characterization curve point."""
    return f"{code} power at alpha {alpha} (W)"


def _curve_points(characterization, points) -> Dict[str, Any]:
    return {power(code, alpha): characterization.curve_for(
                category_from_codes(code)).power(alpha)
            for code, alpha in points}


def fig5() -> Dict[str, Any]:
    curves = figures.regenerate_figure_5().characterization
    measured = _curve_points(curves, [
        ("C-LL", 0.0), ("C-LL", 1.0), ("C-LL", 0.4), ("M-LL", 0.4),
        ("C-SS", 0.0), ("C-SS", 0.3), ("C-SS", 1.0)])
    for code in CATEGORY_CODES:
        curve = curves.curve_for(category_from_codes(code))
        measured[f"{code} fit order"] = curve.order
        measured[f"{code} fit RMS (W)"] = curve.fit_residual_rms()
    return measured


def fig6() -> Dict[str, Any]:
    return _curve_points(figures.regenerate_figure_6().characterization, [
        ("C-LL", 0.0), ("C-LL", 1.0), ("C-LL", 0.5),
        ("M-LL", 0.0), ("M-LL", 1.0)])


def _averages(evaluation, *alphas: Tuple[str, str]) -> Dict[str, Any]:
    """Oracle-relative average efficiency (%) per strategy, EAS's lead
    over GPU- and CPU-alone, and the alpha of each (workload, strategy)
    in ``alphas``."""
    measured = {f"{s} avg %": evaluation.average_efficiency_pct(s)
                for s in ("CPU", "GPU", "PERF", "EAS")}
    measured["EAS - GPU avg %"] = measured["EAS avg %"] - measured["GPU avg %"]
    measured["EAS - CPU avg %"] = measured["EAS avg %"] - measured["CPU avg %"]
    for workload, strategy in alphas:
        measured[f"{workload} {strategy} alpha"] = evaluation.outcome(
            workload, strategy).alpha
    return measured


def fig9() -> Dict[str, Any]:
    return _averages(figures.regenerate_figure_9().evaluation,
                     ("CC", "EAS"), ("CC", "BEST-TIME"))


def fig10() -> Dict[str, Any]:
    return _averages(figures.regenerate_figure_10().evaluation, ("FD", "EAS"))


def fig11() -> Dict[str, Any]:
    return _averages(figures.regenerate_figure_11().evaluation)


def fig12() -> Dict[str, Any]:
    return _averages(figures.regenerate_figure_12().evaluation)


def table1() -> Dict[str, Any]:
    measured: Dict[str, Any] = {"short/long mismatches": 0}
    for row in figures.regenerate_table_1().rows:
        abbrev, columns, durations = row[1], row[4:7], tuple(row[7:9])
        for column, value in zip(TABLE1_COLUMNS, columns):
            measured[f"{abbrev} {column}"] = value
        # Short/long comes from online measurement and may disagree on
        # borderline workloads; count the disagreements.
        if durations != TABLE1_PAPER[abbrev][3:]:
            measured["short/long mismatches"] += 1
    return measured


# -- ablations and extensions --------------------------------------------------
#
# Each ablation reruns EAS on the desktop with one design knob changed
# and reports mean Oracle-relative EDP efficiency (%).

DESKTOP = haswell_desktop()
#: Representative subset: regular compute (NB), short-kernel regular
#: (BS), irregular memory-bound graph (CC).
ABLATION_WORKLOADS = ("NB", "BS", "CC")
ORACLE_GRID_WORKLOADS = ("NB", "BS", "SM")
#: Subset keeps the ED^2 suite under a minute while spanning the taxonomy.
ED2_WORKLOADS = ("CC", "BS", "NB", "SL", "SM", "FD")
PCU_HINT_WORKLOADS = ("SL", "CC", "BS", "SM", "MB")
PROFILING_WORKLOADS = ("BS", "NB", "CC")


def local_sweep(workload: Workload) -> suite.AlphaSweep:
    """Desktop Oracle sweep of a reseeded or synthetic workload: one
    in-process :func:`run_application` per static alpha on the 0.1 grid
    (the engine's specs carry registry workloads only)."""
    alphas = suite._sweep_grid(suite.ORACLE_ALPHA_STEP)
    runs = [run_application(DESKTOP, workload,
                            StaticAlphaScheduler(alpha=a),
                            strategy_name=f"static-{a:.2f}")
            for a in alphas]
    return suite.AlphaSweep(platform=DESKTOP.name, workload=workload.abbrev,
                            alphas=alphas, runs=runs)


def eas_efficiency(workload: Workload,
                   sweep: Optional[suite.AlphaSweep] = None,
                   characterization: Optional[PlatformCharacterization] = None,
                   **scheduler_kwargs) -> float:
    """Oracle-relative EDP efficiency (%) of one desktop EAS run.
    ``sweep`` defaults to the registry workload's memoized Oracle sweep;
    ``scheduler_kwargs`` go to the scheduler."""
    if sweep is None:
        sweep = figures._cached_sweep(DESKTOP, workload, tablet=False)
    scheduler = EnergyAwareScheduler(
        characterization or suite.get_characterization(DESKTOP), EDP,
        **scheduler_kwargs)
    run = run_application(DESKTOP, workload, scheduler, "EAS")
    oracle = sweep.oracle(EDP).metric_value(EDP)
    return 100.0 * oracle / run.metric_value(EDP)


def mean_efficiency(workloads=ABLATION_WORKLOADS, **kwargs) -> float:
    values = [eas_efficiency(workload_by_abbrev(w), **kwargs)
              for w in workloads]
    return sum(values) / len(values)


def alpha_grid() -> Dict[str, Any]:
    return {f"alpha step {step}": mean_efficiency(
                config=SchedulerConfig(alpha_step=step))
            for step in (0.25, 0.1, 0.05, 0.02)}


def _collapsed(curve_code: str) -> PlatformCharacterization:
    """The desktop curve table with every category mapped to one curve."""
    full = suite.get_characterization(DESKTOP)
    single = full.curve_for(category_from_codes(curve_code))
    return PlatformCharacterization(
        platform_name=full.platform_name,
        curves={category: single for category in all_categories()})


def category_count() -> Dict[str, Any]:
    measured = {
        "8 categories": mean_efficiency(),
        "only C-LL": mean_efficiency(characterization=_collapsed("C-LL")),
        "only M-LL": mean_efficiency(characterization=_collapsed("M-LL")),
    }
    measured["best single curve"] = max(measured["only C-LL"],
                                        measured["only M-LL"])
    return measured


def classifier_thresholds() -> Dict[str, Any]:
    variants = {
        "paper (0.33, 100ms)": OnlineClassifier(),
        "miss ratio 0.15": OnlineClassifier(memory_threshold=0.15),
        "miss ratio 0.60": OnlineClassifier(memory_threshold=0.60),
        "short/long 10ms": OnlineClassifier(short_long_threshold_s=0.010),
        "short/long 1s": OnlineClassifier(short_long_threshold_s=1.0),
    }
    measured = {name: mean_efficiency(("NB", "BS", "CC", "SL"),
                                      classifier=classifier)
                for name, classifier in variants.items()}
    measured["best setting"] = max(measured.values())
    return measured


class ReseededCC(ConnectedComponents):
    """CC with a re-rolled irregularity field."""

    def __init__(self, tag: int) -> None:
        self._tag = tag

    def cost_model(self, tablet: bool = False) -> KernelCostModel:
        return super().cost_model(tablet=tablet).with_overrides(
            rng_tag=self._tag)


def irregularity_seeds() -> Dict[str, Any]:
    values = []
    for seed in (3, 101, 202, 303):
        workload = ReseededCC(seed)
        values.append(eas_efficiency(workload, local_sweep(workload)))
    return {"worst seed": min(values),
            "mean over seeds": sum(values) / len(values)}


def oracle_grid() -> Dict[str, Any]:
    measured = {}
    for abbrev in ORACLE_GRID_WORKLOADS:
        coarse, fine = (
            suite.sweep_alphas(DESKTOP, workload_by_abbrev(abbrev), step=step)
            .oracle(EDP).metric_value(EDP) for step in (0.1, 0.05))
        measured[f"{abbrev} 0.05-grid Oracle EDP"] = fine
        measured[f"{abbrev} 0.1-grid Oracle EDP x (1 + 1e-9)"] = (
            coarse * (1 + 1e-9))
        measured[f"{abbrev} 0.05-grid gain %"] = 100.0 * (1.0 - fine / coarse)
    return measured


def poly_order() -> Dict[str, Any]:
    measured = {}
    for order in (1, 2, 4, 6):
        characterization = PowerCharacterizer(
            spec=DESKTOP, microbenches=standard_microbenches(),
            fit_order=order).characterize()
        measured[f"order {order} worst fit RMS (W)"] = max(
            characterization.curve_for(c).fit_residual_rms()
            for c in all_categories())
        measured[f"order {order} efficiency"] = mean_efficiency(
            characterization=characterization)
    return measured


def profile_size() -> Dict[str, Any]:
    measured = {f"GPU_PROFILE_SIZE {size}": mean_efficiency(
                    config=SchedulerConfig(gpu_profile_size=size))
                for size in (256, 1024, 2048, 8192)}
    measured["best size"] = max(measured.values())
    return measured


def profiling_overhead() -> Dict[str, Any]:
    characterization, measured = suite.get_characterization(DESKTOP), {}
    for abbrev in PROFILING_WORKLOADS:
        scheduler = EnergyAwareScheduler(characterization, EDP)
        app = run_application(DESKTOP, workload_by_abbrev(abbrev),
                              scheduler, "EAS")
        overheads = [d.decision_overhead_s for d in scheduler.decisions
                     if d.profile_rounds > 0]
        measured[f"{abbrev} scheduling s per invocation"] = (
            sum(overheads) / len(app.invocations) if overheads else 0.0)
        measured[f"{abbrev} profiling share of runtime"] = (
            sum(r.profiling_time_s for r in app.invocations) / app.time_s)
    return measured


def repeat_profiling() -> Dict[str, Any]:
    return {
        "single round": mean_efficiency(config=SchedulerConfig(
            profile_fraction=0.01, chunk_growth=1.0)),
        "converging (default)": mean_efficiency(config=SchedulerConfig()),
        "full half, no stop": mean_efficiency(config=SchedulerConfig(
            convergence_tolerance=-1.0)),
    }


def cc_sampling() -> Dict[str, Any]:
    cc = workload_by_abbrev("CC")
    return {"default": eas_efficiency(cc, config=SchedulerConfig()),
            "re-profile every invocation": eas_efficiency(
                cc, config=SchedulerConfig(always_reprofile=True))}


def ed2() -> Dict[str, Any]:
    workloads = [w for w in suite_workloads(tablet=False)
                 if w.abbrev in ED2_WORKLOADS]
    sweeps = {w.abbrev: figures._cached_sweep(DESKTOP, w, tablet=False)
              for w in workloads}
    measured = _averages(
        suite.evaluate_suite(DESKTOP, workloads, ED2, sweeps=sweeps))
    measured["best baseline avg %"] = max(measured["PERF avg %"],
                                          measured["GPU avg %"])
    return measured


def pcu_hints() -> Dict[str, Any]:
    characterization = suite.get_characterization(DESKTOP)
    measured, savings = {}, []
    for abbrev in PCU_HINT_WORKLOADS:
        plain, hinted = (
            run_application(DESKTOP, workload_by_abbrev(abbrev),
                            scheduler(characterization, ENERGY), name).energy_j
            for scheduler, name in ((EnergyAwareScheduler, "eas"),
                                    (HintedEnergyAwareScheduler, "hinted")))
        measured[f"{abbrev} hinted energy (J)"] = hinted
        measured[f"{abbrev} plain energy x 1.05 (J)"] = plain * 1.05
        savings.append(100.0 * (1.0 - hinted / plain))
    measured["best energy saving %"] = max(savings)
    return measured


def synthetic_suite() -> Dict[str, Any]:
    values = sorted(eas_efficiency(workload, local_sweep(workload))
                    for workload in generate_suite(12, seed=42))
    return {"mean efficiency": sum(values) / len(values),
            "worst efficiency": values[0]}


def cell_edp(workload: str, level: float) -> str:
    return f"{workload} EDP at fault level {level}"


def fault_sweep() -> Dict[str, Any]:
    result = chaos.run_chaos_campaign()
    totals = result.total_fault_counts()
    measured = {
        "every cell ok": result.all_ok,
        "every item processed": result.all_items_processed,
        "EDP bounded by clean CPU": result.edp_bounded,
        "injected faults": sum(totals.values()),
        "gpu-launch-fail injected": "gpu-launch-fail" in totals,
        "msr-glitch injected": "msr-glitch" in totals,
        "fingerprint": result.fingerprint(),
    }
    for cell in result.cells:
        measured[cell_edp(cell.workload, cell.fault_level)] = cell.edp
        measured[f"{cell.workload} clean CPU EDP"] = result.cpu_edp(
            cell.workload)
    rerun = chaos.run_chaos_campaign()
    measured["same-seed rerun fingerprint"] = rerun.fingerprint()
    return measured


# -- the table -----------------------------------------------------------------

ROWS: Tuple[Row, ...] = (
    # CC energy and runtime vs GPU offload: best performance at a
    # balanced split, minimum energy GPU-heavy at or above it, and the
    # single-device endpoints strictly worse than the interior optimum
    # on both axes - neither optimum is single-device.
    Row(fig1, "best-performance alpha", "in closed", (0.3, 0.8), "0.6"),
    Row(fig1, "minimum-energy alpha", ">=", Ref("best-performance alpha"),
        "0.9 vs 0.6"),
    Row(fig1, "minimum-energy alpha", ">=", 0.8, "0.9"),
    Row(fig1, "fastest time (s)", "<", Ref("CPU-only time (s)")),
    Row(fig1, "fastest time (s)", "<", Ref("GPU-only time (s)")),
    Row(fig1, "lowest energy (J)", "<", Ref("CPU-only energy (J)")),
    # Memory-bound 90/10 GPU-CPU split: once only the CPU is active,
    # package power drops on the Bay Trail (its GPU is the big consumer)
    # but rises on the Haswell (whose PCU had held the CPU down during
    # GPU activity).  Both series actually contain a timeline.
    Row(fig2, "Bay Trail tablet tail note", "contains", "drops", "drops"),
    Row(fig2, "Haswell desktop tail note", "contains", "rises", "rises"),
    *(row for label in FIG2_PLATFORMS for row in (
        Row(fig2, f"{label} timeline samples", ">", 10),
        Row(fig2, f"{label} peak power (W)", ">",
            Ref(f"{label} lowest power (W)")))),
    # Desktop co-execution: memory-bound work is the *more* power-hungry
    # kind on this desktop.
    Row(fig3, "memory-bound co-execution (W)", ">",
        Ref("compute-bound co-execution (W)"), "63 vs 55"),
    Row(fig3, "compute-bound co-execution (W)", "in open", (45.0, 62.0),
        "~55"),
    Row(fig3, "memory-bound co-execution (W)", "in open", (52.0, 70.0), "~63"),
    # Ten short GPU bursts: the PCU's activation throttle drops the
    # package well below its steady CPU-phase power - the behaviour that
    # motivates the taxonomy's short/long axis.  A pronounced dip, not
    # noise.
    Row(fig4, "GPU bursts", "==", 10, "10"),
    Row(fig4, "steady power (W)", ">", 48.0, "~60"),
    Row(fig4, "burst dip power (W)", "<", 40.0, "<40"),
    Row(fig4, "steady minus dip (W)", ">", 12.0),
    # Desktop characterization: CPU-alone compute ~45 W, GPU-alone ~30 W
    # (Section 2); memory-bound co-execution peaks above compute-bound.
    # CPU-short shape: dips below the CPU-alone endpoint early and lands
    # well below it at full offload.  (The paper's single-run probes
    # show a stronger convex dip; short kernels are characterized in
    # their repeated steady state, which softens the mid-sweep - see
    # EXPERIMENTS.md.)  All eight sixth-order fits are tight.
    Row(fig5, power("C-LL", 0.0), "in open", (40.0, 52.0), "~45"),
    Row(fig5, power("C-LL", 1.0), "in open", (26.0, 37.0), "~30"),
    Row(fig5, power("M-LL", 0.4), ">", Ref(power("C-LL", 0.4)), "63 vs 55"),
    Row(fig5, power("C-SS", 0.3), "<", Ref(power("C-SS", 0.0))),
    Row(fig5, power("C-SS", 1.0), "<", Ref(power("C-SS", 0.0), -8.0)),
    *(row for code in CATEGORY_CODES for row in (
        Row(fig5, f"{code} fit order", "==", 6, "6"),
        Row(fig5, f"{code} fit RMS (W)", "<", 4.0))),
    # Bay Trail characterization: the paper's endpoint calibration;
    # memory-bound below compute-bound at both endpoints (the reverse of
    # the desktop); concave, because the tablet's GPU draws more power
    # than its CPU.
    Row(fig6, power("C-LL", 0.0), "in open", (1.2, 1.9), "~1.5"),
    Row(fig6, power("C-LL", 1.0), "in open", (1.6, 2.5), "~2"),
    Row(fig6, power("M-LL", 0.0), "in open", (0.45, 1.0), "~0.7"),
    Row(fig6, power("M-LL", 1.0), "in open", (1.0, 1.7), "~1.3"),
    Row(fig6, power("M-LL", 0.0), "<", Ref(power("C-LL", 0.0)), "0.7 vs 1.5"),
    Row(fig6, power("M-LL", 1.0), "<", Ref(power("C-LL", 1.0)), "1.3 vs 2"),
    Row(fig6, power("C-LL", 0.5), ">", Ref(power("C-LL", 0.0))),
    # Desktop EDP vs Oracle: EAS is the best strategy, far ahead of
    # CPU-alone.  The CC anomaly: EAS over-offloads the highly irregular
    # CC relative to PERF's split (the paper's one documented miss shows
    # the same mechanism: profiling over-estimates the GPU on CC).
    Row(fig9, "EAS avg %", ">", Ref("GPU avg %"), "96.2 vs 79.6"),
    Row(fig9, "EAS avg %", ">", Ref("PERF avg %"), "96.2 vs 83.9"),
    Row(fig9, "CPU avg %", "<", 50.0),
    Row(fig9, "GPU avg %", "in open", (70.0, 95.0), "79.6"),
    Row(fig9, "PERF avg %", "in open", (70.0, 95.0), "83.9"),
    Row(fig9, "EAS avg %", ">", 88.0, "96.2"),
    Row(fig9, "CC EAS alpha", ">=", Ref("CC BEST-TIME alpha")),
    # Desktop energy vs Oracle, the inversion of Fig. 9: GPU-alone is
    # near-optimal while best-performance partitioning pays a heavy
    # power premium.  EAS keeps the CPU-biased FD at alpha 0 (Section 5).
    Row(fig10, "GPU avg %", ">", Ref("PERF avg %"), "95.8 vs 70.4"),
    Row(fig10, "EAS avg %", ">", Ref("GPU avg %"), "97.2 vs 95.8"),
    Row(fig10, "EAS avg %", ">", 90.0, "97.2"),
    Row(fig10, "GPU avg %", "in open", (85.0, 100.0), "95.8"),
    Row(fig10, "PERF avg %", "<", 90.0, "70.4"),
    Row(fig10, "CPU avg %", "<", 60.0),
    Row(fig10, "FD EAS alpha", "==", 0.0, "0"),
    # Bay Trail EDP vs Oracle: GPU-alone is *not* a good strategy here
    # (its GPU is power-hungry and only moderately faster).
    Row(fig11, "EAS avg %", ">", 85.0, "93.2"),
    Row(fig11, "EAS avg %", ">=", Ref("PERF avg %", -1.0), "PERF + 4.4"),
    Row(fig11, "EAS - GPU avg %", ">", 10.0, "19.6"),
    Row(fig11, "EAS - CPU avg %", ">", 35.0, "85.9"),
    Row(fig11, "GPU avg %", "<", 85.0),
    # Bay Trail energy vs Oracle: GPU still beats CPU-alone.
    Row(fig12, "EAS avg %", ">", 90.0, "96.4"),
    Row(fig12, "EAS avg %", ">", Ref("GPU avg %"), "GPU + 10.1"),
    Row(fig12, "EAS - CPU avg %", ">", 20.0, "57.2"),
    Row(fig12, "GPU avg %", ">", Ref("CPU avg %")),
    # Compile-time statistics and the measured boundedness match the
    # paper exactly; at most two borderline short/long mismatches.
    *(Row(table1, f"{abbrev} {column}", "==", expected, str(expected))
      for abbrev, paper in TABLE1_PAPER.items()
      for column, expected in zip(TABLE1_COLUMNS, paper)),
    Row(table1, "short/long mismatches", "<=", 2),
    # Ablations.  The paper searches alpha in 0.1 steps.  Finer grids
    # never *help*: the bottleneck is profiling accuracy, not grid
    # resolution, and a finer grid can even lose ground by trusting the
    # model's interpolation between the 0.1-grid points the Oracle
    # itself is defined on.
    Row(alpha_grid, "alpha step 0.05", "<=", Ref("alpha step 0.1", 6.0)),
    Row(alpha_grid, "alpha step 0.02", "<=", Ref("alpha step 0.1", 6.0)),
    Row(alpha_grid, "alpha step 0.1", ">", 85.0),
    # "This simple classification into eight categories works
    # surprisingly well": at least as good as any single-curve collapse.
    Row(category_count, "8 categories", ">=", Ref("best single curve", -2.0)),
    Row(category_count, "8 categories", ">", 85.0),
    # The paper's thresholds (L3-miss ratio 0.33, short/long 100 ms) are
    # competitive with every perturbation.
    Row(classifier_thresholds, "paper (0.33, 100ms)", ">", 85.0),
    Row(classifier_thresholds, "paper (0.33, 100ms)", ">=",
        Ref("best setting", -5.0)),
    # The paper's CC miss depends on W-USA's specific irregularity; under
    # re-rolled cost fields EAS never collapses and the typical
    # efficiency stays in the paper's neighbourhood.
    Row(irregularity_seeds, "worst seed", ">", 70.0),
    Row(irregularity_seeds, "mean over seeds", ">", 85.0),
    # The quantization error in every "percent of Oracle" number, ours
    # and the paper's: a 0.05 grid can only match or beat the 0.1-grid
    # Oracle, and the error is modest.
    *(row for abbrev in ORACLE_GRID_WORKLOADS for row in (
        Row(oracle_grid, f"{abbrev} 0.05-grid Oracle EDP", "<=",
            Ref(f"{abbrev} 0.1-grid Oracle EDP x (1 + 1e-9)")),
        Row(oracle_grid, f"{abbrev} 0.05-grid gain %", "<", 25.0))),
    # "A sixth-order polynomial was a good fit": fit quality improves
    # monotonically with order, and order 6 does not lose to the crude
    # fits.
    Row(poly_order, "order 6 worst fit RMS (W)", "<",
        Ref("order 2 worst fit RMS (W)")),
    Row(poly_order, "order 2 worst fit RMS (W)", "<",
        Ref("order 1 worst fit RMS (W)")),
    Row(poly_order, "order 6 efficiency", ">=",
        Ref("order 1 efficiency", -3.0)),
    Row(poly_order, "order 6 efficiency", ">", 85.0),
    # The paper matches GPU_PROFILE_SIZE to the GPU's parallelism (2048
    # on the desktop): competitive with every alternative.
    Row(profile_size, "GPU_PROFILE_SIZE 2048", ">=", Ref("best size", -6.0)),
    Row(profile_size, "GPU_PROFILE_SIZE 2048", ">", 85.0),
    # Scheduling computation per invocation on the host clock: the
    # paper's 1-2 us, up to 100 us for interpreted Python (still
    # negligible against millisecond kernels).  Profiling phases do
    # useful work, so their share of simulated time is bounded loosely.
    *(row for abbrev in PROFILING_WORKLOADS for row in (
        Row(profiling_overhead, f"{abbrev} scheduling s per invocation",
            "<", 100e-6, "1e-6..2e-6"),
        Row(profiling_overhead, f"{abbrev} profiling share of runtime",
            "<", 0.6))),
    # Fig. 7's repeated profiling with a convergence stop beats one
    # fixed-size round, and costs little against the full half.
    Row(repeat_profiling, "converging (default)", ">=",
        Ref("single round", -2.0)),
    Row(repeat_profiling, "converging (default)", ">=",
        Ref("full half, no stop", -6.0)),
    Row(repeat_profiling, "converging (default)", ">", 85.0),
    # Extensions.  Section 5's proposed fix for the CC miss, "increase
    # the profiling sampling rate".  Re-profiling all 2147 invocations
    # is costly; it must stay usable but may lose ground - that loss is
    # the finding.
    Row(cc_sampling, "default", ">", 80.0),
    Row(cc_sampling, "re-profile every invocation", ">", 40.0),
    # ED^2, defined in Section 1 but never evaluated: quadratic time
    # weighting punishes CPU-alone; EAS stays competitive with the best
    # baseline.
    Row(ed2, "EAS avg %", ">", 80.0),
    Row(ed2, "EAS avg %", ">", Ref("CPU avg %")),
    Row(ed2, "CPU avg %", "<", 40.0),
    Row(ed2, "EAS avg %", ">=", Ref("best baseline avg %", -8.0)),
    # Runtime-to-PCU power hints, the paper's concluding future work.
    # The joint search includes the stock hint, so a material regression
    # means the adjustment model is broken; at least one hybrid workload
    # must show a real saving.
    *(Row(pcu_hints, f"{abbrev} hinted energy (J)", "<=",
          Ref(f"{abbrev} plain energy x 1.05 (J)"))
      for abbrev in PCU_HINT_WORKLOADS),
    Row(pcu_hints, "best energy saving %", ">", 1.0),
    # Twelve synthetic applications nobody tuned EAS for: a healthy mean
    # and no collapse.  (The weakest draws are short-launch memory
    # workloads whose device lean sits far from their category probe's
    # - the known single-curve-per-category limitation.)
    Row(synthetic_suite, "mean efficiency", ">", 72.0),
    Row(synthetic_suite, "worst efficiency", ">", 40.0),
    # Robustness, not a paper figure: the chaos campaign's invariants
    # (docs/ROBUSTNESS.md) - no unhandled exception, no lost work, EAS
    # under faults never worse than clean CPU-alone EDP, a byte-identical
    # same-seed rerun, and the fault machinery actually exercised.
    Row(fault_sweep, "every cell ok", "==", True),
    Row(fault_sweep, "every item processed", "==", True),
    Row(fault_sweep, "EDP bounded by clean CPU", "==", True),
    *(Row(fault_sweep, cell_edp(workload, level), "<=",
          Ref(f"{workload} clean CPU EDP"))
      for workload in chaos.DEFAULT_WORKLOADS
      for level in chaos.DEFAULT_FAULT_LEVELS),
    Row(fault_sweep, "injected faults", ">", 1000),
    Row(fault_sweep, "gpu-launch-fail injected", "==", True),
    Row(fault_sweep, "msr-glitch injected", "==", True),
    Row(fault_sweep, "same-seed rerun fingerprint", "==", Ref("fingerprint")),
)
EXPERIMENTS = tuple(dict.fromkeys(row.experiment for row in ROWS))


@pytest.mark.parametrize("experiment", EXPERIMENTS,
                         ids=lambda experiment: experiment.__name__)
def test_paper_shape(benchmark, experiment):
    measured = benchmark.pedantic(experiment, rounds=1, iterations=1)
    violated = []
    for row in ROWS:
        if row.experiment is not experiment:
            continue
        holds, line = row.verdict(measured)
        print(("ok   " if holds else "FAIL ") + line)
        key = row.quantity + (f" (paper {row.paper})" if row.paper else "")
        benchmark.extra_info[key] = measured.get(row.quantity)
        if not holds:
            violated.append(line)
    assert not violated, (
        f"{len(violated)} {experiment.__name__} row(s) violated:\n"
        + "\n".join(violated))
