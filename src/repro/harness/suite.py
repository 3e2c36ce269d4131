"""Suite-level evaluation: Oracle sweeps and strategy comparisons.

The paper's comparison schemes (Section 5):

* **CPU** / **GPU** - single-device execution;
* **Oracle** - best measured metric over an exhaustive sweep of static
  GPU offload ratios (0.1 grid), the evaluation baseline;
* **PERF** - the best-performance scheduling strategy: the online
  adaptive scheduler of the paper's reference [12], which profiles
  like EAS and then partitions at alpha_PERF (Eq. 2), optimizing
  execution time with no regard for power.  (The exhaustive best-
  *measured*-time split is also computed from the sweep and reported
  as ``BEST-TIME`` for diagnostics.);
* **EAS** - the paper's scheduler, with the platform's one-time power
  characterization.

One :func:`sweep_alphas` per (platform, workload) yields Oracle for
every metric *and* PERF, so the harness sweeps once and reuses it.
Efficiency is reported as ``oracle_metric / strategy_metric`` (in
percent, higher is better, Oracle = 100%), matching Figs. 9-12.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.characterization import (
    DEFAULT_SWEEP_STEP,
    PlatformCharacterization,
    PowerCharacterizer,
)
from repro.core.metrics import EnergyMetric
from repro.core.scheduler import SchedulerConfig
from repro.errors import HarnessError
from repro.harness.engine import (
    ExecutionEngine,
    RunSpec,
    SchedulerSpec,
    get_default_engine,
    spec_workload,
)
from repro.harness.experiment import ApplicationRun
from repro.soc.spec import PlatformSpec
from repro.soc.vector import model_identity
from repro.workloads.base import Workload
from repro.workloads.microbench import standard_microbenches

#: The paper's exhaustive-search grid.
ORACLE_ALPHA_STEP = 0.1

#: The in-process characterization memo, keyed on what the fits depend
#: on: the platform's model identity and the sweep grid.
_characterization_cache: Dict[Tuple[PlatformSpec, float], PlatformCharacterization] = {}


def remember_characterization(spec: PlatformSpec,
                              characterization: PlatformCharacterization,
                              sweep_step: float = DEFAULT_SWEEP_STEP
                              ) -> PlatformCharacterization:
    """The memo's single writer; the first fit stored for a key wins
    (engine-seeded pool workers and the service's stored fits use it)."""
    return _characterization_cache.setdefault(
        (model_identity(spec), sweep_step), characterization)


def get_characterization(spec: PlatformSpec,
                         sweep_step: float = DEFAULT_SWEEP_STEP,
                         engine: Optional[ExecutionEngine] = None
                         ) -> PlatformCharacterization:
    """The platform's one-time power characterization.

    Memoized per process on ``(model_identity(spec), sweep_step)``, so
    a same-name variant or a different grid gets its own fits.  A miss
    sweeps through ``engine`` - or the run's default engine - which
    brings ``--jobs`` and the ``runs/`` result cache to the sweeps
    exactly as to every other spec (see docs/PARALLELISM.md).
    """
    cached = _characterization_cache.get((model_identity(spec), sweep_step))
    if cached is not None:
        return cached
    characterizer = PowerCharacterizer(
        microbenches=standard_microbenches(),
        sweep_step=sweep_step, spec=spec)
    return remember_characterization(
        spec, characterizer.characterize(engine), sweep_step)


def clear_characterization_cache() -> None:
    """Drop the in-process cache (testing/ablation use)."""
    _characterization_cache.clear()


def _grid_key(alpha: float) -> int:
    """Alpha as an exact grid position (milli-alpha integer).

    Every sweep grid this harness builds has a step that is a
    multiple of 0.001, so rounding to integer milli-alphas maps each
    grid point to a unique key with no float-comparison tolerance.
    """
    return int(round(alpha * 1000.0))


@dataclass
class AlphaSweep:
    """Measured application runs at every static alpha."""

    platform: str
    workload: str
    alphas: List[float]
    runs: List[ApplicationRun]

    def __post_init__(self) -> None:
        # Index runs by grid position once: run_at() is O(1) and exact
        # (the old float scan with a 1e-9 tolerance was both O(n) and
        # fragile for accumulated non-0.1 steps), and the oracle/perf
        # lookups below avoid O(n) .index() rescans.
        self._index_by_grid = {
            _grid_key(a): i for i, a in enumerate(self.alphas)}

    def run_at(self, alpha: float) -> ApplicationRun:
        index = self._index_by_grid.get(_grid_key(alpha))
        if index is None:
            raise HarnessError(f"alpha {alpha} not in sweep")
        return self.runs[index]

    def _best_index(self, key) -> int:
        return min(range(len(self.runs)), key=lambda i: key(self.runs[i]))

    def oracle(self, metric: EnergyMetric) -> ApplicationRun:
        """The run minimizing the measured metric (the paper's Oracle)."""
        return self.runs[self._best_index(lambda r: r.metric_value(metric))]

    def oracle_alpha(self, metric: EnergyMetric) -> float:
        return self.alphas[self._best_index(lambda r: r.metric_value(metric))]

    def perf(self) -> ApplicationRun:
        """The best-execution-time run (the paper's PERF strategy)."""
        return self.runs[self._best_index(lambda r: r.time_s)]

    def perf_alpha(self) -> float:
        return self.alphas[self._best_index(lambda r: r.time_s)]

    def fingerprint(self) -> str:
        """SHA-256 over every measured quantity of every run."""
        payload = "\n".join([
            f"{self.platform}|{self.workload}",
            *(f"{a!r}|{run.canonical()}"
              for a, run in zip(self.alphas, self.runs)),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()


def _sweep_grid(step: float) -> List[float]:
    n = int(round(1.0 / step))
    return [min(1.0, i * step) for i in range(n + 1)]


def sweep_alphas(spec: PlatformSpec, workload: Workload, tablet: bool = False,
                 step: float = ORACLE_ALPHA_STEP,
                 engine: Optional[ExecutionEngine] = None) -> AlphaSweep:
    """Run the application once per static alpha on the 0.1 grid.

    The grid points are independent simulations; they execute as one
    batch on ``engine`` (default:
    :func:`~repro.harness.engine.get_default_engine`) - parallel when
    the engine has workers, memoized when it has a cache, and
    byte-identical either way.  ``workload`` must be a registry
    workload (:func:`~repro.harness.engine.spec_workload`).
    """
    alphas = _sweep_grid(step)
    abbrev = spec_workload(workload)
    specs = [RunSpec(platform=spec, workload=abbrev,
                     scheduler=SchedulerSpec.static(a), tablet=tablet)
             for a in alphas]
    runs = [r.payload for r in (engine or get_default_engine()).run_batch(specs)]
    return AlphaSweep(platform=spec.name, workload=abbrev,
                      alphas=alphas, runs=runs)


@dataclass
class StrategyOutcome:
    """One workload's result under one strategy, Oracle-relative."""

    workload: str
    strategy: str
    metric_value: float
    oracle_value: float
    time_s: float
    energy_j: float
    alpha: Optional[float]

    @property
    def efficiency_pct(self) -> float:
        """oracle / strategy, in percent (Oracle = 100, higher better)."""
        if self.metric_value <= 0:
            raise HarnessError("non-positive metric value")
        return 100.0 * self.oracle_value / self.metric_value


@dataclass
class SuiteEvaluation:
    """Figs. 9-12: all workloads x all strategies for one metric."""

    platform: str
    metric: EnergyMetric
    strategies: List[str]
    outcomes: Dict[str, Dict[str, StrategyOutcome]] = field(default_factory=dict)
    sweeps: Dict[str, AlphaSweep] = field(default_factory=dict)

    def outcome(self, workload: str, strategy: str) -> StrategyOutcome:
        return self.outcomes[workload][strategy]

    def workloads(self) -> List[str]:
        return list(self.outcomes.keys())

    def average_efficiency_pct(self, strategy: str) -> float:
        values = [self.outcomes[w][strategy].efficiency_pct
                  for w in self.outcomes]
        if not values:
            raise HarnessError("empty evaluation")
        return sum(values) / len(values)

    def fingerprint(self) -> str:
        """SHA-256 over every outcome (workload x strategy), sorted."""
        lines = [f"{self.platform}|{self.metric.name}"]
        for workload in sorted(self.outcomes):
            for strategy in sorted(self.outcomes[workload]):
                o = self.outcomes[workload][strategy]
                lines.append(
                    f"{workload}|{strategy}|{o.metric_value!r}|"
                    f"{o.oracle_value!r}|{o.time_s!r}|{o.energy_j!r}|"
                    f"{o.alpha!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _assemble_outcomes(evaluation: SuiteEvaluation, workload: Workload,
                       sweep: AlphaSweep, eas_run: ApplicationRun,
                       perf_run: ApplicationRun,
                       metric: EnergyMetric) -> None:
    """Fold one workload's runs into the evaluation."""
    evaluation.sweeps[workload.abbrev] = sweep
    oracle_run = sweep.oracle(metric)
    oracle_value = oracle_run.metric_value(metric)
    per_strategy: Dict[str, StrategyOutcome] = {}
    for name, run, alpha in (
            ("CPU", sweep.run_at(0.0), 0.0),
            ("GPU", sweep.run_at(1.0), 1.0),
            ("PERF", perf_run, perf_run.final_alpha),
            ("BEST-TIME", sweep.perf(), sweep.perf_alpha()),
            ("EAS", eas_run, eas_run.final_alpha),
            ("Oracle", oracle_run, sweep.oracle_alpha(metric))):
        per_strategy[name] = StrategyOutcome(
            workload=workload.abbrev,
            strategy=name,
            metric_value=run.metric_value(metric),
            oracle_value=oracle_value,
            time_s=run.time_s,
            energy_j=run.energy_j,
            alpha=alpha)
    evaluation.outcomes[workload.abbrev] = per_strategy


def evaluate_suite(spec: PlatformSpec, workloads: Sequence[Workload],
                   metric: EnergyMetric, tablet: bool = False,
                   sweeps: Optional[Dict[str, AlphaSweep]] = None,
                   eas_config: Optional[SchedulerConfig] = None,
                   engine: Optional[ExecutionEngine] = None
                   ) -> SuiteEvaluation:
    """Run the full Fig. 9/10/11/12-style comparison for one metric.

    ``sweeps`` may carry precomputed alpha sweeps (they are metric-
    independent), so evaluating both EDP and energy sweeps only once.

    Every remaining simulation - missing sweep grid points, one EAS
    run and one PERF run per workload - is submitted to the ``engine``
    (default: :func:`~repro.harness.engine.get_default_engine`) as a
    single batch, so a pooled engine overlaps *across* workloads and
    strategies, not just within one sweep.  Registry workloads and
    metrics and a plain :class:`SchedulerConfig` only: anything else
    raises :class:`HarnessError` before the batch runs.
    """
    evaluation = SuiteEvaluation(
        platform=spec.name, metric=metric,
        strategies=["CPU", "GPU", "PERF", "EAS"])
    sweeps = sweeps or {}
    alphas = _sweep_grid(ORACLE_ALPHA_STEP)
    eas_spec = SchedulerSpec.eas(metric, eas_config)
    batch: List[RunSpec] = []
    for workload in workloads:
        abbrev = spec_workload(workload)
        if sweeps.get(abbrev) is None:
            batch.extend(
                RunSpec(platform=spec, workload=abbrev,
                        scheduler=SchedulerSpec.static(a), tablet=tablet)
                for a in alphas)
        batch.append(RunSpec(platform=spec, workload=abbrev,
                             scheduler=eas_spec, tablet=tablet))
        batch.append(RunSpec(platform=spec, workload=abbrev,
                             scheduler=SchedulerSpec.perf(), tablet=tablet))

    results = iter((engine or get_default_engine()).run_batch(batch))
    for workload in workloads:
        sweep = sweeps.get(workload.abbrev)
        if sweep is None:
            runs = [next(results).payload for _ in alphas]
            sweep = AlphaSweep(platform=spec.name,
                               workload=workload.abbrev,
                               alphas=list(alphas), runs=runs)
        eas_run = next(results).payload
        perf_run = next(results).payload
        _assemble_outcomes(evaluation, workload, sweep, eas_run,
                           perf_run, metric)
    return evaluation
