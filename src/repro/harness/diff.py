"""Differential-testing substrate for simulator clock modes.

The simulator ships two clock modes (:data:`repro.soc.spec.TICK_MODES`):
``exact`` is the byte-stable reference, and ``fast`` macro-steps settled
spans with bit-identical per-tick commit replay (see
docs/PERFORMANCE.md).  This module is the harness that keeps the two
implementations honest against each other:

* :func:`run_case` executes one *case* - (platform, workload, fault
  level, tenancy) - under one clock mode and flattens everything the
  contract covers into named observables: end-to-end time and energy,
  per-invocation durations/energies/item counts/alphas, and the ordered
  sequence of :class:`~repro.obs.records.DecisionRecord` exit paths.
* :func:`compare_outcomes` checks a fast-mode outcome against the exact
  reference: every observable must satisfy
  ``|candidate - reference| <= tol * max(1, |reference|)`` (a hybrid
  absolute/relative bound, ``tol`` = :data:`FAST_TOL`), and the
  exit-path sequence must be *identical* - a tolerance-sized numeric
  wobble must never flip a scheduling decision.  Observables read
  through the quantized energy MSR get one quantization unit of extra
  budget: a sub-tolerance wobble in accumulated joules can land on the
  other side of a unit boundary, so the *reading* may step by one unit
  even though the underlying energy agrees within ``tol`` (the reader
  rounds, not the model).
* :func:`exact_fingerprint_entries` / :func:`compute_fingerprint` name
  and compute the exact-mode golden fingerprints checked into
  ``tests/goldens/`` (suite EAS runs, alpha sweeps, a chaos campaign, a
  small fleet, multiprogram co-runs).  ``tools/record_goldens.py``
  records them; ``tests/soc/test_golden_regression.py`` fails with a
  readable diff if any drifts.

``tests/soc/test_differential_modes.py`` sweeps the full grid -
Table-1 workloads x both platforms x fault levels {0.0, 0.3} x
tenancy {solo, 2-tenant} - through this module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import EDP, metric_by_name
from repro.core.scheduler import EnergyAwareScheduler
from repro.errors import HarnessError
from repro.harness.experiment import run_application
from repro.soc.faults import FaultConfig
from repro.soc.spec import (
    PlatformSpec,
    TICK_MODES,
    platform_by_name,
)
from repro.workloads.registry import suite_workloads, workload_by_abbrev

#: Fault levels the differential grid sweeps (clean + heavy).
DIFF_FAULT_LEVELS = (0.0, 0.3)

#: Tolerance the ``fast`` candidate is held to: the < 1e-6 relative
#: agreement docs/PERFORMANCE.md promises.
FAST_TOL = 1e-6

#: Second tenant co-scheduled with the case workload in 2-tenant
#: cells (the case workload itself when they would collide).
DEFAULT_PARTNER = "MM"


def fault_config_for(case: DiffCase) -> Optional[FaultConfig]:
    """Fault injection for a differential cell.

    Timeline-perturbing fault classes (launch failures, hangs, busy
    flaps, counter corruption) run at the case's level - they are
    exactly the dynamics that interact with macro-stepping, so the grid
    must exercise them.  MSR *read corruption* stays off: a glitch XORs
    the register value, and across modes the pre-glitch readings may
    legitimately differ by one quantization unit (inside the tolerance
    budget), which the XOR amplifies through bit carries into an
    arbitrary number of units.  Corrupted readings
    are not comparable observable-by-observable; robustness to them
    belongs to the exact-mode chaos campaign, which asserts on
    aggregate outcomes instead.
    """
    if case.fault_level <= 0.0:
        return None
    config = FaultConfig.from_level(case.fault_level, seed=case.seed)
    return replace(config, msr_glitch_prob=0.0, msr_extra_wrap_prob=0.0)


def tolerance_bound(reference: float, tol: float) -> float:
    """The contract's error budget around one reference observable.

    Hybrid absolute/relative: ``tol`` absolute for observables of order
    one or below (alphas, short durations), ``tol`` relative above
    (energies in joules, item counts in the millions).
    """
    return tol * max(1.0, abs(reference))


@dataclass(frozen=True)
class DiffCase:
    """One cell of the differential grid (mode-independent)."""

    platform: str
    workload: str
    fault_level: float = 0.0
    #: 1 = solo run; 2 = co-scheduled with :data:`DEFAULT_PARTNER`
    #: through the GPU lease arbiter.
    tenants: int = 1
    seed: int = 2016
    #: Objective metric name; constrained spellings (``"edp@2"``) run
    #: the case under a deadline-constrained objective, so the grid
    #: also locks the feasible-set search across clock modes.
    metric: str = "edp"

    def __post_init__(self) -> None:
        platform_by_name(self.platform)  # UnknownNameError on a miss
        if self.tenants not in (1, 2):
            raise HarnessError("diff cases cover solo and 2-tenant only")
        metric_by_name(self.metric)  # fail fast on unknown names

    @property
    def label(self) -> str:
        tenancy = "solo" if self.tenants == 1 else "2-tenant"
        base = (f"{self.platform}/{self.workload}"
                f"/fault={self.fault_level}/{tenancy}")
        # Default-metric labels are unchanged so golden names are stable.
        if self.metric != "edp":
            base += f"/{self.metric}"
        return base


@dataclass(frozen=True)
class Violation:
    """One observable that left its tolerance budget."""

    observable: str
    reference: float
    candidate: float
    bound: float

    @property
    def error(self) -> float:
        return abs(self.candidate - self.reference)

    def describe(self) -> str:
        return (f"{self.observable}: |{self.candidate!r} - "
                f"{self.reference!r}| = {self.error:.3e} > {self.bound:.3e}")


@dataclass
class CaseOutcome:
    """Everything the mode contract covers, for one (case, mode) run."""

    case: DiffCase
    mode: str
    #: Flattened numeric observables, keyed by a stable name.
    observables: Dict[str, float]
    #: Ordered DecisionRecord exit paths across the whole run (all
    #: tenants, in tenant registration order for multiprogram cells).
    exit_paths: Tuple[str, ...]
    #: sha256 over the run's byte-stable canonical form - goldens
    #: compare the exact mode's value against ``tests/goldens/``.
    fingerprint: str
    #: Quantization step of each discretized observable (energy MSR
    #: reads), by name; absent means continuous.  The comparison grants
    #: one step of extra budget - see the module docstring.
    quanta: Dict[str, float] = field(default_factory=dict)


@dataclass
class DiffReport:
    """Verdict of one candidate mode against the exact reference."""

    case: DiffCase
    mode: str
    tol: float
    violations: List[Violation] = field(default_factory=list)
    exit_paths_equal: bool = True
    reference_exits: Tuple[str, ...] = ()
    candidate_exits: Tuple[str, ...] = ()
    max_error: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and self.exit_paths_equal

    def describe(self) -> str:
        lines = [f"{self.case.label} [{self.mode} vs exact, tol={self.tol}]"]
        for violation in self.violations:
            lines.append("  " + violation.describe())
        if not self.exit_paths_equal:
            lines.append(f"  exit paths diverged:\n"
                         f"    exact:     {self.reference_exits}\n"
                         f"    {self.mode}: {self.candidate_exits}")
        if self.ok:
            lines.append(f"  ok (max error {self.max_error:.3e})")
        return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def platform_for(case: DiffCase, mode: str) -> PlatformSpec:
    if mode not in TICK_MODES:
        raise HarnessError(f"tick mode {mode!r} not in {TICK_MODES}")
    return platform_by_name(case.platform, mode)


def _characterization_for(case: DiffCase):
    # Characterization is computed once per platform under the factory
    # default (exact) mode, as production harness code does: the modes
    # under test then share one table, so any divergence the grid
    # finds is attributable to the application run itself.
    from repro.harness.suite import get_characterization

    return get_characterization(platform_by_name(case.platform))


def _application_outcome(case: DiffCase, mode: str) -> CaseOutcome:
    spec = platform_for(case, mode)
    workload = workload_by_abbrev(case.workload)
    tablet = case.platform == "tablet"
    scheduler = EnergyAwareScheduler(_characterization_for(case),
                                     metric_by_name(case.metric))
    run = run_application(spec, workload, scheduler, "EAS", tablet=tablet,
                          fault_config=fault_config_for(case))
    unit = spec.energy_unit_j
    observables = {"time_s": run.time_s, "energy_j": run.energy_j}
    quanta = {"energy_j": unit}
    for i, inv in enumerate(run.invocations):
        prefix = f"inv[{i}]"
        observables[f"{prefix}.duration_s"] = inv.duration_s
        observables[f"{prefix}.energy_j"] = inv.energy_j
        quanta[f"{prefix}.energy_j"] = unit
        observables[f"{prefix}.cpu_items"] = inv.cpu_items
        observables[f"{prefix}.gpu_items"] = inv.gpu_items
        if inv.alpha is not None:
            observables[f"{prefix}.alpha"] = inv.alpha
    exits = tuple(record.exit_path for record in scheduler.decisions)
    return CaseOutcome(case=case, mode=mode, observables=observables,
                       exit_paths=exits, fingerprint=_sha(run.canonical()),
                       quanta=quanta)


def _multiprogram_outcome(case: DiffCase, mode: str) -> CaseOutcome:
    from repro.runtime.tenancy import parse_tenant_specs, run_multiprogram

    spec = platform_for(case, mode)
    partner = (DEFAULT_PARTNER if case.workload != DEFAULT_PARTNER else "BS")
    tenants = parse_tenant_specs(f"{case.workload}:1,{partner}:0")
    result = run_multiprogram(
        spec=spec, tenants=tenants, policy="fifo", seed=case.seed,
        metric=metric_by_name(case.metric),
        tablet=case.platform == "tablet",
        fault_level=case.fault_level,
        fault_config=fault_config_for(case),
        characterization=_characterization_for(case))
    unit = spec.energy_unit_j
    observables = {
        "total_time_s": result.total_time_s,
        "total_energy_j": result.total_energy_j,
        "items_processed": result.items_processed,
    }
    quanta = {"total_energy_j": unit}
    exits: List[str] = []
    for tenant in result.tenants:
        prefix = f"tenant[{tenant.name}]"
        observables[f"{prefix}.time_s"] = tenant.time_s
        observables[f"{prefix}.energy_j"] = tenant.energy_j
        quanta[f"{prefix}.energy_j"] = unit
        observables[f"{prefix}.lease_grants"] = float(tenant.lease_grants)
        observables[f"{prefix}.gpu_busy_exits"] = float(tenant.gpu_busy_exits)
        for i, inv in enumerate(tenant.results):
            observables[f"{prefix}.inv[{i}].duration_s"] = inv.duration_s
            observables[f"{prefix}.inv[{i}].energy_j"] = inv.energy_j
            quanta[f"{prefix}.inv[{i}].energy_j"] = unit
        exits.extend(record.exit_path for record in tenant.decisions)
    return CaseOutcome(case=case, mode=mode, observables=observables,
                       exit_paths=tuple(exits),
                       fingerprint=result.fingerprint(), quanta=quanta)


def run_case(case: DiffCase, mode: str) -> CaseOutcome:
    """Execute one grid case under one clock mode."""
    if case.tenants == 1:
        return _application_outcome(case, mode)
    return _multiprogram_outcome(case, mode)


def compare_outcomes(reference: CaseOutcome, candidate: CaseOutcome,
                     tol: float = FAST_TOL) -> DiffReport:
    """Hold ``candidate`` to the tolerance contract around ``reference``.

    Both outcomes must come from the same case.  Observables present in
    one run but not the other (an invocation count change, a tenant
    that took a different fallback) are reported as exit-path-level
    divergence rather than silently skipped.
    """
    if reference.case != candidate.case:
        raise HarnessError("comparing outcomes of different cases")
    report = DiffReport(case=candidate.case, mode=candidate.mode, tol=tol,
                        reference_exits=reference.exit_paths,
                        candidate_exits=candidate.exit_paths)
    report.exit_paths_equal = (reference.exit_paths == candidate.exit_paths
                               and set(reference.observables)
                               == set(candidate.observables))
    for name in sorted(set(reference.observables)
                       & set(candidate.observables)):
        ref = reference.observables[name]
        cand = candidate.observables[name]
        # Discretized reads (energy MSR) get one quantization step on
        # top of the tolerance budget: the underlying joules agree
        # within tol, but the reading may land one unit over.
        bound = tolerance_bound(ref, tol) + reference.quanta.get(name, 0.0)
        error = abs(cand - ref)
        report.max_error = max(report.max_error, error)
        if error > bound:
            report.violations.append(Violation(
                observable=name, reference=ref, candidate=cand, bound=bound))
    return report


def diff_case(case: DiffCase,
              reference: Optional[CaseOutcome] = None) -> DiffReport:
    """Run one case under exact and fast and compare."""
    if reference is None:
        reference = run_case(case, "exact")
    return compare_outcomes(reference, run_case(case, "fast"))


def grid_cases(platforms: Sequence[str] = ("desktop", "tablet"),
               workloads: Optional[Dict[str, Sequence[str]]] = None,
               fault_levels: Sequence[float] = DIFF_FAULT_LEVELS,
               tenancies: Sequence[int] = (1, 2),
               seed: int = 2016) -> List[DiffCase]:
    """The differential grid, optionally at reduced breadth.

    ``workloads`` maps platform short name to the abbrevs to sweep;
    None means the platform's full Table-1 suite.
    """
    cases = []
    for platform in platforms:
        if workloads is not None:
            abbrevs: Sequence[str] = workloads[platform]
        else:
            abbrevs = [w.abbrev for w in
                       suite_workloads(tablet=platform == "tablet")]
        for abbrev in abbrevs:
            for fault_level in fault_levels:
                for tenants in tenancies:
                    cases.append(DiffCase(
                        platform=platform, workload=abbrev,
                        fault_level=fault_level, tenants=tenants, seed=seed))
    # One deadline-constrained case per platform.  The deadline is very
    # loose so every grid point is feasible under both clock modes
    # (a tight deadline could flip the feasible set - and the exit path -
    # between modes near the boundary; that behavior is locked by
    # single-mode unit tests instead).  What this locks is that the
    # ConstrainedMetric machinery itself agrees across modes.
    for platform in platforms:
        if workloads is not None:
            if not workloads.get(platform):
                continue
            abbrev = workloads[platform][0]
        else:
            abbrev = suite_workloads(tablet=platform == "tablet")[0].abbrev
        cases.append(DiffCase(platform=platform, workload=abbrev,
                              seed=seed, metric="edp@1000"))
    return cases


# -- exact-mode golden fingerprints ---------------------------------------------

#: Alpha-sweep golden coverage (representative, not exhaustive: one
#: regular and one irregular workload per platform).
_SWEEP_GOLDENS = (("desktop", "MB"), ("desktop", "BS"),
                  ("tablet", "MB"), ("tablet", "BS"))

#: Multiprogram golden coverage.
_MULTIPROGRAM_GOLDENS = (("desktop", "fifo"), ("tablet", "fifo"))


def exact_fingerprint_entries() -> List[str]:
    """Every named golden entry, in recording order."""
    entries = []
    for platform in ("desktop", "tablet"):
        tablet = platform == "tablet"
        for workload in suite_workloads(tablet=tablet):
            entries.append(f"suite-eas/{platform}/{workload.abbrev}")
    entries.extend(f"sweep/{p}/{w}" for p, w in _SWEEP_GOLDENS)
    entries.append("chaos/desktop")
    entries.append("fleet/small")
    entries.extend(f"multiprogram/{p}/{policy}"
                   for p, policy in _MULTIPROGRAM_GOLDENS)
    return entries


def compute_fingerprint(entry: str) -> str:
    """Recompute one golden entry's exact-mode fingerprint.

    Every computation runs serially, uncached (a private
    jobs=1/no-cache engine), under ``tick_mode="exact"`` - the goldens
    pin the *reference* semantics, not any accelerated path.
    """
    from repro.harness.engine import ExecutionEngine, use_engine

    parts = entry.split("/")
    with use_engine(ExecutionEngine(jobs=1, cache=None)):
        if parts[0] == "suite-eas":
            _, platform, abbrev = parts
            case = DiffCase(platform=platform, workload=abbrev)
            return run_case(case, "exact").fingerprint
        if parts[0] == "sweep":
            from repro.harness.suite import sweep_alphas

            _, platform, abbrev = parts
            return sweep_alphas(
                platform_by_name(platform, "exact"),
                workload_by_abbrev(abbrev),
                tablet=platform == "tablet").fingerprint()
        if parts[0] == "chaos":
            from repro.harness.chaos import run_chaos_campaign

            return run_chaos_campaign(
                spec=platform_by_name(parts[1], "exact"),
                fault_levels=DIFF_FAULT_LEVELS, seed=2016).fingerprint()
        if parts[0] == "fleet":
            from repro.fleet.dispatcher import run_fleet
            from repro.fleet.topology import FleetSpec
            from repro.fleet.trace import TraceSpec

            fleet = FleetSpec(n_nodes=12, desktop_fraction=0.5,
                              tick_mode="exact", seed=2016)
            trace = TraceSpec(kind="bursty", duration_s=30.0,
                              mean_rate_hz=2.0, workloads=("MB", "BS"),
                              seed=2016)
            return run_fleet(fleet, trace,
                             policy="energy_aware").fingerprint()
        if parts[0] == "multiprogram":
            _, platform, policy = parts
            from repro.runtime.tenancy import parse_tenant_specs, run_multiprogram

            result = run_multiprogram(
                spec=platform_by_name(platform, "exact"),
                tenants=parse_tenant_specs("MB:1,BS:0"), policy=policy,
                seed=2016, metric=EDP, tablet=platform == "tablet",
                characterization=_characterization_for(
                    DiffCase(platform=platform, workload="MB")))
            return result.fingerprint()
    raise HarnessError(f"unknown golden entry {entry!r}")


def collect_exact_fingerprints(
        entries: Optional[Sequence[str]] = None) -> Dict[str, str]:
    """Compute the named golden entries (default: all of them)."""
    if entries is None:
        entries = exact_fingerprint_entries()
    return {entry: compute_fingerprint(entry) for entry in entries}
