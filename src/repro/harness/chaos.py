"""Chaos campaign: the EAS runtime under swept fault injection.

The campaign runs a workload suite on a :class:`~repro.soc.faults.FaultySoC`
at increasing fault levels and asserts the robustness invariants the
hardened runtime guarantees (see docs/ROBUSTNESS.md):

1. **no unhandled exception** - every cell completes; faults surface
   as fallbacks and quarantines, never as crashes;
2. **no lost work** - every invocation processes all N items (the
   runtime's ``parallel_for`` contract), verified against the
   simulator's ground-truth counters;
3. **bounded degradation** - EAS-under-faults EDP stays at or below
   the clean CPU-alone baseline's EDP at every fault level: at worst
   the scheduler degrades *to* the CPU, it never does worse than
   having had no GPU at all;
4. **determinism** - the same campaign run twice with the same seed
   produces byte-identical results (:meth:`ChaosCampaignResult.fingerprint`).

Cell metrics come from the simulator's *ground truth* (``inner.now``,
``inner.msr.lifetime_joules``), not from the software-visible MSR
reads: under MSR fault injection the software measurement itself is
corrupted, and an experiment must not let a broken sensor grade its
own homework.  Each cell also records the software-*measured* energy
so the discrepancy is visible in reports.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import EDP, EnergyMetric
from repro.core.scheduler import EnergyAwareScheduler, SchedulerConfig
from repro.errors import ReproError
from repro.obs.records import (
    EXIT_DEGRADED,
    EXIT_FAULT_DEGRADED,
    DecisionRecord,
)
from repro.harness.report import format_table, heading
from repro.harness.suite import get_characterization
from repro.runtime.runtime import ConcordRuntime
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor
from repro.soc.spec import PlatformSpec, haswell_desktop
from repro.workloads.base import Workload
from repro.workloads.registry import workload_by_abbrev

#: Default fault-probability sweep (the campaign's x-axis).
DEFAULT_FAULT_LEVELS: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

#: Default campaign workloads: four suite applications spanning single-
#: and many-invocation launch structures.  (FD is excluded by design:
#: even fault-free, EAS trails plain CPU execution on it - the paper's
#: known miss - so it cannot carry a degradation *bound* against the
#: CPU baseline.)
DEFAULT_WORKLOADS: Tuple[str, ...] = ("MB", "BS", "MM", "RT")


def cell_seed(campaign_seed: int, workload: str, level: float) -> int:
    """Deterministic per-cell fault seed (stable across processes)."""
    tag = f"{campaign_seed}:{workload}:{level:.6f}".encode()
    return zlib.crc32(tag) & 0x7FFFFFFF


@dataclass(frozen=True)
class ChaosCell:
    """One (workload, fault level) cell of the campaign."""

    workload: str
    fault_level: float
    ok: bool
    error: str = ""
    #: Ground-truth wall time and energy of the whole application.
    time_s: float = 0.0
    energy_j: float = 0.0
    #: Energy as read through the (possibly faulty) software MSR
    #: protocol - may disagree with ground truth under MSR faults.
    measured_energy_j: float = 0.0
    items_expected: float = 0.0
    items_processed: float = 0.0
    invocations: int = 0
    #: Invocations that ended in a GPU-fault CPU fallback.
    fallback_invocations: int = 0
    #: Kernels whose fault budget was exhausted (sticky degradation).
    degraded_kernels: int = 0
    #: Injected fault counts by kind, from the substrate's fault log.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-invocation scheduler audit records (the observability
    #: layer's decision stream), in invocation order.  Deliberately
    #: EXCLUDED from :meth:`canonical`: the determinism fingerprint is
    #: pinned by the measured quantities, and keeping its input set
    #: frozen lets fingerprints compare across code revisions that
    #: only enrich the audit trail.
    decision_records: Tuple[DecisionRecord, ...] = ()

    @property
    def edp(self) -> float:
        return self.energy_j * self.time_s

    @property
    def all_items_processed(self) -> bool:
        return abs(self.items_processed - self.items_expected) <= max(
            1e-6 * self.items_expected, 1e-6)

    def canonical(self) -> str:
        """Byte-stable serialization for the determinism fingerprint."""
        counts = ",".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
        return (f"{self.workload}|{self.fault_level!r}|{self.ok}|{self.error}|"
                f"{self.time_s!r}|{self.energy_j!r}|{self.measured_energy_j!r}|"
                f"{self.items_processed!r}|{self.invocations}|"
                f"{self.fallback_invocations}|{self.degraded_kernels}|{counts}")

    def degradation_explanations(self) -> List[str]:
        """One line per decision that degraded or fell back to the CPU.

        Every degraded kernel in the cell is explained by at least one
        of these lines, naming the specific fault event(s) observed and
        the fallback reason the scheduler recorded.
        """
        lines = []
        for record in self.decision_records:
            if (record.fallback_reason is not None
                    or record.exit_path in (EXIT_DEGRADED,
                                            EXIT_FAULT_DEGRADED)):
                lines.append(record.explain())
        return lines


@dataclass
class ChaosCampaignResult:
    """Full sweep: workloads x fault levels, plus clean CPU baselines."""

    platform: str
    seed: int
    levels: List[float]
    workloads: List[str]
    #: Clean CPU-alone (time_s, energy_j) per workload.
    cpu_baselines: Dict[str, Tuple[float, float]]
    cells: List[ChaosCell]

    # -- invariants -------------------------------------------------------------

    @property
    def all_ok(self) -> bool:
        """Invariant 1: every cell completed without an exception."""
        return all(cell.ok for cell in self.cells)

    @property
    def all_items_processed(self) -> bool:
        """Invariant 2: no invocation lost work, at any fault level."""
        return all(cell.all_items_processed for cell in self.cells if cell.ok)

    def cpu_edp(self, workload: str) -> float:
        time_s, energy_j = self.cpu_baselines[workload]
        return energy_j * time_s

    def edp_bound_violations(self) -> List[ChaosCell]:
        """Invariant 3: cells whose EDP exceeds the CPU-alone baseline."""
        return [cell for cell in self.cells
                if cell.ok and cell.edp > self.cpu_edp(cell.workload)]

    @property
    def edp_bounded(self) -> bool:
        return not self.edp_bound_violations()

    def fingerprint(self) -> str:
        """Invariant 4: byte-identical reruns hash identically."""
        payload = "\n".join([
            f"{self.platform}|{self.seed}",
            *(f"{w}|{t!r}|{e!r}" for w, (t, e) in sorted(self.cpu_baselines.items())),
            *(cell.canonical() for cell in self.cells),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def total_fault_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for cell in self.cells:
            for kind, count in cell.fault_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def render(self) -> str:
        rows = []
        for cell in self.cells:
            status = "ok" if cell.ok else f"FAILED: {cell.error}"
            ratio = (cell.edp / self.cpu_edp(cell.workload)
                     if cell.ok and self.cpu_edp(cell.workload) > 0 else float("nan"))
            rows.append((
                cell.workload, f"{cell.fault_level:.2f}",
                cell.fault_counts and sum(cell.fault_counts.values()) or 0,
                cell.fallback_invocations, cell.degraded_kernels,
                cell.edp if cell.ok else float("nan"), ratio, status))
        table = format_table(
            ["workload", "fault p", "faults", "fallbacks", "degraded",
             "EDP (J*s)", "EDP / CPU", "status"], rows, float_digits=3)
        invariants = [
            f"no unhandled exceptions: {'PASS' if self.all_ok else 'FAIL'}",
            f"all items processed:     "
            f"{'PASS' if self.all_items_processed else 'FAIL'}",
            f"EDP <= CPU baseline:     {'PASS' if self.edp_bounded else 'FAIL'}",
            f"fingerprint: {self.fingerprint()}",
        ]
        totals = ", ".join(f"{k}={v}" for k, v in
                           sorted(self.total_fault_counts().items())) or "none"
        audit: List[str] = []
        for cell in self.cells:
            if not (cell.degraded_kernels or cell.fallback_invocations):
                continue
            lines = cell.degradation_explanations()
            for line in lines[:3]:
                audit.append(f"  [{cell.workload} @ p={cell.fault_level:.2f}] "
                             f"{line}")
            if len(lines) > 3:
                audit.append(f"  [{cell.workload} @ p={cell.fault_level:.2f}] "
                             f"... and {len(lines) - 3} more")
        return "\n".join([
            heading(f"Chaos campaign on {self.platform} (seed {self.seed})"),
            table,
            "",
            f"injected faults: {totals}",
            *(["", "degradation audit (from decision records):", *audit]
              if audit else []),
            "",
            *invariants,
        ])


def run_chaos_cell(spec: PlatformSpec, workload: Workload, characterization,
                   fault_level: float, seed: int,
                   metric: EnergyMetric = EDP,
                   eas_config: Optional[SchedulerConfig] = None) -> ChaosCell:
    """One workload under EAS on a faulty SoC at one fault level.

    Any :class:`ReproError` escaping the runtime marks the cell failed
    (invariant 1 is *asserted by the caller*, not hidden here).
    """
    inner = IntegratedProcessor(spec)
    faulty = FaultySoC(inner, FaultConfig.from_level(fault_level, seed=seed))
    runtime = ConcordRuntime(faulty)
    scheduler = EnergyAwareScheduler(characterization, metric,
                                    config=eas_config)
    kernel = workload.make_kernel()
    invocations = workload.invocations()
    expected = sum(inv.n_items for inv in invocations)

    t0 = inner.now
    e0 = inner.msr.lifetime_joules
    counters0 = inner.snapshot_counters()
    msr0 = faulty.read_energy_msr()
    fallbacks = 0
    processed = 0.0
    try:
        for inv in invocations:
            result = runtime.parallel_for(kernel, inv.n_items, scheduler)
            if "gpu-faulted-fallback" in result.notes:
                fallbacks += 1
    except ReproError as exc:
        return ChaosCell(workload=workload.abbrev, fault_level=fault_level,
                         ok=False, error=f"{type(exc).__name__}: {exc}",
                         items_expected=expected,
                         fault_counts=faulty.fault_log.kinds(),
                         decision_records=tuple(scheduler.decisions))
    msr1 = faulty.read_energy_msr()
    counters1 = inner.snapshot_counters()
    processed = (counters1.cpu_items - counters0.cpu_items
                 + counters1.gpu_items - counters0.gpu_items)
    return ChaosCell(
        workload=workload.abbrev,
        fault_level=fault_level,
        ok=True,
        time_s=inner.now - t0,
        energy_j=inner.msr.lifetime_joules - e0,
        measured_energy_j=inner.msr.joules_between(msr0, msr1),
        items_expected=expected,
        items_processed=processed,
        invocations=len(invocations),
        fallback_invocations=fallbacks,
        degraded_kernels=len(scheduler.degraded_kernels),
        fault_counts=faulty.fault_log.kinds(),
        decision_records=tuple(scheduler.decisions),
    )


def run_chaos_campaign(spec: Optional[PlatformSpec] = None,
                       workloads: Optional[Sequence[Workload]] = None,
                       fault_levels: Sequence[float] = DEFAULT_FAULT_LEVELS,
                       seed: int = 2016,
                       engine=None,
                       tick_mode: Optional[str] = None
                       ) -> ChaosCampaignResult:
    """Sweep fault probability over the workload suite under EDP EAS.

    Fully deterministic given ``seed``: per-cell fault streams are
    derived via :func:`cell_seed`, and every reported quantity comes
    from the deterministic simulation - which is why the whole grid
    (clean CPU baselines + cells) runs as one batch on the execution
    ``engine`` (default: the session's) with unchanged fingerprints.
    Registry workloads only: anything else raises
    :class:`~repro.errors.HarnessError` before any cell runs.
    """
    from repro.harness.engine import (
        KIND_CHAOS_BASELINE,
        KIND_CHAOS_CELL,
        RunSpec,
        SchedulerSpec,
        get_default_engine,
        spec_workload,
    )

    spec = spec or haswell_desktop(tick_mode=tick_mode)
    if workloads is None:
        workloads = [workload_by_abbrev(a) for a in DEFAULT_WORKLOADS]
    eas = SchedulerSpec.eas()
    abbrevs = [spec_workload(w) for w in workloads]
    batch = [RunSpec(platform=spec, workload=abbrev,
                     kind=KIND_CHAOS_BASELINE) for abbrev in abbrevs]
    batch.extend(
        RunSpec(platform=spec, workload=abbrev, scheduler=eas,
                kind=KIND_CHAOS_CELL, fault_level=level,
                seed=cell_seed(seed, abbrev, level))
        for abbrev in abbrevs
        for level in fault_levels)
    results = (engine or get_default_engine()).run_batch(batch)
    return ChaosCampaignResult(
        platform=spec.name,
        seed=seed,
        levels=list(fault_levels),
        workloads=abbrevs,
        cpu_baselines={abbrev: results[i].payload
                       for i, abbrev in enumerate(abbrevs)},
        cells=[r.payload for r in results[len(abbrevs):]],
    )


def regenerate_chaos(tick_mode: Optional[str] = None) -> ChaosCampaignResult:
    """Registry entry point: the default desktop chaos campaign."""
    return run_chaos_campaign(tick_mode=tick_mode)


# -- multiprogram chaos ----------------------------------------------------------

#: Default multiprogram chaos mix: two many-invocation tenants that
#: genuinely contend for the GPU lease (BS has 2000 invocations, CC
#: 2147), with CC prioritized so both arbiter policies are meaningful.
DEFAULT_TENANT_MIX = "BS,CC:5"


@dataclass(frozen=True)
class MultiprogramChaosCell:
    """One (arbiter policy, fault level) cell of the tenancy campaign."""

    policy: str
    fault_level: float
    ok: bool
    error: str = ""
    #: The underlying :meth:`MultiprogramResult.fingerprint`.
    result_fingerprint: str = ""
    items_ok: bool = False
    gpu_busy_exits: int = 0
    lease_denials: int = 0
    total_time_s: float = 0.0
    total_energy_j: float = 0.0

    def canonical(self) -> str:
        return (f"{self.policy}|{self.fault_level!r}|{self.ok}|{self.error}|"
                f"{self.result_fingerprint}|{self.items_ok}|"
                f"{self.gpu_busy_exits}|{self.lease_denials}|"
                f"{self.total_time_s!r}|{self.total_energy_j!r}")


@dataclass
class MultiprogramChaosCampaignResult:
    """Arbiter policies x fault levels, one tenant mix per campaign.

    Asserts the tenancy analogues of the campaign invariants: every
    cell completes (faults surface as fallbacks, not crashes), no
    tenant loses work at any fault level, and the whole grid is
    byte-deterministic under a fixed seed.
    """

    platform: str
    seed: int
    tenant_text: str
    lease_quantum: int
    policies: List[str]
    levels: List[float]
    cells: List[MultiprogramChaosCell]

    @property
    def all_ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def all_items_processed(self) -> bool:
        return all(cell.items_ok for cell in self.cells if cell.ok)

    def fingerprint(self) -> str:
        payload = "\n".join([
            f"{self.platform}|{self.seed}|{self.tenant_text}|"
            f"{self.lease_quantum}",
            *(cell.canonical() for cell in self.cells),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self) -> str:
        rows = []
        for cell in self.cells:
            status = "ok" if cell.ok else f"FAILED: {cell.error}"
            rows.append((cell.policy, f"{cell.fault_level:.2f}",
                         cell.lease_denials, cell.gpu_busy_exits,
                         cell.total_time_s, cell.total_energy_j, status))
        table = format_table(
            ["policy", "fault p", "denials", "gpu-busy exits", "time (s)",
             "energy (J)", "status"], rows, float_digits=3)
        return "\n".join([
            heading(f"Multiprogram chaos campaign on {self.platform} "
                    f"(tenants={self.tenant_text}, seed {self.seed})"),
            table,
            "",
            f"no unhandled exceptions: {'PASS' if self.all_ok else 'FAIL'}",
            f"all items processed:     "
            f"{'PASS' if self.all_items_processed else 'FAIL'}",
            f"fingerprint: {self.fingerprint()}",
        ])


def run_multiprogram_chaos_campaign(
        spec: Optional[PlatformSpec] = None,
        tenant_text: str = DEFAULT_TENANT_MIX,
        policies: Optional[Sequence[str]] = None,
        fault_levels: Sequence[float] = DEFAULT_FAULT_LEVELS,
        seed: int = 2016,
        lease_quantum: int = 2,
        tick_mode: Optional[str] = None,
) -> MultiprogramChaosCampaignResult:
    """Sweep fault probability over the tenancy layer under EDP EAS.

    Runs the same tenant mix under every arbiter policy at every fault
    level; per-cell fault streams derive from :func:`cell_seed` (keyed
    by ``mp:<policy>``) so the grid is deterministic and cells are
    independent.
    """
    from repro.runtime.tenancy import (
        ARBITER_POLICIES,
        parse_tenant_specs,
        run_multiprogram,
    )

    spec = spec or haswell_desktop(tick_mode=tick_mode)
    if policies is None:
        policies = list(ARBITER_POLICIES)
    characterization = get_characterization(spec)
    cells: List[MultiprogramChaosCell] = []
    for policy in policies:
        for level in fault_levels:
            cs = cell_seed(seed, f"mp:{policy}", level)
            try:
                result = run_multiprogram(
                    spec=spec, tenants=parse_tenant_specs(tenant_text),
                    policy=policy, seed=cs, fault_level=level,
                    lease_quantum=lease_quantum,
                    characterization=characterization)
            except ReproError as exc:
                cells.append(MultiprogramChaosCell(
                    policy=policy, fault_level=level, ok=False,
                    error=f"{type(exc).__name__}: {exc}"))
                continue
            cells.append(MultiprogramChaosCell(
                policy=policy, fault_level=level, ok=True,
                result_fingerprint=result.fingerprint(),
                items_ok=result.all_items_processed,
                gpu_busy_exits=result.total_gpu_busy_exits,
                lease_denials=result.total_lease_denials,
                total_time_s=result.total_time_s,
                total_energy_j=result.total_energy_j))
    return MultiprogramChaosCampaignResult(
        platform=spec.name,
        seed=seed,
        tenant_text=tenant_text,
        lease_quantum=lease_quantum,
        policies=list(policies),
        levels=list(fault_levels),
        cells=cells,
    )
