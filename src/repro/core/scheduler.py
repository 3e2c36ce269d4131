"""The energy-aware scheduler (EAS) - Fig. 7 of the paper.

Per kernel invocation:

1. If the GPU is busy with other work (performance counter A26),
   execute entirely on the CPU (Section 5).  The check is debounced:
   a transiently flapping counter must not needlessly forfeit the GPU.
2. If table G already holds an alpha for this kernel, reuse it for all
   N iterations (lines 2-4).
3. If N is below GPU_PROFILE_SIZE, run CPU-alone and record alpha=0
   (lines 6-10).
4. Otherwise repeat online profiling until half of the iterations are
   consumed (lines 13-22), following the *size-based* strategy of
   reference [12]: each round offloads a doubling GPU chunk while CPU
   workers drain the shared pool.  Each round re-derives R_C and R_G,
   classifies the workload (memory/compute x CPU-short/long x
   GPU-short/long), selects the platform's power curve for that
   category, and grid-searches alpha minimizing
   OBJ(P(alpha), T(alpha)).
5. Offload ``alpha * N_rem`` to the GPU and run ``(1-alpha) * N_rem``
   on the CPU with work stealing (lines 23-25), then accumulate alpha
   into G sample-weighted (line 26).

The scheduler's own decision cost (the alpha grid search) is measured
with the host's performance clock; the paper reports 1-2 microseconds
per invocation and our benchmark harness tracks the same quantity.

**Resilience** (see docs/ROBUSTNESS.md): every GPU interaction may
raise :class:`~repro.errors.GpuFaultError` on a faulty platform.
Failed profiling chunks are retried with bounded backoff; a per-kernel
fault budget triggers graceful degradation to CPU-only execution
(sticky, recorded as ``notes=["gpu-faulted-fallback"]``);
:meth:`EnergyAwareScheduler._derive_alpha` rejects NaN/zero/absurd
throughput readings and falls back to the last-known-good table-G
alpha; alphas derived under observed faults are quarantined in table G
so one bad profile cannot poison future invocations; and a watchdog
caps the number of profiling rounds per invocation.

**Observability** (see docs/OBSERVABILITY.md): every invocation emits
one :class:`~repro.obs.records.DecisionRecord` - whatever exit path it
takes, including all degradation branches - into
:attr:`EnergyAwareScheduler.decisions` and, when an
:class:`~repro.obs.Observer` is attached, into the observer's decision
stream.  An attached observer additionally collects spans
(``eas.invocation``, ``eas.profiling_round``, ``eas.grid_search``) and
metrics (rounds, retries, faults, fault-bucket levels, grid-search
microseconds).  With no observer the scheduler pays one attribute load
per hook: the shared :data:`~repro.obs.NULL_OBSERVER` no-ops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.characterization import PlatformCharacterization
from repro.core.classification import ClassificationInputs, OnlineClassifier
from repro.core.metrics import ConstrainedMetric, EnergyMetric
from repro.core.optimizer import DEFAULT_ALPHA_STEP, AlphaOptimizer
from repro.core.profiling import KernelTable, ProfileAggregate
from repro.errors import GpuFaultError, SchedulingError
from repro.obs.observer import NULL_OBSERVER, Observer, resolve
from repro.obs.records import (
    EXIT_COOLDOWN,
    EXIT_DEADLINE_INFEASIBLE,
    EXIT_DEGRADED,
    EXIT_FAULT_DEGRADED,
    EXIT_GPU_BUSY,
    EXIT_PROFILED,
    EXIT_SMALL_N,
    EXIT_TABLE_HIT,
    DecisionRecord,
)
from repro.runtime.runtime import KernelLaunch, ProfileObservation, SchedulerRecord

#: Throughputs above this (items/s) are treated as sensor garbage.
MAX_SANE_THROUGHPUT = 1e15

#: Note recorded whenever the scheduler degrades to CPU-only because
#: of GPU faults (per-kernel fault budget exhausted, or a faulted
#: partitioned phase drained on the CPU).
GPU_FAULTED_FALLBACK = "gpu-faulted-fallback"


@dataclass
class SchedulerConfig:
    """Validated tunables of the EAS algorithm (ablation + resilience).

    Invalid values raise :class:`~repro.errors.SchedulingError` at
    construction instead of misbehaving mid-run.
    """

    # -- profiling / optimization knobs -------------------------------------------

    #: Grid increment for the alpha search (the paper uses 0.1).
    alpha_step: float = DEFAULT_ALPHA_STEP
    #: Stop profiling once this fraction of N has been consumed.
    profile_fraction: float = 0.5
    #: Grow the GPU profiling chunk by this factor each round
    #: (size-based strategy of [12]).
    chunk_growth: float = 2.0
    #: Stop profiling early once successive alpha estimates agree
    #: within this tolerance (after at least two rounds).  Keeps the
    #: paper's "near-zero overhead" property: profiling up to half the
    #: iterations is the worst case, not the common case.  A negative
    #: tolerance disables convergence (ablation use).
    convergence_tolerance: float = 0.05
    #: Re-derive alpha by profiling again on every invocation instead
    #: of reusing table G (ablation; the paper reuses G).
    always_reprofile: bool = False
    #: Re-profile when an invocation is this many times larger than
    #: the invocation its table-G alpha was derived from (the paper
    #: repeats profiling "for workloads where the same kernel behaves
    #: differently over time"); the new alpha is accumulated
    #: sample-weighted, per Fig. 7 line 26.
    reprofile_growth: float = 4.0
    #: Override the platform's GPU_PROFILE_SIZE (None = use spec).
    gpu_profile_size: Optional[int] = None

    # -- resilience knobs (docs/ROBUSTNESS.md) -----------------------------------

    #: Retries for one failed GPU profiling chunk (0 = no retry).
    max_profile_retries: int = 2
    #: Simulated idle backoff before a retry; grows linearly with the
    #: attempt number.  Defaults to 0 (immediate retry): on an
    #: integrated part an idle backoff drops the package into its
    #: low-power state, and the post-idle DVFS ramp costs far more than
    #: the backoff buys.  Raise it on platforms whose transients need
    #: settle time.
    retry_backoff_s: float = 0.0
    #: After any observed GPU fault, route *new* invocations of that
    #: kernel to the CPU for this long (a circuit-breaker half-open
    #: window).  Defaults to 0 (disabled): on the integrated platform a
    #: cooldown makes many-tiny-invocation workloads alternate between
    #: GPU and CPU execution, and every alternation pays the package's
    #: post-idle DVFS ramp tax - measured campaigns show the cooldown
    #: *raising* EDP under faults.  The knob remains for discrete-GPU
    #: style platforms where backing off a flaky device is cheap.
    fault_cooldown_s: float = 0.0
    #: Per-kernel GPU-fault budget with leaky-bucket semantics: every
    #: observed fault fills the bucket by one, every successful GPU
    #: operation drains it by one.  When the bucket reaches this level
    #: the kernel degrades to CPU-only execution for the rest of the
    #: run (sticky).  Transient faults on a mostly-healthy GPU never
    #: exhaust it; a dead GPU exhausts it after ~budget consecutive
    #: failures, bounding the total time wasted on a lost cause.
    fault_budget: int = 8
    #: Watchdog cap on profiling rounds per invocation - a faulty
    #: platform must not trap the scheduler in an endless profile loop.
    max_profile_rounds: int = 12
    #: Re-reads of a busy ``gpu_busy`` counter before trusting it
    #: (debounce against transient flapping; 0 = trust the first read).
    gpu_busy_rechecks: int = 1
    #: Idle pause between ``gpu_busy`` re-reads.  An immediate re-read
    #: (0.0, the default) already filters a transient flap; a positive
    #: pause trades simulated time for robustness to longer glitches.
    gpu_busy_recheck_idle_s: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject out-of-range knob values with a precise message."""
        def _require(ok: bool, name: str, why: str) -> None:
            if not ok:
                raise SchedulingError(
                    f"SchedulerConfig.{name}={getattr(self, name)!r} "
                    f"invalid: {why}")

        _require(0.0 < self.alpha_step <= 1.0, "alpha_step",
                 "must be in (0, 1]")
        _require(0.0 < self.profile_fraction <= 1.0, "profile_fraction",
                 "must be in (0, 1]")
        _require(self.chunk_growth >= 1.0, "chunk_growth", "must be >= 1")
        _require(self.reprofile_growth >= 1.0, "reprofile_growth",
                 "must be >= 1")
        _require(self.gpu_profile_size is None or self.gpu_profile_size > 0,
                 "gpu_profile_size", "must be positive (or None)")
        _require(self.max_profile_retries >= 0, "max_profile_retries",
                 "must be >= 0")
        _require(self.retry_backoff_s >= 0.0, "retry_backoff_s",
                 "must be >= 0")
        _require(self.fault_cooldown_s >= 0.0, "fault_cooldown_s",
                 "must be >= 0")
        _require(self.fault_budget >= 1, "fault_budget", "must be >= 1")
        _require(self.max_profile_rounds >= 1, "max_profile_rounds",
                 "must be >= 1")
        _require(self.gpu_busy_rechecks >= 0, "gpu_busy_rechecks",
                 "must be >= 0")
        _require(self.gpu_busy_recheck_idle_s >= 0.0,
                 "gpu_busy_recheck_idle_s", "must be >= 0")


class EnergyAwareScheduler:
    """EAS: black-box energy-aware CPU-GPU work partitioning."""

    def __init__(self, characterization: PlatformCharacterization,
                 metric: EnergyMetric,
                 classifier: Optional[OnlineClassifier] = None,
                 config: Optional[SchedulerConfig] = None,
                 observer: Optional[Observer] = None) -> None:
        self.characterization = characterization
        self.metric = metric
        self.classifier = classifier or OnlineClassifier()
        self.config = config or SchedulerConfig()
        self.observer = resolve(observer)
        self.table = KernelTable()
        self.optimizer = AlphaOptimizer(metric=metric, step=self.config.alpha_step)
        #: One :class:`DecisionRecord` per invocation, every exit path.
        self.decisions: List[DecisionRecord] = []
        #: Leaky-bucket fault level per kernel key (faults fill,
        #: successes drain; degradation triggers at the budget).
        self.fault_counts: Dict[str, int] = {}
        #: Lifetime GPU-fault totals per kernel key (diagnostics only).
        self.fault_totals: Dict[str, int] = {}
        #: Kernels whose fault budget is exhausted: CPU-only from now on.
        self.degraded_kernels: Set[str] = set()
        #: Per-kernel circuit-breaker: simulated time before which new
        #: invocations stay on the CPU after an observed GPU fault.
        self.gpu_retry_after: Dict[str, float] = {}
        #: Most recent fault events per kernel, so later CPU-only
        #: invocations of a degraded kernel can still name the faults
        #: that tripped its budget.
        self.last_fault_events: Dict[str, List[str]] = {}
        #: Fault events observed during the invocation in flight.
        self._fault_events: List[str] = []
        #: Co-run context tag for contention-aware table-G keying (see
        #: docs/ARCHITECTURE.md).  When set (e.g. ``"mp2"`` by the
        #: multiprogram coordinator), table-G entries are keyed
        #: ``"<kernel>|co:<context>"`` so an alpha derived while the
        #: GPU was leased to another tenant is never reused as if it
        #: were a solo measurement.  Empty = solo: keys, and therefore
        #: single-tenant behaviour, are unchanged.
        self.co_run_context: str = ""
        #: Simulated idle seconds burned inside the gpu_busy debounce
        #: loop during the invocation in flight (charged to the
        #: invocation's decision record).
        self._debounce_idle_s: float = 0.0
        #: Table audit state of the invocation in flight.
        self._table_hit: bool = False
        self._table_usable: bool = False
        #: Set by the *final* grid search of the invocation in flight
        #: when the metric is deadline-constrained and the feasible
        #: set {alpha : T(alpha) <= deadline} came up empty - the
        #: invocation then ran at the min-T alpha and exits through
        #: EXIT_DEADLINE_INFEASIBLE instead of EXIT_PROFILED.
        self._deadline_infeasible: bool = False

    # -- SchedulerProtocol ---------------------------------------------------------

    def execute(self, launch: KernelLaunch) -> SchedulerRecord:
        key = launch.kernel.key
        obs = self.observer
        if obs.enabled:
            with obs.span("eas.invocation", kernel=key,
                          n_items=launch.n_items):
                record = self._execute(launch, key)
        else:
            record = self._execute(launch, key)
        if self._fault_events:
            self.last_fault_events[key] = list(self._fault_events)
        return record

    def _execute(self, launch: KernelLaunch, key: str) -> SchedulerRecord:
        obs = self.observer
        obs.inc("eas.invocations")
        tkey = self._table_key(key)
        self.table.note_invocation(tkey)
        self._fault_events = []
        self._debounce_idle_s = 0.0
        self._deadline_infeasible = False

        profile_size = (self.config.gpu_profile_size
                        or launch.processor.spec.gpu_profile_size)
        entry = self.table.lookup(tkey)
        # Audit both facts: *presence* of a table entry (table_hit) and
        # actual reuse *eligibility* under the hygiene rules
        # (table_usable) - a quarantined or provisional entry must not
        # inflate the reported hit rate.
        self._table_hit = entry is not None
        self._table_usable = self._entry_usable(entry, launch.n_items,
                                                profile_size)
        if self._table_hit:
            obs.inc("eas.table_hits")
        if self._table_usable:
            obs.inc("eas.table_usable")

        # GPU busy with other work: CPU-alone fallback (Section 5),
        # debounced against transient counter flapping.
        if self._gpu_busy_debounced(launch):
            launch.run_cpu_only()
            self._emit_decision(
                launch, key, EXIT_GPU_BUSY, alpha=0.0,
                fallback_reason="GPU busy with other work (A26 counter)",
                notes=["gpu-busy-fallback"])
            return SchedulerRecord(alpha=0.0, notes=["gpu-busy-fallback"])

        # Fault budget exhausted earlier: the GPU is not to be trusted
        # for this kernel any more.  Graceful degradation, not a crash.
        # A kernel still inside its post-fault cooldown window gets the
        # same CPU-only treatment, but only until the window closes.
        degraded = key in self.degraded_kernels
        if degraded or launch.processor.now < self.gpu_retry_after.get(key, 0.0):
            launch.run_cpu_only()
            if degraded:
                reason = (f"fault budget ({self.config.fault_budget}) "
                          "exhausted on an earlier invocation; kernel is "
                          "CPU-only (sticky)")
                exit_path = EXIT_DEGRADED
            else:
                reason = (f"inside post-fault cooldown window (until "
                          f"t={self.gpu_retry_after.get(key, 0.0):.6f}s)")
                exit_path = EXIT_COOLDOWN
            self._emit_decision(
                launch, key, exit_path, alpha=0.0, from_table=True,
                fallback_reason=reason,
                fault_events=self.last_fault_events.get(key, []),
                notes=[GPU_FAULTED_FALLBACK])
            return SchedulerRecord(alpha=0.0, notes=[GPU_FAULTED_FALLBACK])

        # Lines 2-4: reuse alpha from table G.  ``table_usable``
        # already encodes the hygiene rules: provisional entries
        # (small-N fast path) are only reused for further small
        # launches; a launch big enough to profile supersedes them, as
        # does one far larger than the entry was derived from; and
        # quarantined entries (derived under faults) are never reused.
        if self._table_usable and not self.config.always_reprofile:
            record = self._run_remainder(launch, key, entry.alpha)
            fell_back = GPU_FAULTED_FALLBACK in record.notes
            self._emit_decision(
                launch, key, EXIT_TABLE_HIT, alpha=record.alpha,
                category=entry.category, from_table=True,
                fallback_reason=("partitioned phase faulted; remainder "
                                 "drained on the CPU" if fell_back else None),
                notes=record.notes)
            record.profiled = False
            return record

        # Lines 6-10: too little parallelism for the GPU at all.
        if launch.n_items < profile_size:
            launch.run_cpu_only()
            self.table.record(tkey, alpha=0.0, weight=launch.n_items,
                              provisional=True)
            self._emit_decision(
                launch, key, EXIT_SMALL_N, alpha=0.0,
                fallback_reason=(f"N={launch.n_items:.0f} below "
                                 f"GPU_PROFILE_SIZE={profile_size}"),
                notes=["small-n-cpu-only"])
            return SchedulerRecord(alpha=0.0, profiled=False,
                                   notes=["small-n-cpu-only"])

        # Lines 13-22: repeated profiling for half of the iterations,
        # capped by the round watchdog on hostile platforms.
        aggregate = ProfileAggregate()
        profiling_time = 0.0
        chunk = float(profile_size)
        alpha: Optional[float] = None
        category = None
        sanity_note: Optional[str] = None
        faulted = False
        decision_overhead = 0.0
        keep_profiling_above = launch.n_items * (1.0 - self.config.profile_fraction)
        while (launch.remaining_items > keep_profiling_above
               and aggregate.num_rounds < self.config.max_profile_rounds):
            # Never hand the GPU more than half the remainder: a
            # profiling round must leave work for the partitioned run.
            chunk_now = min(chunk, launch.remaining_items * 0.5)
            if chunk_now < 64.0:
                break
            with obs.span("eas.profiling_round", kernel=key,
                          round=aggregate.num_rounds, chunk=chunk_now):
                observation, had_fault = self._profile_with_retry(
                    launch, key, chunk_now)
            faulted = faulted or had_fault
            if observation is None:
                if key in self.degraded_kernels:
                    # Fault budget exhausted: the GPU really is gone.
                    return self._degrade(launch, key, aggregate,
                                         profiling_time)
                # Retries exhausted but budget remains: keep trying -
                # each failure fills the leaky bucket, so this persists
                # for at most ~budget attempts before degrading.
                continue
            obs.inc("eas.profiling_rounds")
            profiling_time += observation.cpu_time_s
            aggregate.add(observation)
            t_host = time.perf_counter()
            prev_alpha = alpha
            with obs.span("eas.grid_search", kernel=key):
                alpha, category, sanity_note = self._derive_alpha(
                    aggregate, launch.remaining_items, launch.n_items, tkey)
            round_overhead = time.perf_counter() - t_host
            decision_overhead += round_overhead
            obs.observe("eas.grid_search_us", round_overhead * 1e6)
            chunk *= self.config.chunk_growth
            if (prev_alpha is not None
                    and abs(alpha - prev_alpha) <= self.config.convergence_tolerance):
                break

        while alpha is None:
            # No successful profiling round yet - either the while loop
            # never ran (e.g. N barely above the profile size, or a
            # pathological profile fraction) or every round faulted
            # without exhausting the budget.  Take a minimal round,
            # persisting until it succeeds or the budget is gone.
            # Clamp the chunk to the 64-item floor used in the main
            # loop so a tiny remainder cannot trip profile_chunk's
            # positivity check.
            chunk_now = max(64.0, min(chunk, launch.remaining_items * 0.5))
            with obs.span("eas.profiling_round", kernel=key,
                          round=aggregate.num_rounds, chunk=chunk_now,
                          minimal=True):
                observation, had_fault = self._profile_with_retry(
                    launch, key, chunk_now)
            faulted = faulted or had_fault
            if observation is None:
                if key in self.degraded_kernels:
                    return self._degrade(launch, key, aggregate,
                                         profiling_time)
                continue
            obs.inc("eas.profiling_rounds")
            profiling_time += observation.cpu_time_s
            aggregate.add(observation)
            t_host = time.perf_counter()
            with obs.span("eas.grid_search", kernel=key):
                alpha, category, sanity_note = self._derive_alpha(
                    aggregate, launch.remaining_items, launch.n_items, tkey)
            round_overhead = time.perf_counter() - t_host
            decision_overhead += round_overhead
            obs.observe("eas.grid_search_us", round_overhead * 1e6)

        if sanity_note is not None:
            faulted = True
            self._fault_events.append(f"derive-alpha: {sanity_note}")

        # Lines 23-25: partitioned execution of the remainder.
        record = self._run_remainder(launch, key, alpha)
        fell_back = GPU_FAULTED_FALLBACK in record.notes
        faulted = faulted or fell_back

        # Line 26: sample-weighted accumulation into G.  An alpha
        # derived while faults were observed is quarantined: recorded
        # for diagnostics, never reused, never diluting a clean entry.
        self.table.record(tkey, alpha=alpha, weight=launch.n_items,
                          category=category, quarantined=faulted)
        record.profiled = True
        record.profile_rounds = aggregate.num_rounds
        record.profiling_time_s = profiling_time
        if category is not None:
            record.notes.insert(0, f"category={category.short_code}")
        if sanity_note is not None:
            record.notes.append(sanity_note)
        exit_path = EXIT_PROFILED
        fallback_reason = ("partitioned phase faulted; remainder "
                           "drained on the CPU" if fell_back else None)
        if self._deadline_infeasible:
            # The constrained grid search found an empty feasible set:
            # no alpha meets the metric's deadline, so the invocation
            # ran at the min-T alpha.  Same profiled pipeline, its own
            # exit path - a campaign must be able to count how often
            # the budget was simply unattainable.
            exit_path = EXIT_DEADLINE_INFEASIBLE
            deadline = getattr(self.metric, "deadline_s", float("nan"))
            if fallback_reason is None:
                fallback_reason = (
                    f"no alpha meets deadline_s={deadline:g}; "
                    f"running min-T alpha={alpha:.2f}")
            record.notes.append("deadline-infeasible")
        self._emit_decision(
            launch, key, exit_path, alpha=record.alpha,
            category=category, rounds=aggregate.num_rounds,
            cpu_throughput=aggregate.cpu_throughput,
            gpu_throughput=aggregate.gpu_throughput,
            decision_overhead=decision_overhead,
            quarantined=faulted,
            fallback_reason=fallback_reason,
            notes=record.notes)
        return record

    # -- resilience internals ------------------------------------------------------

    def _gpu_busy_debounced(self, launch: KernelLaunch) -> bool:
        """A26 check that a transiently flapping counter cannot spoof.

        A clean read costs nothing; only a busy reading triggers the
        (cheap) re-check loop.  Simulated time idled between re-reads
        is accumulated into ``_debounce_idle_s`` and charged to the
        invocation's decision record - the check burns real simulated
        time and must not vanish from the latency accounting.
        """
        if not launch.processor.gpu_busy:
            return False
        for _ in range(max(0, self.config.gpu_busy_rechecks)):
            if self.config.gpu_busy_recheck_idle_s > 0.0:
                launch.processor.idle(self.config.gpu_busy_recheck_idle_s)
                self._debounce_idle_s += self.config.gpu_busy_recheck_idle_s
            if not launch.processor.gpu_busy:
                self.observer.inc("eas.gpu_busy_flaps_filtered")
                return False
        return True

    def _table_key(self, key: str) -> str:
        """Table-G key for a kernel under the current co-run context.

        Solo (empty context) keys are the raw kernel key; under
        contention the key carries the context tag, so alphas profiled
        while the GPU was leased to another tenant never masquerade as
        solo measurements (and vice versa).  Fault bookkeeping stays on
        the raw key: device health is context-independent.
        """
        if not self.co_run_context:
            return key
        return f"{key}|co:{self.co_run_context}"

    def _entry_usable(self, entry, n_items: float,
                      profile_size: float) -> bool:
        """Reuse eligibility of a table-G entry for this launch.

        Encodes the hygiene rules (quarantine, provisional, outgrown)
        but not the ``always_reprofile`` ablation knob - the audit
        reports what the table held, not what the ablation discarded.
        """
        if entry is None or entry.quarantined:
            return False
        if n_items >= profile_size:
            outgrown = n_items > (self.config.reprofile_growth
                                  * max(entry.derived_at_items, 1.0))
            if entry.provisional or outgrown:
                return False
        return True

    def _register_fault(self, launch: KernelLaunch, key: str,
                        stage: str = "gpu", detail: str = "") -> bool:
        """Fill the kernel's fault bucket; True when the budget is gone.

        Every fault also arms the circuit-breaker cooldown: new
        invocations of this kernel stay CPU-only until it expires.
        """
        count = self.fault_counts.get(key, 0) + 1
        self.fault_counts[key] = count
        self.fault_totals[key] = self.fault_totals.get(key, 0) + 1
        self.gpu_retry_after[key] = (launch.processor.now
                                     + self.config.fault_cooldown_s)
        event = f"{stage}: {detail}" if detail else stage
        self._fault_events.append(event)
        obs = self.observer
        if obs.enabled:
            obs.inc("eas.gpu_faults")
            obs.set_gauge(f"eas.fault_bucket.{key}", count)
            obs.event("eas.gpu_fault", kernel=key, stage=stage, detail=detail,
                      bucket_level=count)
        if count >= self.config.fault_budget:
            self.degraded_kernels.add(key)
            return True
        return False

    def _register_success(self, key: str) -> None:
        """A successful GPU operation drains the leaky fault bucket."""
        count = self.fault_counts.get(key, 0)
        if count > 0:
            self.fault_counts[key] = count - 1
            if self.observer.enabled:
                self.observer.set_gauge(f"eas.fault_bucket.{key}", count - 1)

    def _profile_with_retry(
            self, launch: KernelLaunch, key: str, chunk: float,
    ) -> "Tuple[Optional[ProfileObservation], bool]":
        """One profiling round with bounded retry-with-backoff.

        An observation in which the GPU made *zero progress* on a
        nonzero chunk is itself a fault manifestation (a hung or lying
        device): it is discarded and retried, never averaged into the
        throughput estimates.  Returns ``(observation, had_fault)``;
        observation is None when the retries (or the kernel's whole
        fault budget) are exhausted and the caller must degrade to
        CPU-only execution.
        """
        had_fault = False
        attempts = max(0, self.config.max_profile_retries) + 1
        for attempt in range(attempts):
            if attempt > 0:
                self.observer.inc("eas.profile_retries")
            detail = ""
            try:
                observation = launch.profile_chunk(chunk)
            except GpuFaultError as exc:
                observation = None
                detail = str(exc)
            if observation is not None and observation.gpu_items > 0.0:
                self._register_success(key)
                return observation, had_fault
            if observation is not None:
                detail = "GPU reported zero progress on a nonzero chunk"
            had_fault = True
            if self._register_fault(launch, key, stage="profile-chunk",
                                    detail=detail):
                return None, True
            self._backoff(launch, attempt)
        return None, True

    def _backoff(self, launch: KernelLaunch, attempt: int) -> None:
        backoff = self.config.retry_backoff_s * (attempt + 1)
        if backoff > 0.0:
            launch.processor.idle(backoff)

    def _run_remainder(self, launch: KernelLaunch, key: str,
                       alpha: float) -> SchedulerRecord:
        """Run everything still pooled at ``alpha``, surviving GPU faults.

        A faulted partitioned phase leaves its items pooled: the launch
        is retried until it succeeds or the kernel's fault budget runs
        out (a transient failure must not forfeit the GPU - and its
        characterized gains - for a whole remainder), after which the
        remainder is drained on the CPU and the invocation flagged, so
        the runtime's all-items-processed contract holds on any
        platform.
        """
        notes: List[str] = []
        if launch.remaining_items > 0 and alpha > 0.0:
            attempt = 0
            while True:
                try:
                    launch.run_partitioned(alpha)
                    self._register_success(key)
                    return SchedulerRecord(alpha=alpha, notes=notes)
                except GpuFaultError as exc:
                    if self._register_fault(launch, key, stage="partitioned",
                                            detail=str(exc)):
                        break
                    self._backoff(launch, attempt)
                    attempt += 1
            if not launch.is_done:
                launch.run_cpu_only()
            alpha = 0.0
            notes.append(GPU_FAULTED_FALLBACK)
        elif launch.remaining_items > 0:
            launch.run_partitioned(alpha)
        return SchedulerRecord(alpha=alpha, notes=notes)

    def _degrade(self, launch: KernelLaunch, key: str,
                 aggregate: ProfileAggregate,
                 profiling_time: float) -> SchedulerRecord:
        """Graceful degradation: drain the remainder on the CPU."""
        self.degraded_kernels.add(key)
        if not launch.is_done:
            launch.run_cpu_only()
        self._emit_decision(
            launch, key, EXIT_FAULT_DEGRADED, alpha=0.0,
            rounds=aggregate.num_rounds,
            fallback_reason=(f"fault budget ({self.config.fault_budget}) "
                             f"exhausted during profiling after "
                             f"{aggregate.num_rounds} successful round(s); "
                             "remainder drained on the CPU"),
            notes=[GPU_FAULTED_FALLBACK])
        return SchedulerRecord(alpha=0.0, profiled=True,
                               profile_rounds=aggregate.num_rounds,
                               profiling_time_s=profiling_time,
                               notes=[GPU_FAULTED_FALLBACK])

    def _emit_decision(self, launch: KernelLaunch, key: str, exit_path: str,
                       alpha: float, category=None, from_table: bool = False,
                       rounds: int = 0,
                       cpu_throughput: Optional[float] = None,
                       gpu_throughput: Optional[float] = None,
                       decision_overhead: float = 0.0,
                       fallback_reason: Optional[str] = None,
                       quarantined: bool = False,
                       fault_events: Optional[List[str]] = None,
                       notes: Optional[List[str]] = None) -> DecisionRecord:
        """Build and store the invocation's audit record (every exit).

        Table audit flags (``table_hit``/``table_usable``) and the
        debounce idle charge come from the per-invocation state set up
        at the top of :meth:`_execute`, so every exit path reports them
        consistently.
        """
        events = list(self._fault_events if fault_events is None
                      else fault_events)
        record = DecisionRecord(
            exit_path=exit_path,
            kernel=key,
            n_items=launch.n_items,
            alpha=alpha,
            category_code=category.short_code if category else None,
            from_table=from_table,
            profile_rounds=rounds,
            cpu_throughput=cpu_throughput,
            gpu_throughput=gpu_throughput,
            decision_overhead_s=decision_overhead,
            faults_observed=self.fault_totals.get(key, 0),
            fault_events=events,
            fallback_reason=fallback_reason,
            quarantined=quarantined,
            table_hit=self._table_hit,
            table_usable=self._table_usable,
            debounce_idle_s=self._debounce_idle_s,
            sim_time_s=launch.processor.now,
            notes=list(notes or []))
        self.decisions.append(record)
        obs = self.observer
        if obs.enabled:
            obs.decision(record)
            obs.inc(f"eas.exit.{exit_path}")
            if decision_overhead > 0.0:
                obs.observe("eas.decision_overhead_us",
                            decision_overhead * 1e6)
            if record.debounce_idle_s > 0.0:
                obs.observe("eas.gpu_busy_debounce_idle_s",
                            record.debounce_idle_s)
        return record

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _sane_throughput(value: float) -> float:
        """Clamp a throughput reading to [0, sane); garbage becomes 0."""
        if not math.isfinite(value) or value < 0.0 or value >= MAX_SANE_THROUGHPUT:
            return 0.0
        return value

    def _derive_alpha(self, aggregate: ProfileAggregate,
                      remaining_items: float, total_items: float,
                      key: str) -> "Tuple[float, object, Optional[str]]":
        """Classify, select the power curve, and minimize the objective.

        T(alpha) is linear in N, so the argmin over alpha does not
        depend on the iteration count; when profiling happened to drain
        the pool (tiny invocations), a nominal fraction of the full
        invocation keeps the model non-degenerate instead of letting
        every objective tie at zero.

        Returns ``(alpha, category, sanity_note)``.  On insane inputs
        (NaN/zero/absurd throughputs - a faulty counter bank, a dud GPU
        launch) the sanity_note explains the fallback taken: the
        last-known-good table-G alpha when one exists, CPU-only
        otherwise.  This method never raises on bad measurements.
        """
        r_c = self._sane_throughput(aggregate.cpu_throughput)
        r_g = self._sane_throughput(aggregate.gpu_throughput)
        if r_c <= 0.0 and r_g <= 0.0:
            # Profiling observed no progress on either device: the
            # observations are unusable.  Fall back to the last-known-
            # good table entry, else to the CPU-only safe default.
            # The applied alpha did not come from a constrained search,
            # so any infeasible verdict from an earlier round is void.
            self._deadline_infeasible = False
            entry = self.table.lookup(key)
            if (entry is not None and not entry.provisional
                    and not entry.quarantined):
                return entry.alpha, entry.category, "alpha-from-last-good"
            return 0.0, None, "alpha-fallback-cpu-only"
        n_model = max(remaining_items, 0.25 * total_items, 1.0)
        inputs = ClassificationInputs(
            l3_misses=max(0.0, aggregate.l3_misses),
            loadstore_instructions=max(0.0, aggregate.loadstore_instructions),
            cpu_throughput=r_c,
            gpu_throughput=r_g,
            remaining_items=n_model)
        category = self.classifier.classify(inputs)
        curve = self.characterization.curve_for(category)
        model = ExecutionTimeModel(cpu_throughput=r_c, gpu_throughput=r_g,
                                   n_items=n_model)
        if isinstance(self.metric, ConstrainedMetric):
            # Feasible-set search: minimize the base objective over
            # {alpha : T(alpha) <= deadline}, min-T fallback when the
            # set is empty.  Each round overwrites the flag, so the
            # *final* (converged) search decides the exit path.
            alpha, _, feasible = self.optimizer.best_alpha_constrained(
                curve, model, self.metric.deadline_s)
            self._deadline_infeasible = not feasible
        else:
            alpha, _ = self.optimizer.best_alpha(curve, model)
        return alpha, category, None


# Imported late to keep the module header focused on the algorithm.
from repro.core.time_model import ExecutionTimeModel  # noqa: E402
