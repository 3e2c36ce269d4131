"""Structured per-invocation scheduling decision records.

A :class:`DecisionRecord` is the audit trail of one ``parallel_for``
invocation through the EAS algorithm (Fig. 7): which exit path the
scheduler took, what it measured (R_C, R_G), which power-curve
category it classified, which alpha the grid search picked, what the
decision itself cost on the host, and - on a hostile platform - which
fault events it observed and why it fell back.

One record is emitted for *every* exit path, including all the
resilience degradation branches, so a degraded chaos-campaign cell can
explain exactly which fault tripped the budget and why alpha collapsed
to zero.  The exit paths:

========================  ====================================================
``table-hit``             table G held a reusable alpha (Fig. 7 lines 2-4)
``small-n-cpu-only``      N below GPU_PROFILE_SIZE (lines 6-10)
``gpu-busy-fallback``     debounced A26 counter read busy (Section 5)
``degraded-cpu-only``     fault budget exhausted on an *earlier* invocation
``fault-degraded``        budget exhausted *during* this invocation's
                          profiling; remainder drained on the CPU
``profiled``              the full profile/classify/optimize path
                          (lines 13-26); may still carry a
                          ``fallback_reason`` if the partitioned phase
                          faulted and drained on the CPU, or if faulted
                          profiling rounds drained the launch before
                          any alpha was derived (``profiling-drained``)
``deadline-infeasible``   profiled under a deadline-constrained metric,
                          but no grid point met the budget: the
                          feasible set was empty and the scheduler ran
                          the min-T alpha instead (see
                          docs/OBJECTIVES.md)
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Exit-path constants (the ``exit_path`` field).
EXIT_TABLE_HIT = "table-hit"
EXIT_SMALL_N = "small-n-cpu-only"
EXIT_GPU_BUSY = "gpu-busy-fallback"
EXIT_DEGRADED = "degraded-cpu-only"
EXIT_FAULT_DEGRADED = "fault-degraded"
EXIT_PROFILED = "profiled"
EXIT_DEADLINE_INFEASIBLE = "deadline-infeasible"

ALL_EXIT_PATHS = (
    EXIT_TABLE_HIT, EXIT_SMALL_N, EXIT_GPU_BUSY, EXIT_DEGRADED,
    EXIT_FAULT_DEGRADED, EXIT_PROFILED, EXIT_DEADLINE_INFEASIBLE,
)


@dataclass
class DecisionRecord:
    """The full audit record of one scheduled kernel invocation."""

    #: Which branch of Fig. 7 (plus resilience extensions) exited.
    exit_path: str = EXIT_PROFILED
    #: Kernel key and invocation size.
    kernel: str = ""
    n_items: float = 0.0
    #: The applied GPU offload ratio (0 on every CPU-only path).
    alpha: float = 0.0
    #: Power-curve category short code (e.g. ``M-CL-GS``), when one
    #: was selected this invocation or reused from table G.
    category_code: Optional[str] = None
    #: True when alpha came from table G rather than fresh profiling.
    from_table: bool = False
    #: Profiling rounds taken this invocation.
    profile_rounds: int = 0
    #: Throughput estimates the decision was based on (items/s).
    cpu_throughput: Optional[float] = None
    gpu_throughput: Optional[float] = None
    #: Host-side cost of the scheduling computation itself, seconds
    #: (the paper's 1-2 microseconds).
    decision_overhead_s: float = 0.0
    #: Lifetime GPU-fault total for this kernel at decision time.
    faults_observed: int = 0
    #: Specific fault events observed *during this invocation*, in
    #: order (e.g. ``"profile-chunk: GPU kernel launch failed"``).
    fault_events: List[str] = field(default_factory=list)
    #: Why the scheduler fell back / degraded, when it did.
    fallback_reason: Optional[str] = None
    #: True when the alpha recorded into table G was quarantined
    #: (derived while faults were observed).
    quarantined: bool = False
    #: True when table G held an entry for the kernel at entry -
    #: *presence*, regardless of whether the entry was eligible for
    #: reuse (it may be quarantined, provisional, or outgrown).
    table_hit: bool = False
    #: True when the table-G entry was actually eligible for reuse
    #: under the scheduler's hygiene rules (not quarantined; not
    #: provisional or outgrown for a profile-sized launch).  Hit-rate
    #: aggregation must count this, not :attr:`table_hit`.
    table_usable: bool = False
    #: Owning tenant in a multiprogram run (None when single-tenant).
    tenant: Optional[str] = None
    #: Simulated SoC time when the invocation completed.
    sim_time_s: Optional[float] = None
    #: Scheduler notes attached to the invocation's record.
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order by dataclass)."""
        return {
            "exit_path": self.exit_path,
            "kernel": self.kernel,
            "n_items": self.n_items,
            "alpha": self.alpha,
            "category_code": self.category_code,
            "from_table": self.from_table,
            "profile_rounds": self.profile_rounds,
            "cpu_throughput": self.cpu_throughput,
            "gpu_throughput": self.gpu_throughput,
            "decision_overhead_s": self.decision_overhead_s,
            "faults_observed": self.faults_observed,
            "fault_events": list(self.fault_events),
            "fallback_reason": self.fallback_reason,
            "quarantined": self.quarantined,
            "table_hit": self.table_hit,
            "table_usable": self.table_usable,
            "tenant": self.tenant,
            "sim_time_s": self.sim_time_s,
            "notes": list(self.notes),
        }

    def explain(self) -> str:
        """One-line human explanation (chaos-campaign reporting)."""
        parts = [f"{self.kernel or '?'}: {self.exit_path}",
                 f"alpha={self.alpha:.2f}"]
        if self.category_code:
            parts.append(f"category={self.category_code}")
        if self.fallback_reason:
            parts.append(f"reason={self.fallback_reason}")
        if self.fault_events:
            parts.append("faults=[" + "; ".join(self.fault_events) + "]")
        if self.quarantined:
            parts.append("quarantined")
        return ", ".join(parts)
