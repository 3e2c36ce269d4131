"""Job specs, admission control, and the retry/backoff policy.

A :class:`JobSpec` is the durable, JSON-canonical description of one
scheduling request: which workload on which platform under which
scheduler.  It is deliberately *textual* (platform names, workload
abbreviations, scheduler kinds) so a job row written by one process
lifetime rebuilds bit-identically in another - the same philosophy as
:class:`repro.harness.engine.RunSpec`, which cold jobs compile into.

Warm EAS jobs (``warm_table=True``, the default for ``eas``) are the
service's reason to exist: the scheduler is seeded with the persisted
table G, so a previously seen kernel is answered from the table
(DecisionRecord ``exit_path == "table-hit"``) with zero profiling
rounds.  Their cache key folds in a digest of the injected table
snapshot, so content addressing stays exact: same spec + same table
state -> same cached result; a different table state misses cleanly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import HarnessError, SchedulingError, ServiceError
from repro.harness.engine import (
    CACHE_SCHEMA_VERSION,
    RunSpec,
    SchedulerSpec,
)
from repro.soc.faults import fault_level_problem
from repro.soc.spec import (
    TICK_MODES,
    baytrail_tablet,
    haswell_desktop,
)

_PLATFORMS = ("desktop", "tablet")
_SCHEDULERS = ("cpu", "gpu", "perf", "static", "eas", "race")


@dataclass(frozen=True)
class JobSpec:
    """One scheduling request, fully described by plain JSON text."""

    workload: str
    platform: str = "desktop"
    scheduler: str = "eas"
    #: Objective metric name (``eas`` only).  Constrained spellings
    #: (``"edp@2"``) run deadline-constrained EAS.
    metric: str = "edp"
    alpha: Optional[float] = None
    fault_level: float = 0.0
    seed: int = 0
    tick_mode: str = "exact"
    #: Seed the EAS scheduler from the persisted table G and merge the
    #: learned entries back after the run (``eas`` only).
    warm_table: bool = True
    #: Per-invocation deadline budget (``race`` only; the race-to-idle
    #: scheduler sprints, then idles out the remaining budget).
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.platform not in _PLATFORMS:
            raise ServiceError(f"unknown platform {self.platform!r}; "
                               f"expected one of {_PLATFORMS}")
        if self.scheduler not in _SCHEDULERS:
            raise ServiceError(f"unknown scheduler {self.scheduler!r}; "
                               f"expected one of {_SCHEDULERS}")
        if self.scheduler == "static" and self.alpha is None:
            raise ServiceError("static scheduler job needs an alpha")
        problem = fault_level_problem(self.fault_level)
        if problem is not None:
            raise ServiceError(problem)
        if self.tick_mode not in TICK_MODES:
            raise ServiceError(f"unknown tick mode {self.tick_mode!r}; "
                               f"expected one of {TICK_MODES}")
        if self.deadline_s is not None and self.scheduler != "race":
            raise ServiceError(
                "deadline_s applies to the race scheduler only; "
                "constrained EAS encodes its deadline in the metric "
                "name (e.g. metric='edp@2')")
        try:
            self.scheduler_spec()  # validate metric/deadline early
        except (HarnessError, SchedulingError) as exc:
            raise ServiceError(str(exc)) from exc

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "workload": self.workload,
            "platform": self.platform,
            "scheduler": self.scheduler,
            "metric": self.metric,
            "alpha": self.alpha,
            "fault_level": self.fault_level,
            "seed": self.seed,
            "tick_mode": self.tick_mode,
            "warm_table": self.warm_table,
            "deadline_s": self.deadline_s,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"unparseable job spec: {exc}") from exc
        known = {"workload", "platform", "scheduler", "metric", "alpha",
                 "fault_level", "seed", "tick_mode", "warm_table",
                 "deadline_s"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(f"unknown job spec field(s) {unknown}")
        return cls(**data)

    def sha(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- compilation -------------------------------------------------------------

    @property
    def tablet(self) -> bool:
        return self.platform == "tablet"

    def platform_spec(self):
        """The platform spec, built under this job's tick mode."""
        factory = baytrail_tablet if self.tablet else haswell_desktop
        return factory(tick_mode=self.tick_mode)

    @property
    def warm(self) -> bool:
        """True when this job takes the warm table-G execution path."""
        return self.scheduler == "eas" and self.warm_table

    def scheduler_spec(self) -> SchedulerSpec:
        if self.scheduler == "static":
            return SchedulerSpec.static(self.alpha)
        if self.scheduler == "eas":
            return SchedulerSpec.eas(self.metric)
        if self.scheduler == "race":
            return SchedulerSpec.race(self.deadline_s)
        return SchedulerSpec(kind=self.scheduler)

    def to_runspec(self) -> RunSpec:
        """Compile to an engine :class:`RunSpec` (the cold path)."""
        return RunSpec(
            platform=self.platform_spec(),
            workload=self.workload,
            scheduler=self.scheduler_spec(),
            tablet=self.tablet,
            fault_level=self.fault_level,
            seed=self.seed,
        )

    def warm_cache_key(self, table_digest: str) -> str:
        """Content address of a warm run: spec + injected table state.

        The cold path's key is the RunSpec hash; the warm path's folds
        in the digest of the table-G snapshot the scheduler starts
        from, because the snapshot changes the computation (a table
        hit skips profiling entirely).
        """
        preimage = (f"service-warm|v{CACHE_SCHEMA_VERSION}|"
                    f"{self.to_json()}|table:{table_digest}")
        return hashlib.sha256(preimage.encode()).hexdigest()


def table_digest(rows: List[Dict[str, Any]]) -> str:
    """Order-independent digest of a table-G snapshot."""
    canon = json.dumps(sorted(rows, key=lambda r: r["key"]),
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- admission control ------------------------------------------------------------

#: Live (non-terminal) jobs the queue holds before it rejects every
#: submission, so a stuck queue back-pressures submitters instead of
#: growing without bound.
MAX_DEPTH = 256
#: Live jobs one tenant may hold, so one noisy tenant cannot starve the
#: rest of the admission budget.
TENANT_QUOTA = 64
#: Per-tenant quota overrides (tenant name -> live-job cap); none.
TENANT_QUOTAS: Mapping[str, int] = MappingProxyType({})


@dataclass
class AdmissionDecision:
    """Accept/reject verdict for one submission, with the reason."""

    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def admit(depth: int, tenant_depth: int, tenant: str) -> AdmissionDecision:
    """Bounded queue depth plus per-tenant quotas.

    Depth counts *live* jobs (everything not terminal), against
    :data:`MAX_DEPTH`; ``tenant_depth`` counts the tenant's own live
    jobs, against its :data:`TENANT_QUOTAS` entry or :data:`TENANT_QUOTA`.
    """
    if depth >= MAX_DEPTH:
        return AdmissionDecision(
            False, f"queue full: {depth} live jobs >= max depth {MAX_DEPTH}")
    quota = TENANT_QUOTAS.get(tenant, TENANT_QUOTA)
    if tenant_depth >= quota:
        return AdmissionDecision(
            False, f"tenant {tenant!r} over quota: {tenant_depth} "
                   f"live jobs >= quota {quota}")
    return AdmissionDecision(True, "admitted")


# -- retry backoff ----------------------------------------------------------------

#: Delay before the first retry; each later attempt doubles it.
BACKOFF_BASE_S = 0.05
#: Upper bound on the un-jittered delay.
BACKOFF_CAP_S = 5.0
#: Seed of the per-(job, attempt) jitter draws.
BACKOFF_SEED = 0


def backoff_delay_s(job_id: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    ``BACKOFF_BASE_S * 2**(attempt-1)`` capped at ``BACKOFF_CAP_S``,
    scaled by a jitter factor in ``[0.5, 1.0)`` drawn from a PRNG
    seeded with ``(BACKOFF_SEED, job_id, attempt)`` - deterministic per
    (job, attempt), so a recovered daemon re-derives the same schedule
    and chaos replays stay reproducible.
    """
    if attempt <= 0:
        return 0.0
    raw = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** (attempt - 1)))
    rng = random.Random(f"{BACKOFF_SEED}:{job_id}:{attempt}")
    return raw * (0.5 + 0.5 * rng.random())
