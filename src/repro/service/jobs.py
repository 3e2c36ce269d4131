"""Job specs, admission control, and the retry/backoff policy.

A :class:`JobSpec` is the durable, JSON-canonical description of one
scheduling request: which workload on which platform under which
scheduler.  It is deliberately *textual* (platform names, workload
abbreviations, scheduler kinds) so a job row written by one process
lifetime rebuilds bit-identically in another - the same philosophy as
:class:`repro.harness.engine.RunSpec`, which every job compiles into
(and is checked by) when it is built.

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
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError, ServiceError
from repro.harness.engine import (
    CACHE_SCHEMA_VERSION,
    RunSpec,
    SchedulerSpec,
)
from repro.soc.spec import platform_by_name


@dataclass(frozen=True)
class JobSpec:
    """One scheduling request, fully described by plain JSON text.

    Construction compiles the job to its engine :class:`RunSpec`, so
    anything the engine would refuse (unknown platform, scheduler,
    workload or metric, a workload the tablet cannot build, a bad
    fault level, alpha or deadline) raises :class:`ServiceError` here.
    """

    workload: str
    platform: str = "desktop"
    scheduler: str = "eas"
    #: Objective metric name (``eas`` only).  Constrained spellings
    #: (``"edp@2"``) run deadline-constrained EAS.
    metric: str = "edp"
    #: Static GPU offload ratio (``static`` only).
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
        self.to_runspec()

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"unparseable job spec: {exc}") from exc
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ServiceError(f"unknown job spec field(s) {unknown}")
        return cls(**data)

    def sha(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- compilation -------------------------------------------------------------

    @property
    def tablet(self) -> bool:
        return self.platform == "tablet"

    @property
    def warm(self) -> bool:
        """True when this job takes the warm table-G execution path."""
        return self.scheduler == "eas" and self.warm_table

    def scheduler_spec(self) -> SchedulerSpec:
        """The engine scheduler this job runs.  ``alpha`` and
        ``deadline_s`` go to every kind, so :class:`SchedulerSpec`
        refuses them where they do not apply."""
        return SchedulerSpec(
            kind=self.scheduler, alpha=self.alpha,
            metric=self.metric if self.scheduler == "eas" else "edp",
            deadline_s=self.deadline_s)

    def to_runspec(self) -> RunSpec:
        """Compile to an engine :class:`RunSpec`; an invalid job raises
        :class:`ServiceError` with the engine's reason."""
        try:
            return RunSpec(
                platform=platform_by_name(self.platform, self.tick_mode),
                workload=self.workload,
                scheduler=self.scheduler_spec(),
                tablet=self.tablet,
                fault_level=self.fault_level,
                seed=self.seed,
            )
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc

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
