"""The scheduler daemon: claim, execute, complete - crash-safely.

The serve loop is a single-worker claim loop over the durable store:

1. **claim** the highest-priority eligible ``PENDING`` job
   (``-> CLAIMED``), then mark it ``RUNNING``;
2. **execute** it in a forked child process supervised by a watchdog
   (per-job timeout; a wedged child is SIGKILLed and the attempt
   counted as a failure).  The child's *only* side effect is an
   atomic write into the content-addressed
   :class:`~repro.harness.engine.ResultCache`;
3. **complete** it: one sqlite transaction commits the ``DONE``
   transition, the result-cache pointer, and (for warm EAS jobs) the
   table-G merge.

Because step 2 is idempotent (same spec + same table snapshot -> same
key -> byte-identical payload) and step 3 is atomic, the daemon is
crash-safe by construction: ``kill -9`` anywhere leaves either a
re-claimable job whose replay recalls the cached result, or a
committed completion.  Startup runs :meth:`SchedulerService.recover`,
which re-enqueues orphaned ``CLAIMED``/``RUNNING`` rows - at-least-
once execution, exactly-once results.

SIGTERM drains: the loop finishes the in-flight job, stops claiming,
and exits cleanly.  SIGKILL needs no handling - that is the point.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.characterization import PlatformCharacterization
from repro.core.metrics import metric_by_name
from repro.core.profiling import KernelTable
from repro.core.scheduler import EnergyAwareScheduler
from repro.errors import ReproError, ServiceError
from repro.harness.engine import ResultCache, RunResult, execute_spec
from repro.harness.experiment import run_application
from repro.obs.observer import Observer, resolve
from repro.service.jobs import (
    AdmissionDecision,
    AdmissionPolicy,
    BackoffPolicy,
    JobSpec,
    table_digest,
)
from repro.service.store import (
    DEAD,
    DONE,
    PENDING,
    TERMINAL_STATES,
    DurableStore,
    JobRow,
)
from repro.soc.faults import FaultConfig
from repro.workloads.registry import workload_by_abbrev

#: Store meta key a ``drain`` command sets; the serve loop exits at
#: the next iteration boundary (after finishing the in-flight job).
DRAIN_FLAG = "daemon.drain_requested"
#: Store meta keys advertising the live daemon.
PID_KEY = "daemon.pid"
HEARTBEAT_KEY = "daemon.heartbeat"


@dataclass
class SubmitResult:
    """Outcome of one submission: a job id, or the rejection reason."""

    job_id: Optional[int]
    decision: AdmissionDecision

    @property
    def accepted(self) -> bool:
        return self.decision.accepted


@dataclass
class _Plan:
    """Everything one execution attempt needs, computed at claim time."""

    key: str
    warm: bool
    spec: JobSpec
    #: Warm path: the injected state (characterization JSON + table-G
    #: snapshot).  Cold path: the compiled RunSpec.
    char_json: Optional[str] = None
    table_rows: Optional[List[Dict[str, Any]]] = None
    run_spec: Optional[Any] = None
    platform_name: str = ""


class _JobFailure(Exception):
    """One failed execution attempt (transient unless marked not)."""

    def __init__(self, message: str, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


# -- child-process entry points ---------------------------------------------------
# Module-level so the fork/pickle machinery resolves them by name.
# Their ONLY side effect is the atomic, content-addressed cache write,
# which is what makes at-least-once execution yield exactly-once
# results: a duplicate attempt rewrites the same bytes at the same key.

def _run_warm_payload(spec: JobSpec, char_json: str,
                      table_rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Execute one warm EAS job: scheduler seeded from table G."""
    characterization = PlatformCharacterization.from_json(char_json)
    platform = spec.platform_spec()
    scheduler = EnergyAwareScheduler(characterization,
                                     metric_by_name(spec.metric))
    scheduler.table = KernelTable.from_rows(table_rows)
    fault_config = (FaultConfig.from_level(spec.fault_level, seed=spec.seed)
                    if spec.fault_level > 0.0 else None)
    run = run_application(platform, workload_by_abbrev(spec.workload),
                          scheduler, strategy_name="EAS",
                          tablet=spec.tablet, fault_config=fault_config)
    return {
        "platform": platform.name,
        "run": run,
        "table_rows": scheduler.table.to_rows(),
        "decisions": list(scheduler.decisions),
    }


def _error_marker_path(cache_root: str, key: str) -> str:
    return os.path.join(cache_root, "errors", f"{key}.err")


def _write_error_marker(cache_root: str, key: str,
                        exc: BaseException) -> None:
    """Record why an attempt failed (and whether retrying can help).

    A deterministic :class:`~repro.errors.ReproError` (bad workload,
    bad spec) will fail identically on every retry, so it is marked
    permanent; anything else is treated as transient infrastructure
    trouble.  Written atomically so a crash mid-write cannot leave a
    half marker.
    """
    kind = "PERMANENT" if isinstance(exc, ReproError) else "TRANSIENT"
    path = _error_marker_path(cache_root, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{kind}|{type(exc).__name__}: {exc}")
    os.replace(tmp, path)


def _read_error_marker(cache_root: str, key: str) -> Optional[str]:
    try:
        with open(_error_marker_path(cache_root, key)) as fh:
            return fh.read()
    except OSError:
        return None


def _clear_error_marker(cache_root: str, key: str) -> None:
    try:
        os.remove(_error_marker_path(cache_root, key))
    except OSError:
        pass


def _child_execute_warm(spec_json: str, char_json: str,
                        table_rows: List[Dict[str, Any]],
                        cache_root: str, key: str) -> None:
    try:
        spec = JobSpec.from_json(spec_json)
        payload = _run_warm_payload(spec, char_json, table_rows)
    except BaseException as exc:
        _write_error_marker(cache_root, key, exc)
        raise
    ResultCache(cache_root).put(key, RunResult(key=key, payload=payload))


def _child_execute_cold(run_spec: Any, cache_root: str, key: str) -> None:
    try:
        result = execute_spec(run_spec)
    except BaseException as exc:
        _write_error_marker(cache_root, key, exc)
        raise
    ResultCache(cache_root).put(key, result)


def job_result_canonical(payload: Any) -> str:
    """Byte-stable serialization of one job's result payload.

    Warm payloads cover the measured run *and* the learned table-G
    rows (the durable side effect); cold payloads are the engine's
    :meth:`~repro.harness.experiment.ApplicationRun.canonical`.
    """
    if isinstance(payload, dict) and "run" in payload:
        rows = ";".join(
            f"{r['key']}|{r['alpha']!r}|{r['weight']!r}|{r['category']}|"
            f"{r['invocations']}|{r['derived_at_items']!r}|"
            f"{int(r['provisional'])}|{int(r['quarantined'])}"
            for r in payload.get("table_rows", []))
        exits = ",".join(d.exit_path for d in payload.get("decisions", []))
        return f"{payload['run'].canonical()}|rows:{rows}|exits:{exits}"
    if hasattr(payload, "canonical"):
        return payload.canonical()
    return repr(payload)


def campaign_fingerprint(store: DurableStore,
                         cache: ResultCache) -> str:
    """SHA-256 over every DONE job's spec and result payload.

    Keyed by spec hash (not job id or timestamps), so an interrupted-
    and-recovered campaign fingerprints byte-identically to an
    uninterrupted one - the kill-and-restart chaos harness asserts
    exactly this.
    """
    parts: List[str] = []
    for job in store.jobs(states=(DONE,)):
        result = cache.get(job.result_key) if job.result_key else None
        body = (job_result_canonical(result.payload)
                if result is not None else "<payload-missing>")
        parts.append(f"{job.spec_sha}|{body}")
    parts.sort()
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class SchedulerService:
    """The persistent scheduler service around one durable store."""

    def __init__(self, db_path: str, cache_dir: str,
                 admission: Optional[AdmissionPolicy] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 observer: Optional[Observer] = None,
                 poll_interval_s: float = 0.02,
                 inline: bool = False) -> None:
        self.store = DurableStore(db_path)
        self.cache_root = os.path.join(cache_dir, "service-results")
        self.observer = resolve(observer)
        self.cache = ResultCache(self.cache_root, observer=self.observer)
        self.admission = admission or AdmissionPolicy()
        self.backoff = backoff or BackoffPolicy()
        self.poll_interval_s = poll_interval_s
        #: Execute jobs in-process instead of in a supervised child.
        #: Faster for tests; per-job timeouts become advisory (nothing
        #: can SIGKILL the attempt), so ``serve`` defaults to children.
        self.inline = inline
        self._draining = False
        self._last_heartbeat = 0.0
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)

    def close(self) -> None:
        self.store.close()

    # -- submission --------------------------------------------------------------

    def submit(self, spec: JobSpec, tenant: str = "default",
               priority: int = 0, max_retries: int = 2,
               timeout_s: float = 60.0) -> SubmitResult:
        """Admission-controlled submission; never silently drops."""
        try:
            workload = workload_by_abbrev(spec.workload)
        except Exception as exc:
            self.observer.inc("service.admission_rejects")
            return SubmitResult(None, AdmissionDecision(
                False, f"invalid job spec: {exc}"))
        if spec.tablet and not workload.tablet_supported:
            self.observer.inc("service.admission_rejects")
            return SubmitResult(None, AdmissionDecision(
                False, f"invalid job spec: {spec.workload} does not "
                       "build on the 32-bit tablet"))
        decision = self.admission.admit(
            depth=self.store.queue_depth(),
            tenant_depth=self.store.queue_depth(tenant),
            tenant=tenant)
        if not decision:
            self.observer.inc("service.admission_rejects")
            return SubmitResult(None, decision)
        job_id = self.store.submit_job(
            spec.to_json(), spec.sha(), tenant=tenant, priority=priority,
            max_retries=max_retries, timeout_s=timeout_s)
        self.observer.inc("service.submitted")
        self.observer.event("service.submit", job=job_id, tenant=tenant,
                            workload=spec.workload, priority=priority)
        return SubmitResult(job_id, decision)

    # -- the serve loop ----------------------------------------------------------

    def recover(self) -> int:
        """Re-enqueue jobs orphaned by a previous crash (startup step)."""
        recovered = self.store.recover_orphans()
        if recovered:
            self.observer.inc("service.recoveries", recovered)
            self.observer.event("service.recovered", jobs=recovered)
        return recovered

    def serve_forever(self, until_idle: bool = False,
                      install_signals: bool = True) -> None:
        """Claim-execute-complete until drained (or idle).

        ``until_idle=True`` exits once no job is live - the batch
        mode the chaos harness and CI smoke use.  SIGTERM requests a
        drain: the in-flight job finishes, then the loop exits.
        SIGKILL is survivable by construction, not by handling.
        """
        if install_signals:
            signal.signal(signal.SIGTERM, self._request_drain)
            signal.signal(signal.SIGINT, self._request_drain)
        self.store.set_meta(PID_KEY, str(os.getpid()))
        self.store.clear_meta(DRAIN_FLAG)
        self.recover()
        try:
            while not self._draining:
                if self.store.get_meta(DRAIN_FLAG) is not None:
                    break
                self._heartbeat()
                job = self.store.claim_next()
                if job is not None:
                    self._process(job)
                    continue
                live = self._live_jobs()
                if until_idle and live == 0:
                    break
                time.sleep(self.poll_interval_s)
        finally:
            self.store.clear_meta(PID_KEY)
            self.store.clear_meta(DRAIN_FLAG)

    def run_until_idle(self) -> None:
        """Drain the current queue in-process (no signal handlers)."""
        self.serve_forever(until_idle=True, install_signals=False)

    def _request_drain(self, signum, frame) -> None:  # pragma: no cover
        self._draining = True

    def _live_jobs(self) -> int:
        counts = self.store.state_counts()
        return sum(counts[state] for state in counts
                   if state not in TERMINAL_STATES)

    def _heartbeat(self) -> None:
        now = time.time()
        if now - self._last_heartbeat >= 1.0:
            self.store.set_meta(HEARTBEAT_KEY, repr(now))
            self._last_heartbeat = now
        self.observer.set_gauge("service.queue_depth",
                                self.store.queue_depth())

    # -- one job -----------------------------------------------------------------

    def _process(self, job: JobRow) -> None:
        obs = self.observer
        with obs.span("service.job", job=job.id, tenant=job.tenant,
                      attempt=job.attempts + 1):
            try:
                plan = self._plan(job)
            except ServiceError as exc:
                self._fail(job, f"invalid job spec: {exc}", retryable=False)
                return
            self.store.mark_running(job.id)
            cached = self.cache.get(plan.key)
            if cached is not None:
                obs.inc("service.replays")
                obs.event("service.replay", job=job.id, key=plan.key)
                self._complete(job, plan, cached)
                return
            try:
                result = self._execute(plan, job)
            except _JobFailure as exc:
                self._fail(job, str(exc), retryable=exc.retryable)
                return
            self._complete(job, plan, result)

    def _plan(self, job: JobRow) -> _Plan:
        """Compute the execution plan from the *current* durable state.

        The warm cache key binds the table-G snapshot at claim time;
        because :meth:`DurableStore.complete_job` commits the table
        merge atomically with the DONE transition, a replayed attempt
        re-derives the identical snapshot, key, and therefore result.
        """
        spec = JobSpec.from_json(job.spec_json)
        platform = spec.platform_spec()
        if spec.warm:
            char_json = self._ensure_characterization(platform)
            rows = self.store.load_table_rows(platform.name)
            return _Plan(key=spec.warm_cache_key(table_digest(rows)),
                         warm=True, spec=spec, char_json=char_json,
                         table_rows=rows, platform_name=platform.name)
        if spec.scheduler == "eas":
            # Cold EAS through the engine still needs the fits; seed
            # them store-first so children never re-characterize.
            self._ensure_characterization(platform)
        run_spec = spec.to_runspec()
        return _Plan(key=run_spec.cache_key(), warm=False, spec=spec,
                     run_spec=run_spec, platform_name=platform.name)

    def _ensure_characterization(self, platform) -> str:
        """Store-first characterization: load the persisted fit, or
        compute once and persist it (the service's durable warm-up)."""
        from repro.harness import suite

        text = self.store.load_characterization(platform.name)
        if text is not None:
            suite.remember_characterization(
                platform, PlatformCharacterization.from_json(text))
            return text
        characterization = suite.get_characterization(platform)
        text = characterization.to_json()
        self.store.save_characterization(platform.name, text)
        self.observer.event("service.characterized", platform=platform.name)
        return text

    def _execute(self, plan: _Plan, job: JobRow) -> RunResult:
        """One attempt: run the plan, return the cached result.

        Child mode forks a worker whose sole side effect is the atomic
        cache write; the watchdog SIGKILLs it at the job's timeout.
        Inline mode runs in-process (tests; timeouts advisory).
        """
        obs = self.observer
        _clear_error_marker(self.cache_root, plan.key)
        if self.inline:
            try:
                if plan.warm:
                    _child_execute_warm(plan.spec.to_json(), plan.char_json,
                                        plan.table_rows, self.cache_root,
                                        plan.key)
                else:
                    _child_execute_cold(plan.run_spec, self.cache_root,
                                        plan.key)
            except Exception as exc:
                raise _JobFailure(
                    f"execution raised: {exc!r}",
                    retryable=not isinstance(exc, ReproError)) from exc
        else:
            if plan.warm:
                target, args = _child_execute_warm, (
                    plan.spec.to_json(), plan.char_json, plan.table_rows,
                    self.cache_root, plan.key)
            else:
                target, args = _child_execute_cold, (
                    plan.run_spec, self.cache_root, plan.key)
            child = self._mp.Process(target=target, args=args, daemon=True)
            child.start()
            deadline = time.monotonic() + max(0.1, job.timeout_s)
            while child.is_alive() and time.monotonic() < deadline:
                child.join(timeout=0.05)
            if child.is_alive():
                child.kill()
                child.join()
                obs.inc("service.timeouts")
                raise _JobFailure(
                    f"watchdog: attempt exceeded timeout_s={job.timeout_s}; "
                    "child killed")
            if child.exitcode != 0:
                marker = _read_error_marker(self.cache_root, plan.key)
                if marker is not None:
                    kind, _, detail = marker.partition("|")
                    raise _JobFailure(detail or marker,
                                      retryable=kind != "PERMANENT")
                raise _JobFailure(
                    f"child exited with code {child.exitcode}")
        result = self.cache.get(plan.key)
        if result is None:
            raise _JobFailure("execution finished but left no cached "
                              f"result at key {plan.key[:12]}...")
        return result

    def _complete(self, job: JobRow, plan: _Plan,
                  result: RunResult) -> None:
        payload = result.payload
        table_rows = None
        if plan.warm and isinstance(payload, dict):
            table_rows = payload.get("table_rows")
        committed = self.store.complete_job(
            job.id, plan.key, platform=plan.platform_name or None,
            table_rows=table_rows)
        if committed:
            self.observer.inc("service.completed")
            self.observer.event("service.done", job=job.id, key=plan.key)

    def _fail(self, job: JobRow, error: str, retryable: bool) -> None:
        attempt = job.attempts + 1
        backoff_s = (self.backoff.delay_s(job.id, attempt)
                     if retryable else 0.0)
        state = self.store.fail_job(job.id, error, retryable=retryable,
                                    backoff_s=backoff_s)
        obs = self.observer
        obs.inc("service.failed_attempts")
        if state == PENDING:
            obs.inc("service.retries")
            obs.event("service.retry", job=job.id, attempt=attempt,
                      backoff_s=backoff_s, error=error)
        elif state == DEAD:
            obs.inc("service.dead_letters")
            obs.event("service.dead_letter", job=job.id, error=error)
        else:
            obs.event("service.failed", job=job.id, error=error)

    # -- introspection -----------------------------------------------------------

    def fingerprint(self) -> str:
        return campaign_fingerprint(self.store, self.cache)

    def result_payload(self, job_id: int) -> Any:
        """The DONE job's payload, recalled from the result cache."""
        job = self.store.job(job_id)
        if job is None or job.state != DONE or not job.result_key:
            raise ServiceError(f"job {job_id} has no committed result")
        result = self.cache.get(job.result_key)
        if result is None:
            raise ServiceError(
                f"job {job_id}: cached result {job.result_key[:12]}... "
                "is missing or corrupt")
        return result.payload
