"""SchedulerService end-to-end: execution, retries, replays, timeouts,
recovery, and the warm table-G fast path the service exists for.

Most tests run ``inline=True`` (in-process execution) for speed; the
watchdog-timeout test uses real supervised children, and the full
kill -9 story lives in ``test_crashchaos.py``.
"""

import time

import pytest

from repro.errors import ServiceError, WorkloadError
from repro.harness.suite import (
    clear_characterization_cache,
    remember_characterization,
)
from repro.obs.observer import Observer
from repro.service import daemon as daemon_mod
from repro.service.daemon import SchedulerService
from repro.service.jobs import AdmissionPolicy, JobSpec
from repro.service.store import DEAD, DONE, FAILED, PENDING
from repro.soc.spec import haswell_desktop


def _service(tmp_path, **kwargs) -> SchedulerService:
    kwargs.setdefault("inline", True)
    return SchedulerService(str(tmp_path / "svc.db"),
                            str(tmp_path / "cache"), **kwargs)


@pytest.fixture
def tablet_spec():
    return JobSpec(workload="BS", platform="tablet", tick_mode="fast")


@pytest.fixture
def restore_desktop_fit(desktop_characterization):
    """Afterwards put the session's desktop fit back in the memo the
    test clears, so later tests need not characterize it again."""
    yield
    remember_characterization(haswell_desktop(), desktop_characterization)


class TestEndToEnd:
    def test_submit_execute_complete(self, tmp_path, tablet_spec):
        service = _service(tmp_path)
        try:
            outcome = service.submit(tablet_spec)
            assert outcome.accepted
            service.run_until_idle()
            job = service.store.job(outcome.job_id)
            assert job.state == DONE and job.result_key
            payload = service.result_payload(job.id)
            assert payload["platform"] == "baytrail-tablet"
            assert payload["run"].time_s > 0.0
            # The learned table G was committed with the completion.
            assert service.store.load_table_rows("baytrail-tablet")
        finally:
            service.close()

    def test_result_payload_requires_done(self, tmp_path, tablet_spec):
        service = _service(tmp_path)
        try:
            outcome = service.submit(tablet_spec)
            with pytest.raises(ServiceError, match="no committed result"):
                service.result_payload(outcome.job_id)
        finally:
            service.close()

    def test_admission_rejects_tablet_unsupported_workload(self, tmp_path):
        service = _service(tmp_path)
        try:
            outcome = service.submit(
                JobSpec(workload="CC", platform="tablet"))
            assert not outcome.accepted
            assert "32-bit tablet" in outcome.decision.reason
            outcome = service.submit(JobSpec(workload="??"))
            assert not outcome.accepted
        finally:
            service.close()

    def test_admission_enforces_queue_bound(self, tmp_path, tablet_spec):
        service = _service(tmp_path,
                           admission=AdmissionPolicy(max_depth=1))
        try:
            assert service.submit(tablet_spec).accepted
            rejected = service.submit(tablet_spec)
            assert not rejected.accepted
            assert "queue full" in rejected.decision.reason
        finally:
            service.close()


class TestFailureHandling:
    def test_transient_failures_retry_then_dead_letter(
            self, tmp_path, tablet_spec, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("infrastructure hiccup")

        monkeypatch.setattr(daemon_mod, "_run_warm_payload", explode)
        observer = Observer()
        service = _service(tmp_path, observer=observer)
        try:
            outcome = service.submit(tablet_spec, max_retries=1)
            service.run_until_idle()
            job = service.store.job(outcome.job_id)
            assert job.state == DEAD
            assert job.attempts == 2
            assert "infrastructure hiccup" in job.error
            counters = service.store.counters()
            assert counters["retries"] == 1.0
            assert counters["dead_letters"] == 1.0
            metrics = observer.metrics.snapshot()["counters"]
            assert metrics["service.failed_attempts"] == 2.0
        finally:
            service.close()

    def test_deterministic_errors_fail_without_retry(
            self, tmp_path, tablet_spec, monkeypatch):
        def reject(*args, **kwargs):
            raise WorkloadError("this workload is broken by definition")

        monkeypatch.setattr(daemon_mod, "_run_warm_payload", reject)
        service = _service(tmp_path)
        try:
            outcome = service.submit(tablet_spec, max_retries=5)
            service.run_until_idle()
            job = service.store.job(outcome.job_id)
            assert job.state == FAILED
            assert job.attempts == 1  # no retry burned on a sure loss
            assert "broken by definition" in job.error
        finally:
            service.close()

    def test_child_failure_carries_real_error_message(
            self, tmp_path, tablet_spec, monkeypatch):
        """In child mode the error crosses the process boundary via
        the marker file, classified for retryability."""
        def reject(*args, **kwargs):
            raise WorkloadError("broken in the child")

        monkeypatch.setattr(daemon_mod, "_run_warm_payload", reject)
        service = _service(tmp_path, inline=False)
        try:
            outcome = service.submit(tablet_spec, max_retries=5)
            service.run_until_idle()
            job = service.store.job(outcome.job_id)
            assert job.state == FAILED  # PERMANENT marker: no retries
            assert "broken in the child" in job.error
        finally:
            service.close()

    def test_watchdog_kills_overrunning_child(self, tmp_path, monkeypatch):
        def hang(*args, **kwargs):
            time.sleep(60.0)

        monkeypatch.setattr(daemon_mod, "_run_warm_payload", hang)
        observer = Observer()
        service = _service(tmp_path, inline=False, observer=observer)
        try:
            outcome = service.submit(
                JobSpec(workload="BS", platform="tablet",
                        tick_mode="fast"),
                max_retries=0, timeout_s=0.3)
            start = time.monotonic()
            service.run_until_idle()
            assert time.monotonic() - start < 30.0
            job = service.store.job(outcome.job_id)
            assert job.state == DEAD
            assert "watchdog" in job.error
            metrics = observer.metrics.snapshot()["counters"]
            assert metrics["service.timeouts"] == 1.0
        finally:
            service.close()


class TestReplayAndRecovery:
    def test_identical_cold_jobs_replay_from_cache(self, tmp_path):
        observer = Observer()
        service = _service(tmp_path, observer=observer)
        spec = JobSpec(workload="BS", platform="tablet",
                       scheduler="cpu", tick_mode="fast")
        try:
            first = service.submit(spec)
            second = service.submit(spec)
            service.run_until_idle()
            a = service.store.job(first.job_id)
            b = service.store.job(second.job_id)
            assert a.state == b.state == DONE
            assert a.result_key == b.result_key
            metrics = observer.metrics.snapshot()["counters"]
            assert metrics["service.replays"] == 1.0
            # Exactly-once side effects even with two executions asked.
            assert service.store.counters()["completions"] == 2.0
        finally:
            service.close()

    def test_orphaned_job_recovers_and_completes(self, tmp_path,
                                                 tablet_spec):
        service = _service(tmp_path)
        try:
            outcome = service.submit(tablet_spec)
            claimed = service.store.claim_next()
            assert claimed.id == outcome.job_id
            # Simulate the daemon dying here: a second lifetime starts.
            assert service.recover() == 1
            assert service.store.job(outcome.job_id).state == PENDING
            service.run_until_idle()
            assert service.store.job(outcome.job_id).state == DONE
        finally:
            service.close()

    def test_fingerprint_stable_across_instances(self, tmp_path,
                                                 tablet_spec):
        service = _service(tmp_path)
        try:
            service.submit(tablet_spec)
            service.run_until_idle()
            first = service.fingerprint()
        finally:
            service.close()
        reopened = _service(tmp_path)
        try:
            assert reopened.fingerprint() == first
        finally:
            reopened.close()


class TestWarmTableFastPath:
    def test_second_submission_answers_from_table_g(
            self, tmp_path, tablet_spec, restore_desktop_fit):
        """The acceptance property: a previously seen kernel is
        answered from the persisted table G - every decision exits
        through the table, zero profiling rounds, >= 10x faster."""
        # Force the cold run to pay the full characterize+profile cost.
        clear_characterization_cache()
        service = _service(tmp_path)
        try:
            cold = service.submit(tablet_spec)
            start = time.monotonic()
            service.run_until_idle()
            cold_wall = time.monotonic() - start
            cold_payload = service.result_payload(cold.job_id)
            assert any(d.profile_rounds > 0
                       for d in cold_payload["decisions"])
        finally:
            service.close()

        # A fresh service lifetime: everything must come from the store.
        clear_characterization_cache()
        warm_service = _service(tmp_path)
        try:
            warm = warm_service.submit(tablet_spec)
            start = time.monotonic()
            warm_service.run_until_idle()
            warm_wall = time.monotonic() - start
            payload = warm_service.result_payload(warm.job_id)
            decisions = payload["decisions"]
            assert decisions, "warm run recorded no decisions"
            assert all(d.exit_path == "table-hit" for d in decisions)
            assert all(d.profile_rounds == 0 for d in decisions)
            assert all(d.from_table for d in decisions)
            # The zero-profiling assertions above are the semantic
            # gate; the wall-clock ratio uses a load-tolerant 5x margin
            # (an uncontended run clears the 10x acceptance bar).
            assert warm_wall * 5.0 <= cold_wall, (
                f"warm path not fast enough: cold={cold_wall:.3f}s "
                f"warm={warm_wall:.3f}s")
        finally:
            warm_service.close()
