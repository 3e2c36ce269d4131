"""SchedulerService end-to-end: execution, retries, replays, timeouts,
recovery, and the warm table-G fast path the service exists for.

Every attempt runs in a watchdog-supervised forked child, as in
production; a monkeypatched module function reaches the child because
fork copies the patched module.  The full kill -9 story, orphaned job
children included, lives in ``test_crashchaos.py``.
"""

import shutil
import time

import pytest

from repro.errors import ServiceError, WorkloadError
from repro.harness.suite import (
    clear_characterization_cache,
    remember_characterization,
)
from repro.obs.observer import Observer
from repro.service import daemon as daemon_mod
from repro.service import jobs as jobs_mod
from repro.service.daemon import SchedulerService
from repro.service.jobs import JobSpec
from repro.service.store import DEAD, DONE, FAILED, PENDING
from repro.soc.spec import haswell_desktop


def _service(tmp_path, **kwargs) -> SchedulerService:
    return SchedulerService(str(tmp_path / "svc.db"),
                            str(tmp_path / "cache"), **kwargs)


def _payload(service: SchedulerService, job_id: int):
    """The DONE job's payload, recalled from the result cache."""
    job = service.store.job(job_id)
    assert job.state == DONE and job.result_key
    return service.cache.get(job.result_key).payload


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
            payload = _payload(service, outcome.job_id)
            assert payload["platform"] == "baytrail-tablet"
            assert payload["run"].time_s > 0.0
            # The learned table G was committed with the completion.
            assert service.store.load_table_rows("baytrail-tablet")
        finally:
            service.close()

    def test_result_payload_requires_done(self, tmp_path, tablet_spec):
        """A job has a result pointer only once its completion commits."""
        service = _service(tmp_path)
        try:
            outcome = service.submit(tablet_spec)
            job = service.store.job(outcome.job_id)
            assert job.state == PENDING and job.result_key is None
        finally:
            service.close()

    def test_admission_rejects_tablet_unsupported_workload(self):
        """An invalid spec never reaches ``submit``: building it fails."""
        with pytest.raises(ServiceError, match="32-bit tablet"):
            JobSpec(workload="CC", platform="tablet")
        with pytest.raises(ServiceError, match="unknown workload"):
            JobSpec(workload="??")

    def test_admission_enforces_queue_bound(self, tmp_path, tablet_spec,
                                            monkeypatch):
        monkeypatch.setattr(jobs_mod, "MAX_DEPTH", 1)
        service = _service(tmp_path)
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
        """The error crosses the process boundary via the marker file,
        classified for retryability."""
        def reject(*args, **kwargs):
            raise WorkloadError("broken in the child")

        monkeypatch.setattr(daemon_mod, "_run_warm_payload", reject)
        service = _service(tmp_path)
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
        service = _service(tmp_path, observer=observer)
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
    #: Warm service lifetimes timed; the fastest one is compared.
    WARM_LIFETIMES = 3

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
            cold_payload = _payload(service, cold.job_id)
            assert any(d.profile_rounds > 0
                       for d in cold_payload["decisions"])
        finally:
            service.close()

        # Fresh service lifetimes, each on its own copy of the closed
        # store and an empty result cache, so each one executes from
        # table G instead of replaying: everything comes from the store.
        warm_walls = []
        for lifetime in range(self.WARM_LIFETIMES):
            root = tmp_path / f"warm-{lifetime}"
            root.mkdir()
            shutil.copy(tmp_path / "svc.db", root / "svc.db")
            clear_characterization_cache()
            warm_service = _service(root, observer=Observer())
            try:
                warm = warm_service.submit(tablet_spec)
                start = time.monotonic()
                warm_service.run_until_idle()
                warm_walls.append(time.monotonic() - start)
                payload = _payload(warm_service, warm.job_id)
                decisions = payload["decisions"]
                assert decisions, "warm run recorded no decisions"
                assert all(d.exit_path == "table-hit" for d in decisions)
                assert all(d.profile_rounds == 0 for d in decisions)
                assert all(d.from_table for d in decisions)
                assert warm_service.observer.metrics.snapshot()[
                    "counters"].get("service.replays", 0) == 0
            finally:
                warm_service.close()
        # The zero-profiling assertions above are the semantic gate; the
        # wall-clock ratio uses a load-tolerant 5x margin on the best
        # warm lifetime (an uncontended run clears the 10x acceptance
        # bar).
        warm_wall = min(warm_walls)
        assert warm_wall * 5.0 <= cold_wall, (
            f"warm path not fast enough: cold={cold_wall:.3f}s "
            f"warm={warm_walls}")
