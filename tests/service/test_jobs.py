"""JobSpec canonicalization, admission control, and backoff policy."""

import random

import pytest

from repro.errors import ServiceError
from repro.service import jobs as jobs_mod
from repro.service.jobs import (
    JobSpec,
    admit,
    backoff_delay_s,
    table_digest,
)


class TestJobSpec:
    def test_json_round_trip(self):
        spec = JobSpec(workload="BS", platform="tablet", scheduler="eas",
                       metric="energy", fault_level=0.1, seed=3,
                       tick_mode="fast", warm_table=False)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_sha_is_stable_and_sensitive(self):
        a = JobSpec(workload="BS")
        b = JobSpec(workload="BS")
        c = JobSpec(workload="MM")
        assert a.sha() == b.sha()
        assert a.sha() != c.sha()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown job spec field"):
            JobSpec.from_json('{"workload": "BS", "color": "red"}')

    def test_unparseable_json_rejected(self):
        with pytest.raises(ServiceError, match="unparseable"):
            JobSpec.from_json("{nope")

    @pytest.mark.parametrize("kwargs, match", [
        ({"workload": "BS", "platform": "phone"}, "unknown platform"),
        ({"workload": "BS", "scheduler": "magic"}, "unknown scheduler"),
        ({"workload": "BS", "scheduler": "static"}, "needs an alpha"),
        ({"workload": "BS", "tick_mode": "warp"}, "unknown tick mode"),
        ({"workload": "BS", "fault_level": float("nan")}, "fault level"),
        ({"workload": "BS", "fault_level": -0.5}, "fault level"),
        ({"workload": "BS", "fault_level": 1.5}, "fault level"),
        ({"workload": "BS", "scheduler": "static", "alpha": 2.0}, "outside"),
        ({"workload": "BS", "scheduler": "static", "alpha": float("nan")},
         "outside"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ServiceError, match=match):
            JobSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"workload": "XYZ"}, "unknown workload"),
        ({"workload": 5}, "unknown workload"),
        ({"workload": "CC", "platform": "tablet"}, "32-bit tablet"),
        ({"workload": "BS", "scheduler": "eas", "deadline_s": 2.0},
         "deadline_s"),
        ({"workload": "BS", "scheduler": "eas", "metric": "speed"},
         "unknown metric"),
    ])
    def test_invalid_run_refused_at_construction(self, kwargs, match):
        """Whatever the engine would refuse, building the job refuses."""
        with pytest.raises(ServiceError, match=match):
            JobSpec(**kwargs)

    @pytest.mark.parametrize("spec, text, sha", [
        (JobSpec(workload="MM", platform="tablet", scheduler="race",
                 metric="edp", alpha=None, fault_level=0.25, seed=7,
                 tick_mode="fast", warm_table=False, deadline_s=1.5),
         '{"alpha":null,"deadline_s":1.5,"fault_level":0.25,'
         '"metric":"edp","platform":"tablet","scheduler":"race","seed":7,'
         '"tick_mode":"fast","warm_table":false,"workload":"MM"}',
         "72a4547f26ff96636fb1092861afa86fabd823088d76482be6253c62133f5cb9"),
        (JobSpec(workload="BS", platform="desktop", scheduler="static",
                 metric="energy", alpha=0.3, fault_level=0.0, seed=3,
                 tick_mode="exact", warm_table=True, deadline_s=None),
         '{"alpha":0.3,"deadline_s":null,"fault_level":0.0,'
         '"metric":"energy","platform":"desktop","scheduler":"static",'
         '"seed":3,"tick_mode":"exact","warm_table":true,"workload":"BS"}',
         "0e00e1fc48028dac4d308adfa756dc56b9bdc9a6057dd4fd2d095dab362aa253"),
        (JobSpec(workload="SL", platform="tablet", scheduler="eas",
                 metric="edp@2", alpha=None, fault_level=0.1, seed=11,
                 tick_mode="fast", warm_table=True, deadline_s=None),
         '{"alpha":null,"deadline_s":null,"fault_level":0.1,'
         '"metric":"edp@2","platform":"tablet","scheduler":"eas","seed":11,'
         '"tick_mode":"fast","warm_table":true,"workload":"SL"}',
         "1bdca9a6e14f714b17c3e866e0ebc495412e3255dc91cc4328f404fad977eef6"),
    ])
    def test_json_and_sha_pinned(self, spec, text, sha):
        """Job rows and warm cache keys hash this text; it must not move."""
        assert spec.to_json() == text
        assert spec.sha() == sha

    def test_warm_only_for_eas(self):
        assert JobSpec(workload="BS", scheduler="eas").warm
        assert not JobSpec(workload="BS", scheduler="eas",
                           warm_table=False).warm
        assert not JobSpec(workload="BS", scheduler="cpu").warm

    def test_warm_key_binds_the_table_snapshot(self):
        spec = JobSpec(workload="BS")
        empty = table_digest([])
        filled = table_digest([{"key": "k", "alpha": 0.5}])
        assert spec.warm_cache_key(empty) != spec.warm_cache_key(filled)
        assert spec.warm_cache_key(empty) == spec.warm_cache_key(empty)

    def test_table_digest_is_order_independent(self):
        a = {"key": "a", "alpha": 0.1}
        b = {"key": "b", "alpha": 0.2}
        assert table_digest([a, b]) == table_digest([b, a])

    def test_cold_runspec_key_differs_by_platform(self):
        desktop = JobSpec(workload="BS", scheduler="cpu")
        tablet = JobSpec(workload="BS", scheduler="cpu", platform="tablet")
        assert (desktop.to_runspec().cache_key()
                != tablet.to_runspec().cache_key())


class TestAdmissionPolicy:
    def test_admits_within_bounds(self):
        decision = admit(depth=0, tenant_depth=0, tenant="t")
        assert decision and decision.reason == "admitted"

    def test_default_bounds(self):
        """256 live jobs fill the queue; 64 fill one tenant's quota."""
        assert admit(depth=255, tenant_depth=0, tenant="t")
        assert not admit(depth=256, tenant_depth=0, tenant="t")
        assert admit(depth=100, tenant_depth=63, tenant="t")
        assert not admit(depth=100, tenant_depth=64, tenant="t")

    def test_rejects_full_queue_with_reason(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "MAX_DEPTH", 2)
        decision = admit(depth=2, tenant_depth=0, tenant="t")
        assert not decision
        assert "queue full" in decision.reason

    def test_rejects_over_quota_tenant_with_reason(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "TENANT_QUOTA", 1)
        decision = admit(depth=5, tenant_depth=1, tenant="noisy")
        assert not decision
        assert "noisy" in decision.reason and "quota" in decision.reason

    def test_per_tenant_override(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "TENANT_QUOTA", 1)
        monkeypatch.setattr(jobs_mod, "TENANT_QUOTAS", {"bulk": 10})
        assert admit(depth=5, tenant_depth=5, tenant="bulk")
        assert not admit(depth=5, tenant_depth=5, tenant="other")


class TestBackoffPolicy:
    def test_deterministic_per_job_and_attempt(self):
        assert backoff_delay_s(7, 3) == backoff_delay_s(7, 3)
        assert backoff_delay_s(7, 3) != backoff_delay_s(8, 3)

    def test_default_schedule_and_jitter_draws(self):
        """0.05 s * 2**(attempt-1), capped at 5 s, jittered by the
        draw of ``random.Random("0:{job}:{attempt}")``."""
        for job_id, attempt in ((1, 1), (7, 3), (2, 8), (5, 20)):
            raw = min(5.0, 0.05 * 2.0 ** (attempt - 1))
            jitter = random.Random(f"0:{job_id}:{attempt}").random()
            assert backoff_delay_s(job_id, attempt) == (
                raw * (0.5 + 0.5 * jitter))

    def test_grows_exponentially_until_cap(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "BACKOFF_BASE_S", 0.1)
        monkeypatch.setattr(jobs_mod, "BACKOFF_CAP_S", 1.0)
        # Jitter is in [0.5, 1.0), so raw bounds still separate tiers.
        assert 0.05 <= backoff_delay_s(1, 1) < 0.1
        assert 0.1 <= backoff_delay_s(1, 2) < 0.2
        assert backoff_delay_s(1, 20) < 1.0  # capped

    def test_zeroth_attempt_has_no_delay(self):
        assert backoff_delay_s(1, 0) == 0.0
