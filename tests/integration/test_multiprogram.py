"""Multiprogram co-scheduling: real contention end to end.

The headline property of the tenancy layer: with two many-invocation
tenants sharing one SoC, the scheduler's Section-5 EXIT_GPU_BUSY path
fires from *real* lease contention - not fault injection - and every
denial is auditable through per-tenant decision records.  Plus the
determinism guarantees the harness relies on (byte-identical reruns,
serial == pooled through the engine, exact ~ fast tick modes) and the
combined contention + fault-injection chaos campaign.
"""

from dataclasses import replace

import pytest

from repro.errors import HarnessError
from repro.harness.chaos import run_multiprogram_chaos_campaign
from repro.harness.engine import (
    KIND_MULTIPROGRAM,
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
)
from repro.obs.observer import Observer
from repro.obs.records import EXIT_GPU_BUSY
from repro.runtime.tenancy import (
    LEASE_DENIED_NOTE,
    TenancySpec,
    parse_tenant_specs,
    run_multiprogram,
)
from repro.soc.spec import haswell_desktop

#: PR-4 fast-forward divergence envelope (docs/PERFORMANCE.md).
REL_TOL = 1e-6

#: The canonical contention mix: both tenants issue thousands of
#: invocations (BS 2000, CC 2147), so neither ever runs alone for long.
MIX = "BS,CC"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


@pytest.fixture(scope="module")
def fifo_result():
    return run_multiprogram(tenants=parse_tenant_specs(MIX),
                            policy="fifo", seed=0)


class TestRealContention:
    def test_gpu_busy_exits_come_from_lease_denials(self, fifo_result):
        """Every tenant's EXIT_GPU_BUSY count equals its denial count:
        with no fault injection, contention is the *only* source."""
        assert fifo_result.total_gpu_busy_exits > 500
        for tenant in fifo_result.tenants:
            assert tenant.gpu_busy_exits == tenant.lease_denials
            assert tenant.lease_denials > 0

    def test_denied_decisions_name_the_holding_tenant(self, fifo_result):
        names = {t.name for t in fifo_result.tenants}
        for tenant in fifo_result.tenants:
            others = names - {tenant.name}
            denied = [d for d in tenant.decisions
                      if d.exit_path == EXIT_GPU_BUSY]
            assert denied, tenant.name
            for record in denied:
                note = next(n for n in record.notes
                            if n.startswith(LEASE_DENIED_NOTE))
                assert note.split(":", 1)[1] in others

    def test_every_record_is_tenant_tagged(self, fifo_result):
        for tenant in fifo_result.tenants:
            assert tenant.decisions
            assert all(d.tenant == tenant.name for d in tenant.decisions)

    def test_no_lost_work_under_contention(self, fifo_result):
        assert fifo_result.all_items_processed
        assert fifo_result.items_expected > 0

    def test_lease_events_match_counters(self, fifo_result):
        grants = sum(1 for e in fifo_result.lease_events
                     if e.action == "grant")
        denials = sum(1 for e in fifo_result.lease_events
                      if e.action == "deny")
        assert grants == sum(t.lease_grants for t in fifo_result.tenants)
        assert denials == fifo_result.total_lease_denials

    def test_solo_tail_runs_under_solo_table_key(self, fifo_result):
        """Once one stream drains, the survivor's records must not be
        keyed as a co-run: its final decisions have no denial notes."""
        longest = max(fifo_result.tenants, key=lambda t: t.invocations)
        tail = longest.decisions[-1]
        assert tail.exit_path != EXIT_GPU_BUSY


class TestDeterminism:
    def test_rerun_is_byte_identical(self, fifo_result):
        again = run_multiprogram(tenants=parse_tenant_specs(MIX),
                                 policy="fifo", seed=0)
        assert again.fingerprint() == fifo_result.fingerprint()

    def test_engine_serial_and_pooled_agree(self):
        specs = [RunSpec(platform=haswell_desktop(),
                         kind=KIND_MULTIPROGRAM,
                         scheduler=SchedulerSpec.eas(),
                         tenancy=TenancySpec(
                             policy=policy, lease_quantum=2,
                             tenants=parse_tenant_specs(MIX)))
                 for policy in ("fifo", "priority")]
        serial = ExecutionEngine(jobs=1).run_batch(specs)
        pooled = ExecutionEngine(jobs=2).run_batch(specs)
        for s, p in zip(serial, pooled):
            assert s.payload.fingerprint() == p.payload.fingerprint()

    def test_exact_and_fast_tick_modes_agree(self, fifo_result):
        fast_spec = replace(haswell_desktop(), tick_mode="fast")
        fast = run_multiprogram(spec=fast_spec,
                                tenants=parse_tenant_specs(MIX),
                                policy="fifo", seed=0)
        assert fast.all_items_processed
        # The discrete arbitration outcome is mode-invariant...
        for exact_t, fast_t in zip(fifo_result.tenants, fast.tenants):
            assert fast_t.lease_grants == exact_t.lease_grants
            assert fast_t.lease_denials == exact_t.lease_denials
            assert fast_t.gpu_busy_exits == exact_t.gpu_busy_exits
        # ...and the continuous quantities stay inside the envelope.
        assert _rel(fast.total_time_s, fifo_result.total_time_s) < REL_TOL
        assert _rel(fast.total_energy_j,
                    fifo_result.total_energy_j) < REL_TOL


class TestPolicyBehaviour:
    def test_fifo_is_fair_across_identical_tenants(self):
        result = run_multiprogram(tenants=parse_tenant_specs("BS,BS,BS"),
                                  policy="fifo", seed=0)
        denials = [t.lease_denials for t in result.tenants]
        assert max(denials) - min(denials) <= 2 * result.lease_quantum

    def test_priority_shields_the_prioritized_tenant(self):
        mix = "BS,CC:5,SP"
        fifo = run_multiprogram(tenants=parse_tenant_specs(mix),
                                policy="fifo", seed=0)
        prio = run_multiprogram(tenants=parse_tenant_specs(mix),
                                policy="priority", seed=0)
        assert (prio.tenant("CC-1").lease_denials
                < fifo.tenant("CC-1").lease_denials)
        assert prio.tenant("CC-1").lease_denials == min(
            t.lease_denials for t in prio.tenants)


class TestHarnessIntegration:
    def test_multiprogram_spec_requires_scheduler_and_tenancy(self):
        tenancy = TenancySpec(tenants=parse_tenant_specs(MIX))
        with pytest.raises(HarnessError):
            RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                    tenancy=tenancy)
        with pytest.raises(HarnessError):
            RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                    scheduler=SchedulerSpec.eas())
        # A string is not a TenancySpec: rejected at construction.
        with pytest.raises(HarnessError, match="TenancySpec"):
            RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                    scheduler=SchedulerSpec.eas(), tenancy="fifo")

    def test_result_cache_round_trip(self, tmp_path):
        spec = RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                       scheduler=SchedulerSpec.eas(),
                       tenancy=TenancySpec(
                           policy="fifo", lease_quantum=2,
                           tenants=parse_tenant_specs(MIX)))
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "runs")))
        first = engine.run_one(spec)
        second = engine.run_one(spec)
        assert not first.from_cache and second.from_cache
        assert (second.payload.fingerprint()
                == first.payload.fingerprint())

    def test_observer_merges_per_tenant_streams(self):
        observer = Observer()
        result = run_multiprogram(tenants=parse_tenant_specs(MIX),
                                  policy="fifo", seed=0,
                                  observer=observer)
        gauges = observer.metrics.snapshot()["gauges"]
        for tenant in result.tenants:
            assert (gauges[f"tenancy.lease_grants.{tenant.name}"]
                    == tenant.lease_grants)
            assert (gauges[f"tenancy.lease_denials.{tenant.name}"]
                    == tenant.lease_denials)
        tagged = {d.tenant for d in observer.decisions}
        assert tagged == {t.name for t in result.tenants}


class TestMultiprogramChaos:
    def test_contention_and_faults_compose(self):
        campaign = run_multiprogram_chaos_campaign(
            fault_levels=(0.0, 0.25))
        assert campaign.all_ok
        assert campaign.all_items_processed
        assert len(campaign.cells) == 4  # 2 policies x 2 levels
        for cell in campaign.cells:
            assert cell.lease_denials > 0
            assert cell.gpu_busy_exits >= cell.lease_denials
        assert len(campaign.fingerprint()) == 64
        assert "PASS" in campaign.render()
