"""Chaos campaign invariants on a small, fast sweep.

The full default campaign (4 workloads x 4 fault levels) runs in the
paper-shape table (``benchmarks/bench_paper_shape.py::fault_sweep``);
here a reduced sweep asserts the same four invariants quickly enough for
CI.
"""

import pytest

from repro.harness.chaos import (
    ChaosCampaignResult,
    cell_seed,
    run_chaos_campaign,
)
from repro.workloads.registry import workload_by_abbrev

LEVELS = (0.0, 0.4)
WORKLOADS = ("MM", "RT")


@pytest.fixture(scope="module")
def campaign() -> ChaosCampaignResult:
    return run_chaos_campaign(
        workloads=[workload_by_abbrev(a) for a in WORKLOADS],
        fault_levels=LEVELS, seed=99)


class TestInvariants:
    def test_no_unhandled_exceptions(self, campaign):
        assert campaign.all_ok

    def test_all_items_processed_at_every_level(self, campaign):
        assert campaign.all_items_processed
        for cell in campaign.cells:
            assert cell.items_processed == pytest.approx(
                cell.items_expected, rel=1e-6)

    def test_edp_bounded_by_cpu_baseline(self, campaign):
        assert campaign.edp_bounded
        for cell in campaign.cells:
            assert cell.edp <= campaign.cpu_edp(cell.workload)

    def test_faults_were_actually_injected(self, campaign):
        """The sweep must exercise the fault paths, not trivially pass
        on a healthy platform."""
        faulted = [c for c in campaign.cells if c.fault_level > 0.0]
        assert sum(sum(c.fault_counts.values()) for c in faulted) > 0
        clean = [c for c in campaign.cells if c.fault_level == 0.0]
        assert all(not c.fault_counts for c in clean)

    def test_rerun_fingerprint_identical(self, campaign):
        rerun = run_chaos_campaign(
            workloads=[workload_by_abbrev(a) for a in WORKLOADS],
            fault_levels=LEVELS, seed=99)
        assert rerun.fingerprint() == campaign.fingerprint()

    def test_different_seed_different_fingerprint(self, campaign):
        other = run_chaos_campaign(
            workloads=[workload_by_abbrev(a) for a in WORKLOADS],
            fault_levels=LEVELS, seed=100)
        assert other.fingerprint() != campaign.fingerprint()
        # ... but the invariants hold for any seed, not one lucky draw.
        assert other.all_ok and other.all_items_processed
        assert other.edp_bounded


class TestDecisionAudit:
    """The PR-2 acceptance criterion: a chaos run at fault level
    >= 0.3 yields decision records naming the specific fault event and
    the fallback reason for every degraded kernel.

    The resilient defaults absorb faults by design (retries + leaky
    bucket), so the hostile cell runs NB at fault level 0.9, where the
    default budget is exhausted and the kernel degrades - the audit
    trail, not the resilience, is under test here.
    """

    @pytest.fixture(scope="class")
    def brittle_campaign(self) -> ChaosCampaignResult:
        return run_chaos_campaign(
            workloads=[workload_by_abbrev("NB")],
            fault_levels=(0.0, 0.9), seed=99)

    def test_degraded_kernels_are_explained(self, brittle_campaign):
        hostile = [c for c in brittle_campaign.cells
                   if c.fault_level >= 0.3]
        degraded = [c for c in hostile
                    if c.degraded_kernels or c.fallback_invocations]
        assert degraded, "no cell degraded at fault level 0.4"
        for cell in degraded:
            lines = cell.degradation_explanations()
            assert lines
            joined = "\n".join(lines)
            # Both halves of the audit: the why and the what.
            assert "reason=" in joined
            assert "faults=[" in joined
            # The events name the injected hazard, not a vague failure.
            assert "GPU" in joined

    def test_clean_cells_have_nothing_to_explain(self, brittle_campaign):
        for cell in brittle_campaign.cells:
            if cell.fault_level == 0.0:
                assert cell.degradation_explanations() == []

    def test_render_includes_degradation_audit(self, brittle_campaign):
        text = brittle_campaign.render()
        assert "degradation audit" in text
        assert "reason=" in text

    def test_robustness_invariants_still_hold(self, brittle_campaign):
        """Even a degrading scheduler keeps the robustness contract:
        no escapes, every item processed."""
        assert brittle_campaign.all_ok
        assert brittle_campaign.all_items_processed


class TestReporting:
    def test_render_shows_all_invariants(self, campaign):
        text = campaign.render()
        assert "no unhandled exceptions: PASS" in text
        assert "all items processed:     PASS" in text
        assert "EDP <= CPU baseline:     PASS" in text
        assert campaign.fingerprint() in text

    def test_every_invocation_has_a_decision_record(self, campaign):
        for cell in campaign.cells:
            assert len(cell.decision_records) == cell.invocations

    def test_decision_records_do_not_perturb_fingerprint(self, campaign):
        """Records are audit payload, not campaign state: stripping
        them must leave the cell canonicalization unchanged."""
        import dataclasses

        cell = campaign.cells[0]
        stripped = dataclasses.replace(cell, decision_records=())
        assert stripped.canonical() == cell.canonical()

    def test_cell_seed_is_stable_across_processes(self):
        # Pinned values: a hash-seed-dependent cell_seed would break
        # the campaign's cross-process reproducibility promise.
        assert cell_seed(2016, "BS", 0.5) == cell_seed(2016, "BS", 0.5)
        assert cell_seed(2016, "BS", 0.5) != cell_seed(2016, "MM", 0.5)
        assert cell_seed(2016, "BS", 0.5) != cell_seed(2017, "BS", 0.5)


class TestDrainedProfilingRegression:
    """Faulted profiling rounds still retire their items, so their
    retries can drain a launch before any round succeeds.  Profiling
    must then end (no retry on an exhausted launch) and the invocation
    complete as ``profiled`` with its faults on the record."""

    @pytest.mark.parametrize("abbrev,level,seed",
                             (("NB", 1.0, 99), ("BFS", 0.9, 0)))
    def test_cell_completes(self, abbrev, level, seed):
        campaign = run_chaos_campaign(
            workloads=[workload_by_abbrev(abbrev)], fault_levels=(level,),
            seed=seed)
        assert campaign.all_ok
        assert campaign.all_items_processed
        drained = [r for cell in campaign.cells
                   for r in cell.decision_records
                   if "profiling-drained" in r.notes]
        assert drained
        for record in drained:
            assert record.exit_path == "profiled"
            assert record.quarantined
            assert record.fault_events
