"""The fleet dispatcher: determinism, dedup, policy quality, audit."""

import pytest

from repro.errors import HarnessError
from repro.fleet import FleetSpec, TraceSpec, compare_fleet_policies, run_fleet
from repro.fleet.dispatcher import EXIT_FLEET_PLACEMENT
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.obs.observer import Observer
from tests.fleet.reference_trace import generate_trace

#: Small, fast-mode fixtures: the fleet layer's cost is per distinct
#: (class, workload) cell, not per node or per request.
FLEET = FleetSpec(n_nodes=16, desktop_fraction=0.5, tick_mode="fast",
                  seed=9)
TRACE = TraceSpec(kind="bursty", duration_s=20.0, mean_rate_hz=1.5,
                  workloads=("MM", "RT"), seed=9)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("fleet-cache")))
    return ExecutionEngine(cache=cache)


class TestDeterminism:
    def test_rerun_fingerprint_identical(self, engine):
        a = run_fleet(FLEET, TRACE, policy="energy_aware", engine=engine)
        b = run_fleet(FLEET, TRACE, policy="energy_aware", engine=engine)
        assert a.fingerprint() == b.fingerprint()
        assert a.outcomes == b.outcomes

    def test_policies_differ(self, engine):
        a = run_fleet(FLEET, TRACE, policy="random", engine=engine)
        b = run_fleet(FLEET, TRACE, policy="least_loaded", engine=engine)
        assert a.fingerprint() != b.fingerprint()

    def test_fleet_spec_changes_fingerprint(self, engine):
        import dataclasses

        a = run_fleet(FLEET, TRACE, policy="least_loaded", engine=engine)
        grown = dataclasses.replace(FLEET, n_nodes=17)
        b = run_fleet(grown, TRACE, policy="least_loaded", engine=engine)
        assert a.fingerprint() != b.fingerprint()

    def test_serial_and_pooled_agree(self, engine):
        serial = run_fleet(FLEET, TRACE, policy="energy_aware",
                           engine=engine)
        pooled_engine = ExecutionEngine(jobs=2, cache=None)
        pooled = run_fleet(FLEET, TRACE, policy="energy_aware",
                           engine=pooled_engine)
        assert serial.fingerprint() == pooled.fingerprint()


class TestDedup:
    def test_cells_not_per_node(self, engine):
        first = run_fleet(FLEET, TRACE, policy="round_robin",
                          engine=engine)
        # 2 platform classes x 2 workloads, regardless of 16 nodes.
        assert len(first.cells) == 4
        again = run_fleet(FLEET, TRACE, policy="round_robin",
                          engine=engine)
        assert again.cells_executed == 0  # all recalled from the cache

    def test_cache_dedupes_across_fleet_sizes(self, engine):
        import dataclasses

        run_fleet(FLEET, TRACE, policy="least_loaded", engine=engine)
        big = dataclasses.replace(FLEET, n_nodes=200)
        result = run_fleet(big, TRACE, policy="least_loaded",
                           engine=engine)
        assert len(result.cells) == 4
        assert result.cells_executed == 0  # same cells as the 16-node run
        assert result.n_requests == len(generate_trace(TRACE))


class TestAccounting:
    def test_outcomes_cover_trace(self, engine):
        result = run_fleet(FLEET, TRACE, policy="least_loaded",
                           engine=engine)
        requests = generate_trace(TRACE)
        assert result.n_requests == len(requests)
        for outcome, request in zip(result.outcomes, requests):
            assert outcome.req_id == request.req_id
            assert outcome.t_start_s >= outcome.t_arrival_s
            assert outcome.t_complete_s > outcome.t_start_s
            assert outcome.energy_j > 0.0

    def test_energy_is_sum_of_outcomes(self, engine):
        result = run_fleet(FLEET, TRACE, policy="least_loaded",
                           engine=engine)
        assert result.total_energy_j == pytest.approx(
            sum(o.energy_j for o in result.outcomes))
        assert result.idle_energy_estimate_j > 0.0
        assert 0.0 <= result.miss_rate <= 1.0

    def test_placement_records_tagged_with_nodes(self, engine):
        result = run_fleet(FLEET, TRACE, policy="energy_aware",
                           engine=engine)
        assert len(result.placement_records) == result.n_requests
        node_names = {n.name for n in FLEET.nodes()}
        for record, outcome in zip(result.placement_records,
                                   result.outcomes):
            assert record.exit_path == EXIT_FLEET_PLACEMENT
            assert record.tenant == outcome.node
            assert record.tenant in node_names
            assert record.kernel == outcome.workload
            assert "policy:energy_aware" in record.notes

    def test_observer_collects_fleet_metrics(self, engine):
        observer = Observer()
        result = run_fleet(FLEET, TRACE, policy="least_loaded",
                           engine=engine, observer=observer)
        snapshot = observer.metrics.snapshot()
        assert snapshot["counters"]["fleet.dispatches"] == result.n_requests
        assert (snapshot["counters"]["fleet.completions"]
                == result.n_requests)
        fleet_decisions = [
            r for r in observer.decisions
            if r.exit_path == EXIT_FLEET_PLACEMENT]
        assert len(fleet_decisions) == result.n_requests


class TestPolicyQuality:
    def test_energy_aware_beats_random(self, engine):
        comparison = compare_fleet_policies(
            FLEET,
            TraceSpec(kind="bursty", duration_s=30.0, mean_rate_hz=2.0,
                      seed=9),
            policies=("random", "energy_aware"), engine=engine)
        random_result = comparison.result("random")
        energy_result = comparison.result("energy_aware")
        assert energy_result.total_energy_j < random_result.total_energy_j
        assert energy_result.miss_rate <= random_result.miss_rate

    def test_comparison_render_and_fingerprint(self, engine):
        comparison = compare_fleet_policies(
            FLEET, TRACE, policies=("random", "least_loaded"),
            engine=engine)
        text = comparison.render()
        assert "random" in text and "least_loaded" in text
        assert comparison.fingerprint() == compare_fleet_policies(
            FLEET, TRACE, policies=("random", "least_loaded"),
            engine=engine).fingerprint()
        with pytest.raises(HarnessError):
            comparison.result("energy_aware")


class TestEligibility:
    def test_unplaceable_workload_raises(self, engine):
        tablets_only = FleetSpec(n_nodes=4, desktop_fraction=0.0,
                                 tick_mode="fast")
        trace = TraceSpec(kind="bursty", duration_s=10.0, mean_rate_hz=1.0,
                          workloads=("CC",))  # desktop-only workload
        with pytest.raises(HarnessError):
            run_fleet(tablets_only, trace, policy="least_loaded",
                      engine=engine)

    def test_desktop_only_workload_stays_on_desktops(self, engine):
        trace = TraceSpec(kind="diurnal", duration_s=10.0, mean_rate_hz=1.0,
                          workloads=("CC",), seed=4)
        result = run_fleet(FLEET, trace, policy="round_robin",
                           engine=engine)
        assert result.n_requests > 0
        assert all(o.platform_kind == "desktop" for o in result.outcomes)
