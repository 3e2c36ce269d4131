"""The fleet's one dispatch loop: oracle lock, sketch, sampling.

``run_fleet`` and ``dispatch_stream`` consume the same chunked loop.
Its contract is *identical placement decisions and timestamps* to the
per-request scalar loop it replaced (the oracle,
``tests/fleet/reference_dispatch.py``) - locked here by byte-equal
fingerprints across every policy and trace family, carbon pricing and
deferral included, at any chunk size (``DEFAULT_CHUNK_SIZE`` patched
per test).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.fleet import (
    PLACEMENT_POLICIES,
    TRACE_KINDS,
    FleetSpec,
    LatencySketch,
    TraceSpec,
    dispatch_stream,
    run_fleet,
    trace_columns,
)
from repro.fleet import dispatcher
from repro.fleet.dispatcher import EXIT_FLEET_PLACEMENT
from repro.fleet.policies import CellStats
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.obs.observer import Observer
from repro.soc.carbon import CarbonSpec
from tests.fleet.reference_dispatch import (
    run_fleet_reference,
    stream_fingerprint,
)

FLEET = FleetSpec(n_nodes=16, desktop_fraction=0.5, tick_mode="fast",
                  seed=9)
TRACE = TraceSpec(kind="bursty", duration_s=20.0, mean_rate_hz=1.5,
                  workloads=("MM", "RT"), seed=9)
#: Seeded to generate zero requests (regression lock for the
#: empty-trace guard).
EMPTY_TRACE = TraceSpec(kind="diurnal", duration_s=0.01,
                        mean_rate_hz=0.01, seed=0)


@pytest.fixture
def chunk_rows(monkeypatch):
    """Set the dispatch loop's rows per chunk for one test."""
    return lambda n: monkeypatch.setattr(dispatcher, "DEFAULT_CHUNK_SIZE", n)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("stream-cache")))
    return ExecutionEngine(cache=cache)


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_every_policy_fingerprint_locked(self, engine, policy):
        ref = run_fleet_reference(FLEET, TRACE, policy=policy,
                                  engine=engine)
        st = dispatch_stream(FLEET, TRACE, policy=policy, engine=engine)
        assert stream_fingerprint(ref) == st.fingerprint()
        assert run_fleet(FLEET, TRACE, policy=policy,
                         engine=engine).fingerprint() == ref.fingerprint()
        assert ref.n_requests == st.n_requests
        assert ref.deadline_misses == st.deadline_misses
        assert ref.dispatches_by_kind() == st.dispatches_by_kind()
        assert ref.makespan_s == st.makespan_s
        assert st.total_energy_j == pytest.approx(
            ref.total_energy_j, rel=1e-9)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_every_trace_family_locked(self, engine, kind):
        trace = dataclasses.replace(TRACE, kind=kind)
        ref = run_fleet_reference(FLEET, trace, policy="energy_aware",
                                  engine=engine)
        st = dispatch_stream(FLEET, trace, policy="energy_aware",
                             engine=engine)
        assert stream_fingerprint(ref) == st.fingerprint()

    def test_sketch_percentile_within_bound(self, engine):
        ref = run_fleet(FLEET, TRACE, policy="least_loaded", engine=engine)
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine)
        for pct in (50, 95, 99):
            exact = ref.latency_percentile_s(pct)
            approx = st.latency_percentile_s(pct)
            assert approx == pytest.approx(exact, rel=st.sketch.rel_err)
        assert st.mean_latency_s == pytest.approx(ref.mean_latency_s,
                                                  rel=1e-9)

    def test_policies_still_differ_in_streaming(self, engine):
        a = dispatch_stream(FLEET, TRACE, policy="random", engine=engine)
        b = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                            engine=engine)
        assert a.fingerprint() != b.fingerprint()


class TestRandomPlacementStream:
    """The streaming ``random`` policy draws its ``randrange`` stream in
    bulk and carries it across chunks.  With ``("MM", "BFS")`` the
    eligible counts differ per request (BFS runs on desktops only), so
    the draws are no longer just the accepted words in order.  Ten
    nodes, four of them desktops, make the counts 10 and 4, whose
    rejection rules differ (counts a power of two apart, such as 16
    and 8, reject exactly the same words)."""

    FLEET10 = dataclasses.replace(FLEET, n_nodes=10, desktop_fraction=0.4)
    #: ~200 requests: enough draws that a wrong rejection rule shows.
    LONG_TRACE = dataclasses.replace(TRACE, mean_rate_hz=10.0)

    @pytest.mark.parametrize("workloads", (("MM", "RT"), ("MM", "BFS")))
    def test_chunked_stream_matches_reference(self, engine, chunk_rows,
                                              workloads):
        trace = dataclasses.replace(self.LONG_TRACE, workloads=workloads)
        ref = run_fleet_reference(self.FLEET10, trace, policy="random",
                                  engine=engine)
        chunk_rows(7)
        st = dispatch_stream(self.FLEET10, trace, policy="random",
                             engine=engine)
        assert st.n_chunks > 1
        assert stream_fingerprint(ref) == st.fingerprint()

    def test_mixed_eligibility_really_mixes(self, engine):
        trace = dataclasses.replace(self.LONG_TRACE, workloads=("MM", "BFS"))
        ref = run_fleet(self.FLEET10, trace, policy="random", engine=engine)
        nodes = self.FLEET10.nodes()
        kinds = {(o.workload, nodes[o.node_index].platform_kind)
                 for o in ref.outcomes}
        assert ("BFS", "tablet") not in kinds
        assert {("BFS", "desktop"), ("MM", "desktop"),
                ("MM", "tablet")} <= kinds


class TestTieBreakRegression:
    """Ties break in eligible (class-major) order, not node index.

    At ``desktop_fraction=0.5`` node 0 is a tablet and node 1 the
    first desktop.  On an all-idle fleet every backlog ties at zero,
    so the first placement must land on node 1 in both modes.
    """

    @pytest.mark.parametrize(
        "policy", ("least_loaded", "energy_aware", "deadline_aware"))
    def test_first_placement_is_lowest_index_desktop(self, engine, policy):
        nodes = FLEET.nodes()
        assert nodes[0].platform_kind == "tablet"
        assert nodes[1].platform_kind == "desktop"
        ref = run_fleet(FLEET, TRACE, policy=policy, engine=engine)
        assert ref.outcomes[0].node_index == 1
        st = dispatch_stream(FLEET, TRACE, policy=policy, engine=engine)
        assert st.placement_records[0].tenant == nodes[1].name


class TestChunkIndependence:
    @pytest.mark.parametrize("chunk_size", (1, 5, 17, 4096))
    def test_fingerprint_chunk_size_independent(self, engine, chunk_rows,
                                                chunk_size):
        base = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                               engine=engine)
        chunk_rows(chunk_size)
        chunked = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                                  engine=engine)
        assert chunked.fingerprint() == base.fingerprint()
        assert chunked.chunk_rows == chunk_size
        assert chunked.n_chunks == -(-chunked.n_requests // chunk_size)
        assert chunked.total_energy_j == base.total_energy_j


class TestModeSwitch:
    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(HarnessError):
            dispatch_stream(FLEET, TRACE, policy="psychic", engine=engine)
        with pytest.raises(HarnessError):
            run_fleet(FLEET, TRACE, policy="psychic", engine=engine)


class TestSampling:
    """The sampler's settings are module constants, patched per test."""

    @pytest.fixture
    def stride_one(self, monkeypatch):
        monkeypatch.setattr(dispatcher, "DEFAULT_SAMPLE_STRIDE", 1)

    @pytest.mark.usefixtures("stride_one")
    def test_stride_one_samples_everything(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine)
        assert st.sample_stride == 1
        assert st.records_matched == st.n_requests
        assert len(st.placement_records) == min(st.n_requests, 10_000)
        for record in st.placement_records:
            assert record.exit_path == EXIT_FLEET_PLACEMENT
            assert "policy:least_loaded" in record.notes

    def test_misses_always_sampled(self, engine, monkeypatch):
        # A wide stride keeps only request 0 plus every deadline miss.
        monkeypatch.setattr(dispatcher, "DEFAULT_SAMPLE_STRIDE", 10 ** 9)
        st = dispatch_stream(FLEET, TRACE, policy="random", engine=engine)
        assert st.records_matched >= st.deadline_misses
        assert st.records_matched <= st.deadline_misses + 1

    @pytest.mark.usefixtures("stride_one")
    def test_cap_is_exact_and_counted(self, engine, monkeypatch):
        monkeypatch.setattr(dispatcher, "MAX_SAMPLED_RECORDS", 7)
        st = dispatch_stream(FLEET, TRACE, policy="round_robin",
                             engine=engine)
        assert len(st.placement_records) == 7
        assert st.records_matched == st.n_requests  # dropped, not lost

    @pytest.mark.usefixtures("stride_one")
    def test_stateful_records_carry_policy_reason(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                             engine=engine)
        assert any("reason:" in note for record in st.placement_records
                   for note in record.notes)


class TestEmptyTraceRegression:
    """The zero-request guard: both modes survive an empty trace."""

    def test_trace_is_actually_empty(self):
        assert len(trace_columns(EMPTY_TRACE)[0]) == 0

    def test_reference_mode(self, engine):
        ref = run_fleet(FLEET, EMPTY_TRACE, policy="energy_aware",
                        engine=engine)
        assert ref.n_requests == 0
        assert ref.miss_rate == 0.0
        assert ref.mean_latency_s == 0.0
        assert ref.latency_percentile_s(95) == 0.0
        assert ref.render()

    def test_streaming_mode(self, engine):
        st = dispatch_stream(FLEET, EMPTY_TRACE, policy="energy_aware",
                             engine=engine)
        assert st.n_requests == 0 and st.n_chunks == 0
        assert st.miss_rate == 0.0
        assert st.mean_latency_s == 0.0
        assert st.latency_percentile_s(95) == 0.0
        assert st.total_energy_j == 0.0
        assert st.render()

    def test_empty_fingerprints_agree_across_modes(self, engine):
        ref = run_fleet_reference(FLEET, EMPTY_TRACE, policy="least_loaded",
                                  engine=engine)
        st = dispatch_stream(FLEET, EMPTY_TRACE, policy="least_loaded",
                             engine=engine)
        assert stream_fingerprint(ref) == st.fingerprint()
        assert run_fleet(FLEET, EMPTY_TRACE, policy="least_loaded",
                         engine=engine).fingerprint() == ref.fingerprint()


class TestCellStatsGuardRegression:
    """The empty/all-spilled cell guard in the policy signal surface."""

    def test_zero_count_means_zero_not_raise(self):
        stats = CellStats()
        assert stats.mean_time_s == 0.0
        assert stats.mean_energy_j == 0.0

    def test_nonzero_counts_still_average(self):
        stats = CellStats(count=4, total_time_s=2.0, total_energy_j=8.0)
        assert stats.mean_time_s == 0.5
        assert stats.mean_energy_j == 2.0


class TestObservability:
    def test_streaming_metrics_and_span(self, engine, chunk_rows):
        observer = Observer()
        chunk_rows(32)
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine, observer=observer)
        snapshot = observer.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["fleet.dispatch.requests"] == st.n_requests
        assert counters["fleet.dispatches"] == st.n_requests
        assert (counters["fleet.dispatches.desktop"]
                + counters["fleet.dispatches.tablet"]) == st.n_requests
        assert "fleet.dispatch.req_per_s" in snapshot["gauges"]
        assert "fleet.backlog" in snapshot["gauges"]
        chunk_spans = [s for s in observer.spans
                       if s.name == "fleet.dispatch.chunk"]
        assert len(chunk_spans) == st.n_chunks
        sampled = [r for r in observer.decisions
                   if r.exit_path == EXIT_FLEET_PLACEMENT]
        assert len(sampled) == len(st.placement_records)

    def test_disabled_observer_costs_nothing_in_records(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine)
        again = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                                engine=engine, observer=None)
        assert st.fingerprint() == again.fingerprint()


class TestRepeatedWorkloadNames:
    """A trace may list a workload name twice.  The columns carry the
    name's last index, so every per-workload table must be filled at
    every index of the name (filling only the first index made every
    such request read an empty cell and fail as an ineligible
    placement)."""

    FLEET8 = dataclasses.replace(FLEET, n_nodes=8)
    TRACE_MM_RT_MM = TraceSpec(kind="bursty", duration_s=10.0,
                               mean_rate_hz=2.0, workloads=("MM", "RT", "MM"),
                               seed=9)

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_matches_oracle(self, engine, chunk_rows, policy):
        ref = run_fleet_reference(self.FLEET8, self.TRACE_MM_RT_MM,
                                  policy=policy, engine=engine)
        assert {o.workload for o in ref.outcomes} == {"MM", "RT"}
        chunk_rows(7)
        st = dispatch_stream(self.FLEET8, self.TRACE_MM_RT_MM,
                             policy=policy, engine=engine)
        assert st.fingerprint() == stream_fingerprint(ref)
        result = run_fleet(self.FLEET8, self.TRACE_MM_RT_MM, policy=policy,
                           engine=engine)
        assert result.fingerprint() == ref.fingerprint()


class TestCarbonStream:
    """Carbon pricing and deferral run through the one loop: held
    requests re-enter the dispatch order at their release instant."""

    CARBON_FLEET = dataclasses.replace(
        FLEET, carbon=CarbonSpec(period_s=20.0))
    DEFERRAL_TRACE = dataclasses.replace(TRACE, deferral_fraction=0.5)

    @pytest.fixture(scope="class")
    def ref(self, engine):
        return run_fleet_reference(self.CARBON_FLEET, self.DEFERRAL_TRACE,
                                   policy="energy_aware", engine=engine)

    def test_trace_really_defers(self, ref):
        deferred = [r for r in ref.placement_records
                    if any(n.startswith("deferred:") for n in r.notes)]
        assert deferred
        assert [o.req_id for o in ref.outcomes] != sorted(
            o.req_id for o in ref.outcomes)

    @pytest.mark.parametrize("chunk_size", (1, 7, 65536))
    def test_stream_digest_matches_oracle(self, engine, ref, chunk_rows,
                                          chunk_size):
        chunk_rows(chunk_size)
        st = dispatch_stream(self.CARBON_FLEET, self.DEFERRAL_TRACE,
                             policy="energy_aware", engine=engine)
        assert st.fingerprint() == stream_fingerprint(ref)
        result = run_fleet(self.CARBON_FLEET, self.DEFERRAL_TRACE,
                           policy="energy_aware", engine=engine)
        assert st.total_carbon_g == result.total_carbon_g > 0.0

    def test_run_fleet_matches_oracle(self, engine, ref):
        result = run_fleet(self.CARBON_FLEET, self.DEFERRAL_TRACE,
                           policy="energy_aware", engine=engine)
        assert result.fingerprint() == ref.fingerprint()
        assert result.placement_records == ref.placement_records

    def test_stream_render_reports_carbon(self, engine):
        st = dispatch_stream(self.CARBON_FLEET, self.DEFERRAL_TRACE,
                             policy="round_robin", engine=engine)
        assert "g CO2" in st.render()


class TestLatencySketch:
    def test_error_bound_against_exact_sort(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=10_000)
        sketch = LatencySketch()
        sketch.add_batch(values)
        ordered = np.sort(values)
        for pct in (1, 25, 50, 75, 90, 95, 99, 100):
            rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
            exact = float(ordered[rank - 1])
            assert sketch.quantile(pct) == pytest.approx(
                exact, rel=sketch.rel_err)

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(scale=2.0, size=5_000)
        a, b = LatencySketch(), LatencySketch()
        a.add_batch(values)
        b.add_batch(values[::-1].copy())
        for pct in (50, 95, 99):
            assert a.quantile(pct) == b.quantile(pct)

    def test_exact_summary_stats(self):
        sketch = LatencySketch()
        sketch.add_batch(np.array([1.0, 2.0, 3.0, 4.0]))
        assert sketch.count == 4
        assert sketch.mean == pytest.approx(2.5)
        assert sketch.min == 1.0 and sketch.max == 4.0

    def test_empty_and_validation(self):
        sketch = LatencySketch()
        assert sketch.quantile(95) == 0.0
        assert sketch.mean == 0.0
        with pytest.raises(HarnessError):
            sketch.quantile(0)
        with pytest.raises(HarnessError):
            sketch.quantile(101)
        with pytest.raises(HarnessError):
            LatencySketch(rel_err=0.0)

    def test_clamped_to_observed_range(self):
        sketch = LatencySketch()
        sketch.add_batch(np.full(100, 3.25))
        assert sketch.quantile(50) == pytest.approx(3.25, rel=0.011)
        assert sketch.min <= sketch.quantile(1) <= sketch.max
        assert sketch.min <= sketch.quantile(100) <= sketch.max
