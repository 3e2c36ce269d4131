"""Streaming dispatch: cross-mode equivalence, sketch, sampling, engine.

The streaming pipeline's contract is *identical placement decisions
and timestamps* to the reference loop - locked here by byte-equal
stream fingerprints across every policy and trace family, at any
chunk size.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.fleet import (
    PLACEMENT_POLICIES,
    TRACE_KINDS,
    FleetSpec,
    FleetStreamResult,
    LatencySketch,
    TraceSpec,
    dispatch_stream,
    run_fleet,
)
from repro.fleet.dispatcher import EXIT_FLEET_PLACEMENT
from repro.fleet.policies import CellStats
from repro.harness.engine import (
    CACHE_SCHEMA_VERSION,
    KIND_APPLICATION,
    KIND_CHAOS_BASELINE,
    KIND_CHAOS_CELL,
    KIND_FLEET_CELL,
    KIND_FLEET_DISPATCH,
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
)
from repro.obs.observer import Observer

FLEET = FleetSpec(n_nodes=16, desktop_fraction=0.5, tick_mode="fast",
                  seed=9)
TRACE = TraceSpec(kind="bursty", duration_s=20.0, mean_rate_hz=1.5,
                  workloads=("MM", "RT"), seed=9)
#: Seeded to generate zero requests (regression lock for the
#: empty-trace guard).
EMPTY_TRACE = TraceSpec(kind="diurnal", duration_s=0.01,
                        mean_rate_hz=0.01, seed=0)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("stream-cache")))
    return ExecutionEngine(cache=cache)


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_every_policy_fingerprint_locked(self, engine, policy):
        ref = run_fleet(FLEET, TRACE, policy=policy, engine=engine)
        st = dispatch_stream(FLEET, TRACE, policy=policy, engine=engine)
        assert ref.stream_fingerprint() == st.fingerprint()
        assert ref.n_requests == st.n_requests
        assert ref.deadline_misses == st.deadline_misses
        assert ref.dispatches_by_kind() == st.dispatches_by_kind()
        assert ref.makespan_s == st.makespan_s
        assert st.total_energy_j == pytest.approx(
            ref.total_energy_j, rel=1e-9)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_every_trace_family_locked(self, engine, kind):
        trace = dataclasses.replace(TRACE, kind=kind)
        ref = run_fleet(FLEET, trace, policy="energy_aware", engine=engine)
        st = dispatch_stream(FLEET, trace, policy="energy_aware",
                             engine=engine)
        assert ref.stream_fingerprint() == st.fingerprint()

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
    def test_fingerprint_chunk_size_independent(self, engine, chunk_size):
        base = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                               engine=engine)
        chunked = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                                  engine=engine, chunk_size=chunk_size)
        assert chunked.fingerprint() == base.fingerprint()
        assert chunked.n_chunks == -(-chunked.n_requests // chunk_size)
        assert chunked.total_energy_j == base.total_energy_j

    def test_bad_chunk_size(self, engine):
        with pytest.raises(HarnessError):
            dispatch_stream(FLEET, TRACE, engine=engine, chunk_size=0)
        with pytest.raises(HarnessError):
            dispatch_stream(FLEET, TRACE, engine=engine, sample_stride=0)


class TestModeSwitch:
    def test_run_fleet_streaming_mode(self, engine):
        result = run_fleet(FLEET, TRACE, policy="round_robin",
                           engine=engine, dispatch_mode="streaming")
        assert isinstance(result, FleetStreamResult)
        assert "streaming" in result.render()

    def test_unknown_mode_rejected(self, engine):
        with pytest.raises(HarnessError):
            run_fleet(FLEET, TRACE, engine=engine, dispatch_mode="turbo")

    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(HarnessError):
            dispatch_stream(FLEET, TRACE, policy="psychic", engine=engine)


class TestSampling:
    def test_stride_one_samples_everything(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine, sample_stride=1)
        assert st.records_matched == st.n_requests
        assert len(st.placement_records) == min(st.n_requests, 10_000)
        for record in st.placement_records:
            assert record.exit_path == EXIT_FLEET_PLACEMENT
            assert "policy:least_loaded" in record.notes

    def test_misses_always_sampled(self, engine):
        # A wide stride keeps only request 0 plus every deadline miss.
        st = dispatch_stream(FLEET, TRACE, policy="random", engine=engine,
                             sample_stride=10 ** 9)
        assert st.records_matched >= st.deadline_misses
        assert st.records_matched <= st.deadline_misses + 1

    def test_cap_is_exact_and_counted(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="round_robin",
                             engine=engine, sample_stride=1, max_records=7)
        assert len(st.placement_records) == 7
        assert st.records_matched == st.n_requests  # dropped, not lost

    def test_stateful_records_carry_policy_reason(self, engine):
        st = dispatch_stream(FLEET, TRACE, policy="energy_aware",
                             engine=engine, sample_stride=1)
        assert any("reason:" in note for record in st.placement_records
                   for note in record.notes)


class TestEmptyTraceRegression:
    """The zero-request guard: both modes survive an empty trace."""

    def test_trace_is_actually_empty(self):
        assert len(EMPTY_TRACE.requests()) == 0

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
        ref = run_fleet(FLEET, EMPTY_TRACE, policy="least_loaded",
                        engine=engine)
        st = dispatch_stream(FLEET, EMPTY_TRACE, policy="least_loaded",
                             engine=engine)
        assert ref.stream_fingerprint() == st.fingerprint()


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
    def test_streaming_metrics_and_span(self, engine):
        observer = Observer()
        st = dispatch_stream(FLEET, TRACE, policy="least_loaded",
                             engine=engine, chunk_size=32,
                             observer=observer)
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


class TestEngineFleetDispatch:
    def _spec(self, mode, policy="least_loaded"):
        return RunSpec(platform=FLEET.platform_spec("desktop"),
                       kind=KIND_FLEET_DISPATCH, fleet=FLEET, trace=TRACE,
                       policy=policy, dispatch_mode=mode)

    def test_schema_version_bumped_for_streaming(self):
        assert CACHE_SCHEMA_VERSION >= 6

    def test_modes_hash_to_distinct_keys(self):
        assert (self._spec("reference").cache_key()
                != self._spec("streaming").cache_key())
        assert (self._spec("reference", policy="random").cache_key()
                != self._spec("reference").cache_key())

    def test_canonical_carries_fleet_payload(self):
        canonical = self._spec("streaming").canonical()
        assert FLEET.canonical() in canonical
        assert TRACE.canonical() in canonical
        assert '"dispatch_mode":"streaming"' in canonical
        assert '"policy":"least_loaded"' in canonical

    def test_validation(self):
        with pytest.raises(HarnessError, match="dispatch_mode"):
            self._spec("turbo")
        with pytest.raises(HarnessError, match="FleetSpec"):
            RunSpec(platform=FLEET.platform_spec("desktop"),
                    kind=KIND_FLEET_DISPATCH, policy="random",
                    dispatch_mode="reference")
        with pytest.raises(HarnessError, match="must leave"):
            RunSpec(platform=FLEET.platform_spec("desktop"),
                    workload="MM", policy="random")
        for kind in (KIND_APPLICATION, KIND_CHAOS_CELL,
                     KIND_CHAOS_BASELINE, KIND_FLEET_CELL):
            with pytest.raises(HarnessError, match="XYZ"):
                RunSpec(platform=FLEET.platform_spec("desktop"), kind=kind,
                        workload="XYZ", scheduler=SchedulerSpec.cpu())

    def test_engine_runs_and_caches_fleet_dispatch(self, tmp_path):
        cache = ResultCache(str(tmp_path / "dispatch-cache"))
        eng = ExecutionEngine(cache=cache)
        spec = self._spec("streaming")
        first = eng.run_batch([spec])[0]
        assert not first.from_cache
        assert first.payload.fingerprint()
        second = eng.run_batch([spec])[0]
        assert second.from_cache
        assert (second.payload.fingerprint()
                == first.payload.fingerprint())

    def test_cross_mode_fingerprints_agree_through_engine(self, tmp_path):
        eng = ExecutionEngine(
            cache=ResultCache(str(tmp_path / "xmode-cache")))
        ref = eng.run_batch([self._spec("reference")])[0].payload
        st = eng.run_batch([self._spec("streaming")])[0].payload
        assert ref.stream_fingerprint() == st.fingerprint()


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
