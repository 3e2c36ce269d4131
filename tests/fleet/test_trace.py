"""Arrival-trace generators: determinism, shapes, validation, columns.

``trace_columns`` is checked element for element against the scalar
oracle in ``tests/fleet/reference_trace.py``.
"""

import random

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.fleet import TRACE_KINDS, FleetSpec, TraceSpec, trace_columns
from repro.fleet import dispatcher
from repro.fleet import trace as trace_module
from repro.fleet.mtstream import BLOCK_WORDS
from repro.harness.engine import ExecutionEngine, ResultCache
from tests.fleet import reference_trace
from tests.fleet.reference_trace import generate_trace


class TestDeterminism:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_spec_same_requests(self, kind):
        spec = TraceSpec(kind=kind, duration_s=30.0, mean_rate_hz=3.0,
                         seed=11)
        assert generate_trace(spec) == generate_trace(spec)

    def test_seed_changes_trace(self):
        a = generate_trace(TraceSpec(kind="bursty", seed=1))
        b = generate_trace(TraceSpec(kind="bursty", seed=2))
        assert a != b

    def test_ids_positional_in_arrival_order(self):
        requests = generate_trace(TraceSpec(kind="bursty", duration_s=30.0))
        assert [r.req_id for r in requests] == list(range(len(requests)))
        times = [r.t_arrival_s for r in requests]
        assert times == sorted(times)


class TestShapes:
    def test_rate_roughly_respected(self):
        spec = TraceSpec(kind="diurnal", duration_s=200.0, mean_rate_hz=5.0)
        n = len(generate_trace(spec))
        assert 0.6 * 1000 < n < 1.4 * 1000

    def test_adversarial_has_simultaneous_waves(self):
        spec = TraceSpec(kind="adversarial", duration_s=40.0,
                         mean_rate_hz=4.0)
        requests = generate_trace(spec)
        by_time = {}
        for r in requests:
            by_time.setdefault(r.t_arrival_s, []).append(r)
        waves = [rs for rs in by_time.values() if len(rs) > 3]
        assert len(waves) >= 4
        for wave in waves:
            # one workload per wave, tightest deadline
            assert len({r.workload for r in wave}) == 1
            assert all(r.deadline_s == spec.deadline_lo_s for r in wave)

    def test_bursty_bursts_share_hot_workload(self):
        spec = TraceSpec(kind="bursty", duration_s=60.0, mean_rate_hz=4.0)
        requests = generate_trace(spec)
        # at least one 0.5s window holds a cluster of one workload
        found = False
        for i, r in enumerate(requests):
            cluster = [q for q in requests[i:i + 12]
                       if q.t_arrival_s - r.t_arrival_s <= 0.5]
            if len(cluster) >= 6 and len({q.workload for q in cluster}) <= 2:
                found = True
                break
        assert found

    def test_deadlines_in_range(self):
        spec = TraceSpec(kind="diurnal", duration_s=30.0)
        for r in generate_trace(spec):
            assert spec.deadline_lo_s <= r.deadline_s <= spec.deadline_hi_s


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(HarnessError):
            TraceSpec(kind="linear")

    def test_unknown_workload(self):
        with pytest.raises(HarnessError):
            TraceSpec(workloads=("MM", "XX"))

    def test_bad_rate_and_duration(self):
        with pytest.raises(HarnessError):
            TraceSpec(duration_s=0.0)
        with pytest.raises(HarnessError):
            TraceSpec(mean_rate_hz=-1.0)
        # Non-finite values would hang the arrival walk or fail deep in
        # the column generator; they are rejected at construction.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(HarnessError, match="finite"):
                TraceSpec(duration_s=bad)
            with pytest.raises(HarnessError, match="finite"):
                TraceSpec(mean_rate_hz=bad)

    def test_bad_deadlines(self):
        with pytest.raises(HarnessError):
            TraceSpec(deadline_lo_s=10.0, deadline_hi_s=5.0)
        # An infinite budget drew deadline_s=inf (and a NaN hold window).
        for lo, hi in ((1.0, float("inf")), (float("inf"), float("inf")),
                       (float("nan"), 5.0), (1.0, float("nan"))):
            with pytest.raises(HarnessError):
                TraceSpec(deadline_lo_s=lo, deadline_hi_s=hi)

    def test_canonical_round_trip_stability(self):
        spec = TraceSpec(kind="bursty", duration_s=45.5, seed=3)
        assert spec.canonical() == TraceSpec(
            kind="bursty", duration_s=45.5, seed=3).canonical()
        assert spec.canonical() != TraceSpec(
            kind="bursty", duration_s=45.5, seed=4).canonical()


class TestColumnarForm:
    """The columnar form is the element-for-element twin of the scalar
    oracle under the same seed - the dispatch loop's input contract."""

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    @pytest.mark.parametrize("seed", (1, 7, 2016))
    def test_columns_match_scalar_trace(self, kind, seed):
        spec = TraceSpec(kind=kind, duration_s=30.0, mean_rate_hz=3.0,
                         seed=seed)
        requests = generate_trace(spec)
        t, w, d = trace_columns(spec)
        assert len(t) == len(w) == len(d) == len(requests)
        for i, r in enumerate(requests):
            assert float(t[i]) == r.t_arrival_s
            assert spec.workloads[int(w[i])] == r.workload
            assert float(d[i]) == r.deadline_s

    def test_dtypes_and_order(self):
        spec = TraceSpec(kind="bursty", duration_s=40.0, mean_rate_hz=4.0)
        t, w, d = trace_columns(spec)
        assert t.dtype == np.float64
        assert w.dtype == np.uint16
        assert d.dtype == np.float64
        assert np.all(np.diff(t) >= 0.0)

    @pytest.mark.parametrize("chunk_size", (1, 7, 10 ** 6))
    def test_chunks_tile_the_trace(self, tmp_path, monkeypatch, chunk_size):
        """The dispatch loop hands the columns on in chunks of at most
        ``DEFAULT_CHUNK_SIZE`` rows that tile the trace in order."""
        spec = TraceSpec(kind="bursty", duration_s=30.0, mean_rate_hz=3.0,
                         workloads=("MM", "RT"), seed=5)
        fleet = FleetSpec(n_nodes=4, tick_mode="fast", seed=9)
        engine = ExecutionEngine(cache=ResultCache(str(tmp_path)))
        monkeypatch.setattr(dispatcher, "DEFAULT_CHUNK_SIZE", chunk_size)
        loop = dispatcher._DispatchLoop(fleet, spec, "round_robin", engine,
                                        None)
        chunks = list(loop.chunks())
        t, w, d = trace_columns(spec)
        assert all(0 < len(c) <= chunk_size for c in chunks)
        assert [c.start for c in chunks] == list(
            range(0, len(t), chunk_size))
        assert np.array_equal(np.concatenate([c.req_id for c in chunks]),
                              np.arange(len(t)))
        assert np.array_equal(
            np.concatenate([c.t_arrival_s for c in chunks]), t)
        assert np.array_equal(
            np.concatenate([c.workload_idx for c in chunks]), w)
        assert np.array_equal(
            np.concatenate([c.deadline_s for c in chunks]), d)


def _assert_columns_equal_scalar(spec):
    requests = generate_trace(spec)
    t, w, d = trace_columns(spec)
    assert len(t) == len(requests)
    assert np.array_equal(
        t, np.fromiter((r.t_arrival_s for r in requests), np.float64))
    assert np.array_equal(
        d, np.fromiter((r.deadline_s for r in requests), np.float64))
    assert [spec.workloads[i] for i in w.tolist()] == [
        r.workload for r in requests]
    return requests


class TestColumnsAtBlockScale:
    """The columnar form draws the Mersenne Twister stream in blocks of
    ``BLOCK_WORDS`` words; rows, bursts and rejection chains that span
    a block boundary must come out exactly as the scalar draws do.

    ``min_words`` bounds the words a trace of ``n`` requests consumes
    from below: a background row takes two for its arrival, at least
    one for its workload and two for its deadline (a diurnal row also
    two for its thinning draw), a burst item four, a wave row none.
    """

    @pytest.mark.parametrize("kind,duration_s,rate_hz,workloads,min_words", [
        ("bursty", 100.0, 250.0, ("MB", "MM", "RT", "BS"),
         lambda n: 4 * n),
        ("diurnal", 100.0, 150.0, ("MM", "RT", "SM"), lambda n: 7 * n),
        ("diurnal", 80.0, 200.0, ("BS",), lambda n: 7 * n),
        ("adversarial", 100.0, 1000.0, ("MB", "MM", "RT", "BS", "SM"),
         lambda n: 5 * (n - 80000)),
    ], ids=("bursty", "diurnal", "diurnal-one-workload", "adversarial"))
    @pytest.mark.parametrize("seed", (3, 2016))
    def test_columns_match_scalar_across_blocks(self, kind, duration_s,
                                                rate_hz, workloads,
                                                min_words, seed):
        spec = TraceSpec(kind=kind, duration_s=duration_s,
                         mean_rate_hz=rate_hz, workloads=workloads,
                         seed=seed)
        requests = _assert_columns_equal_scalar(spec)
        # The case really crosses at least two block boundaries.
        assert min_words(len(requests)) > 2 * BLOCK_WORDS

    def test_duplicate_workload_names_keep_last_index(self):
        spec = TraceSpec(kind="bursty", duration_s=60.0, mean_rate_hz=40.0,
                         workloads=("MM", "RT", "MM"), seed=8)
        _assert_columns_equal_scalar(spec)
        _, w, _ = trace_columns(spec)
        assert set(w.tolist()) == {1, 2}

    @pytest.mark.parametrize("seed", (1, 5, 2016))
    def test_bursts_straddling_the_end(self, seed):
        """Bursts with ``epoch + window >= duration`` drop their
        out-of-range items together with those items' deadline draws;
        the rows after them must stay aligned."""
        spec = TraceSpec(kind="bursty", duration_s=1.0, mean_rate_hz=300.0,
                         workloads=("MB", "MM", "RT", "BS"), seed=seed)

        class Recorder(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.uniforms = []

            def uniform(self, a, b):
                value = super().uniform(a, b)
                self.uniforms.append((a, b, value))
                return value

        rng = Recorder(spec.seed)
        reference_trace._bursty(spec, rng)
        straddling = dropped = 0
        epoch = None
        for a, b, value in rng.uniforms:
            if (a, b) == (0.0, spec.duration_s):
                epoch = value
                straddling += (epoch + reference_trace._BURST_WINDOW_S
                               >= spec.duration_s)
            elif (a, b) == (0.0, reference_trace._BURST_WINDOW_S):
                dropped += epoch + value >= spec.duration_s
        assert straddling >= 2 and dropped >= 1
        _assert_columns_equal_scalar(spec)


class TestColumnSort:
    """``trace_columns`` orders rows by arrival time and, among equal
    times, by generation order (the scalar form's ``(t, order)`` sort)."""

    def test_ties_keep_generation_order(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 40, size=5000).astype(np.float64)
        cols = trace_module._Columns()
        cols.add(t=t, w=np.arange(5000) % 7, d=np.arange(5000.0))
        t_sorted, w_sorted, d_sorted = cols.sorted()
        expected = sorted(range(5000), key=lambda i: (t[i], i))
        assert np.array_equal(d_sorted, np.asarray(expected, np.float64))
        assert np.array_equal(t_sorted, t[expected])
        assert np.array_equal(w_sorted, (np.arange(5000) % 7)[expected])

    def test_distinct_times(self):
        t = np.random.default_rng(5).random(3000) * 100.0
        cols = trace_module._Columns()
        cols.add(t=t, w=np.zeros(3000), d=np.arange(3000.0))
        t_sorted, _, d_sorted = cols.sorted()
        assert np.array_equal(t_sorted, np.sort(t))
        assert np.array_equal(d_sorted, np.argsort(t, kind="stable"))
