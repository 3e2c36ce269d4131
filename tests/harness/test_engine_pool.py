"""Pooled execution: one ``execute_spec`` task per pending spec.

The engine hands each uncached spec to the process pool as its own
task and reads the results back in submission order, so an idle worker
always takes the next pending spec.  These tests pin that handout with
an inline fake executor (no wall-clock assertion), plus the edge cases
of a real pool: a single-spec batch, a mixed desktop/tablet batch, and
cache keys that distinguish every tick mode.
"""

from concurrent.futures import Future

from repro.harness import engine as engine_mod
from repro.harness.engine import (
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
    execute_spec,
)
from repro.soc.spec import TICK_MODES, baytrail_tablet, haswell_desktop


def _spec(platform=None, seed=0, alpha=0.5, **kwargs):
    return RunSpec(platform=platform or haswell_desktop(),
                   workload="MB", scheduler=SchedulerSpec.static(alpha),
                   seed=seed, **kwargs)


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: runs each submission at
    once in this process and records what was submitted."""

    instances = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.submissions = []
        if initializer is not None:
            initializer(*initargs)
        _InlineExecutor.instances.append(self)

    def submit(self, fn, *args):
        self.submissions.append((fn, args))
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestPoolHandout:
    def test_one_submission_per_pending_spec(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_InlineExecutor, "instances", [])
        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            _InlineExecutor)
        cache = ResultCache(str(tmp_path))
        cached = _spec(seed=9)
        cache.put(cached.cache_key(), execute_spec(cached))
        pending = [_spec(haswell_desktop(), seed=0),
                   _spec(baytrail_tablet(), seed=1, tablet=True),
                   _spec(haswell_desktop(), seed=2, alpha=0.3)]
        # A cache hit and a duplicate are not handed to the pool.
        batch = [pending[0], cached, pending[1], pending[0], pending[2]]
        results = ExecutionEngine(jobs=8, cache=cache).run_batch(batch)

        (pool,) = _InlineExecutor.instances
        assert pool.max_workers == len(pending)
        assert pool.submissions == [(execute_spec, (spec,))
                                    for spec in pending]
        assert [r.key for r in results] == [s.cache_key() for s in batch]


class TestPooledBatches:
    def test_single_spec_batch_through_parallel_engine(self):
        """jobs>1 with one pending spec takes the serial path and
        still produces the reference result."""
        spec = _spec(seed=7)
        parallel = ExecutionEngine(jobs=4).run_batch([spec])
        serial = ExecutionEngine(jobs=1).run_batch([spec])
        assert len(parallel) == 1
        assert parallel[0].payload.canonical() == serial[0].payload.canonical()

    def test_mixed_platform_batch_keeps_submission_order(self):
        """Desktop and tablet specs in one pooled batch come back in
        submission order, equal to the serial reference."""
        specs = [_spec(haswell_desktop(), seed=0),
                 _spec(baytrail_tablet(), seed=1, tablet=True),
                 _spec(haswell_desktop(), seed=2)]
        results = ExecutionEngine(jobs=2).run_batch(specs)
        reference = ExecutionEngine(jobs=1).run_batch(specs)
        assert [r.key for r in results] == [r.key for r in reference]
        for got, want in zip(results, reference):
            assert got.payload.canonical() == want.payload.canonical()


class TestCacheKeysAcrossModes:
    def test_tick_modes_hash_distinct(self):
        keys = {
            _spec(haswell_desktop(tick_mode=mode)).cache_key()
            for mode in TICK_MODES
        }
        assert len(keys) == len(TICK_MODES)
