"""Gang execution: model-identity grouping, sharing safety, teardown.

The engine executes specs in *gangs* - batches grouped by platform
model identity (:func:`repro.soc.vector.model_identity`) that share one
:class:`~repro.soc.vector.VectorCore` of bit-stable model memos.  These
tests pin the edge cases: a single-spec batch, refusal to gang mixed
platforms, interrupt teardown through the ganged pool path, and cache
keys that distinguish every tick mode.
"""

import time

import pytest

from repro.errors import HarnessError
from repro.harness import engine as engine_mod
from repro.harness.engine import (
    ExecutionEngine,
    RunSpec,
    SchedulerSpec,
    SpecGang,
    _gang_positions,
    execute_gang,
    execute_spec,
)
from repro.soc.spec import TICK_MODES, baytrail_tablet, haswell_desktop


def _spec(platform=None, seed=0, alpha=0.5, **kwargs):
    return RunSpec(platform=platform or haswell_desktop(),
                   workload="MB", scheduler=SchedulerSpec.static(alpha),
                   seed=seed, **kwargs)


class TestSpecGang:
    def test_single_member(self):
        gang = SpecGang.of([_spec()])
        assert len(gang) == 1

    def test_empty_refused(self):
        with pytest.raises(HarnessError):
            SpecGang.of([])

    def test_mixed_platforms_refused(self):
        with pytest.raises(HarnessError) as excinfo:
            SpecGang.of([_spec(haswell_desktop()), _spec(baytrail_tablet())])
        # The refusal names the colliding platforms.
        message = str(excinfo.value)
        assert haswell_desktop().name in message
        assert baytrail_tablet().name in message

    def test_mixed_tick_modes_of_one_platform_allowed(self):
        # Tick mode is stepping strategy, not model identity: exact and
        # fast siblings gang together.
        gang = SpecGang.of([
            _spec(haswell_desktop(tick_mode=mode)) for mode in TICK_MODES
        ])
        assert len(gang) == len(TICK_MODES)

    def test_gang_positions_preserve_order(self):
        desktop, tablet = haswell_desktop(), baytrail_tablet()
        specs = [_spec(desktop, seed=0), _spec(tablet, seed=1),
                 _spec(desktop, seed=2), _spec(tablet, seed=3)]
        assert _gang_positions(specs) == [[0, 2], [1, 3]]


class TestGangExecution:
    def test_execute_gang_matches_ungang(self):
        """Sharing a core must not change any member's payload."""
        specs = [_spec(seed=1, alpha=0.3), _spec(seed=1, alpha=0.7)]
        ganged = execute_gang(SpecGang.of(specs))
        solo = [execute_spec(spec) for spec in specs]
        for g, s in zip(ganged, solo):
            assert g.key == s.key
            assert g.payload.canonical() == s.payload.canonical()

    def test_single_spec_batch_through_parallel_engine(self):
        """jobs>1 with one pending spec takes the serial gang path and
        still produces the reference result."""
        spec = _spec(seed=7)
        parallel = ExecutionEngine(jobs=4).run_batch([spec])
        serial = ExecutionEngine(jobs=1).run_batch([spec])
        assert len(parallel) == 1
        assert parallel[0].payload.canonical() == serial[0].payload.canonical()

    def test_mixed_platform_batch_splits_into_gangs(self):
        """Desktop and tablet specs in one pooled batch land in
        separate gangs; results come back in submission order."""
        specs = [_spec(haswell_desktop(), seed=0),
                 _spec(baytrail_tablet(), seed=1, tablet=True),
                 _spec(haswell_desktop(), seed=2)]
        results = ExecutionEngine(jobs=2).run_batch(specs)
        reference = ExecutionEngine(jobs=1).run_batch(specs)
        assert [r.key for r in results] == [r.key for r in reference]
        for got, want in zip(results, reference):
            assert got.payload.canonical() == want.payload.canonical()


def _first_chunk_raises(gang):
    """Stand-in for ``execute_gang``: the chunk holding seed 0 raises,
    every other chunk hangs (module-level so pool workers can unpickle
    it by qualified name)."""
    if any(spec.seed == 0 for spec in gang.specs):
        raise KeyboardInterrupt()
    time.sleep(120.0)


class TestGangInterrupt:
    def test_keyboard_interrupt_tears_down_gang_pool(self, monkeypatch):
        """A KeyboardInterrupt in one ganged chunk must kill the batch
        promptly instead of waiting out every queued gang."""
        monkeypatch.setattr(engine_mod, "execute_gang", _first_chunk_raises)
        engine = ExecutionEngine(jobs=2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            engine._run_pool([_spec(seed=i) for i in range(4)])
        assert time.monotonic() - start < 30.0


class TestCacheKeysAcrossModes:
    def test_tick_modes_hash_distinct(self):
        keys = {
            _spec(haswell_desktop(tick_mode=mode)).cache_key()
            for mode in TICK_MODES
        }
        assert len(keys) == len(TICK_MODES)
