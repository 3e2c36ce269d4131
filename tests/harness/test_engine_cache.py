"""Cache-correctness tests for the content-addressed result cache.

Three contracts:

1. **key sensitivity** - the cache key moves when any RunSpec field
   or the schema version changes, so no spec can ever be served
   another spec's result;
2. **integrity** - corrupted or truncated entries are detected via
   checksum, evicted, and recomputed, never trusted;
3. **bypass** - ``--no-cache`` (engine without a cache) neither reads
   nor writes.
"""

import dataclasses
import os
import pickle

import pytest

from repro.harness import engine as engine_mod
from repro.harness.cli import _make_cache
from repro.harness.engine import (
    _MAGIC,
    ExecutionEngine,
    ResultCache,
    RunResult,
    RunSpec,
    SchedulerSpec,
    execute_spec,
    get_default_engine,
    set_default_engine,
    use_engine,
)
from repro.harness.suite import get_characterization
from repro.soc.spec import baytrail_tablet, haswell_desktop


@pytest.fixture
def base_spec():
    return RunSpec(platform=haswell_desktop(), workload="MB",
                   scheduler=SchedulerSpec.static(0.5))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "runs"))


class TestKeySensitivity:
    def test_key_is_deterministic(self, base_spec):
        clone = RunSpec(platform=haswell_desktop(), workload="MB",
                        scheduler=SchedulerSpec.static(0.5))
        assert base_spec.cache_key() == clone.cache_key()

    @pytest.mark.parametrize("override", [
        {"platform": baytrail_tablet()},
        {"workload": "BS"},
        {"scheduler": SchedulerSpec.static(0.6)},
        {"scheduler": SchedulerSpec.eas()},
        {"scheduler": SchedulerSpec.perf()},
        {"tablet": True},
        {"fault_level": 0.25},
        {"seed": 1},
        {"params": (("alpha", 0.9),)},
        {"observe": True},
    ])
    def test_any_field_change_moves_the_key(self, base_spec, override):
        changed = dataclasses.replace(base_spec, **override)
        assert changed.cache_key() != base_spec.cache_key()

    def test_scheduler_overrides_move_the_key(self, base_spec):
        from repro.core.scheduler import SchedulerConfig

        tweaked = dataclasses.replace(
            base_spec,
            scheduler=SchedulerSpec.eas(
                config=SchedulerConfig(profile_fraction=0.2)))
        plain = dataclasses.replace(base_spec,
                                    scheduler=SchedulerSpec.eas())
        assert tweaked.cache_key() != plain.cache_key()

    def test_schema_version_moves_the_key(self, base_spec, monkeypatch):
        before = base_spec.cache_key()
        monkeypatch.setattr(engine_mod, "CACHE_SCHEMA_VERSION",
                            engine_mod.CACHE_SCHEMA_VERSION + 1)
        assert base_spec.cache_key() != before

    def test_metric_name_moves_eas_key(self, base_spec):
        edp = dataclasses.replace(base_spec,
                                  scheduler=SchedulerSpec.eas("edp"))
        energy = dataclasses.replace(base_spec,
                                     scheduler=SchedulerSpec.eas("energy"))
        assert edp.cache_key() != energy.cache_key()


class TestIntegrity:
    def _seed_entry(self, cache, key="k" * 64):
        cache.put(key, RunResult(key=key, payload={"x": 1.5}))
        return key, cache.path_for(key)

    def test_round_trip(self, cache):
        key, _ = self._seed_entry(cache)
        result = cache.get(key)
        assert result is not None
        assert result.payload == {"x": 1.5}
        assert result.from_cache is False  # set by the engine, not get()

    def test_truncated_entry_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_flipped_byte_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_wrong_magic_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "wb") as fh:
            fh.write(b"not a cache entry")
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_checksummed_but_non_result_pickle_rejected(self, cache):
        import hashlib

        key = "k" * 64
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = pickle.dumps({"not": "a RunResult"})
        with open(path, "wb") as fh:
            fh.write(_MAGIC + hashlib.sha256(data).digest() + data)
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_eviction_emits_metric_and_warning(self, cache):
        """Evict-on-corruption is never silent: it bumps the
        ``cache.corrupt_evictions`` counter and warns with the key."""
        from repro.obs.observer import Observer

        observer = Observer()
        cache.observer = observer
        key, path = self._seed_entry(cache)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.warns(RuntimeWarning,
                          match=f"evicted corrupt entry {key}"):
            assert cache.get(key) is None
        counters = observer.metrics.snapshot()["counters"]
        assert counters["cache.corrupt_evictions"] == 1.0

    def test_run_batch_attaches_observer_to_cache(self, cache):
        from repro.obs.observer import Observer

        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        engine.run_batch([spec])
        path = cache.path_for(spec.cache_key())
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        observer = Observer()
        with pytest.warns(RuntimeWarning, match="evicted corrupt entry"):
            engine.run_batch([spec], observer=observer)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["cache.corrupt_evictions"] == 1.0

    def test_corrupted_entry_recomputed_through_engine(self, cache):
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        reference = engine.run_batch([spec])[0]
        path = cache.path_for(spec.cache_key())
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        recomputed = engine.run_batch([spec])[0]
        assert recomputed.from_cache is False
        assert (recomputed.payload.canonical()
                == reference.payload.canonical())
        # ...and the repaired entry is served on the next lookup.
        assert engine.run_batch([spec])[0].from_cache is True


class TestBypass:
    def test_no_cache_flag_yields_no_cache(self, tmp_path):
        import argparse

        args = argparse.Namespace(no_cache=True,
                                  cache_dir=str(tmp_path))
        assert _make_cache(args) is None
        args = argparse.Namespace(no_cache=False,
                                  cache_dir=str(tmp_path))
        built = _make_cache(args)
        assert isinstance(built, ResultCache)
        assert built.root == os.path.join(str(tmp_path), "runs")

    def test_engine_without_cache_touches_no_disk(self, tmp_path,
                                                  monkeypatch):
        # Even with REPRO_CACHE_DIR pointing somewhere, an engine built
        # with cache=None must not read or write run results there.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=None)
        result = engine.run_batch([spec])[0]
        assert result.from_cache is False
        assert not os.path.exists(os.path.join(str(tmp_path), "runs"))
        # Nor may characterizing a fresh platform under it (the
        # ``--no-cache`` run's engine) leave anything behind.
        fresh = dataclasses.replace(baytrail_tablet(), name="no-cache-tablet")
        with use_engine(engine):
            get_characterization(fresh, sweep_step=0.1)
        assert os.listdir(str(tmp_path)) == []

    def test_no_cache_ignores_poisoned_entries(self, cache):
        """A cache-less engine cannot be poisoned: plant a wrong entry
        under the spec's key and verify the engine recomputes."""
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        truth = execute_spec(spec)
        cache.put(spec.cache_key(),
                  RunResult(key=spec.cache_key(), payload="poison"))
        without = ExecutionEngine(jobs=1, cache=None).run_batch([spec])[0]
        assert without.payload.canonical() == truth.payload.canonical()
        withc = ExecutionEngine(jobs=1, cache=cache).run_batch([spec])[0]
        assert withc.payload == "poison"  # proves the cache *was* live


class TestDefaultEngine:
    def test_use_engine_scopes_and_restores(self):
        baseline = get_default_engine()
        scoped = ExecutionEngine(jobs=2)
        with use_engine(scoped):
            assert get_default_engine() is scoped
        restored = get_default_engine()
        assert restored is not scoped
        assert restored.jobs == baseline.jobs

    def test_set_default_engine_none_falls_back(self):
        set_default_engine(None)
        engine = get_default_engine()
        assert engine.jobs == 1

    def test_default_engine_cache_follows_env(self, tmp_path,
                                              monkeypatch):
        set_default_engine(None)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert get_default_engine().cache is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = get_default_engine().cache
        assert cache is not None
        assert cache.root == os.path.join(str(tmp_path), "runs")

    def test_batch_deduplicates_identical_specs(self, cache):
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        results = engine.run_batch([spec, spec, spec])
        assert cache.writes == 1
        assert results[0] is results[1] is results[2]
