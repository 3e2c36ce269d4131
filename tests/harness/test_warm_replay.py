"""Warm figures replay what they plot.

Figs. 2-4 cache each timeline as the resampled series and statistics
the figure prints, and Table 1 caches each workload's classification
and invocation count.  A warm regeneration is then pure cache hits: it
executes no spec, builds no processor, generates no workload input, and
renders exactly the cold text.
"""

import io
import os
import pickle

import pytest

from repro.harness.engine import (
    _MAGIC,
    ExecutionEngine,
    ResultCache,
    use_engine,
)
from repro.harness.figures import regenerate
from repro.obs.observer import Observer
from repro.soc.simulator import IntegratedProcessor
from repro.workloads.registry import _workload_classes

FIGURES = ("fig2", "fig3", "fig4", "table1")
#: Engine specs behind FIGURES: 2 + 2 + 1 timelines, 12 classifications.
SPECS = 17
#: A cached entry is what a figure reads, not a trace (fig4's trace
#: pickled to about 1.25 MB).
MAX_ENTRY_BYTES = 20_000


class _ClassRecorder(pickle.Unpickler):
    """Unpickles a blob, noting every class it references."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add(name)
        return super().find_class(module, name)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """The four experiments regenerated into a fresh cache."""
    runs = str(tmp_path_factory.mktemp("replay-cache") / "runs")
    with use_engine(ExecutionEngine(jobs=1, cache=ResultCache(runs))):
        texts = {fid: regenerate(fid).render() for fid in FIGURES}
    return runs, texts


def _cached_entries(runs):
    for folder, _, names in os.walk(runs):
        for name in names:
            with open(os.path.join(folder, name), "rb") as fh:
                yield fh.read()


def test_warm_pass_is_pure_replay(cold, monkeypatch):
    runs, cold_texts = cold

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm figure simulated or built inputs")

    monkeypatch.setattr(IntegratedProcessor, "__init__", forbidden)
    for cls in _workload_classes().values():
        monkeypatch.setattr(cls, "invocations", forbidden)
    observer = Observer()
    engine = ExecutionEngine(jobs=1, cache=ResultCache(runs),
                             observer=observer)
    with use_engine(engine):
        warm_texts = {fid: regenerate(fid).render() for fid in FIGURES}
    counters = observer.metrics.snapshot()["counters"]
    assert counters["engine.executed"] == 0
    assert counters["engine.cache_hits"] == SPECS
    assert warm_texts == cold_texts


def test_cached_timelines_hold_no_trace(cold):
    runs, _ = cold
    classes_per_entry = []
    for blob in _cached_entries(runs):
        assert blob.startswith(_MAGIC)
        assert len(blob) <= MAX_ENTRY_BYTES
        recorder = _ClassRecorder(blob[len(_MAGIC) + 32:])
        recorder.load()
        classes_per_entry.append(recorder.classes)
    assert len(classes_per_entry) == SPECS
    timelines = [c for c in classes_per_entry if "TimelineSummary" in c]
    assert len(timelines) == 5
    for classes in classes_per_entry:
        assert "TraceSample" not in classes
        assert "PowerTrace" not in classes
