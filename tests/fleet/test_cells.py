"""What a fleet cell caches: scalars, a count and one fingerprint line.

A ``FleetCellProfile`` formats its fingerprint line once, in the worker,
from the run's full invocation list, and keeps only that line and the
invocation count: the cached pickle holds no ``InvocationResult`` and
no ``DecisionRecord``.  The oracle below is the line's formula applied
to the full list, as it was when the profile carried that list.
"""

import glob
import io
import pickle

import pytest

from repro.fleet import FleetSpec
from repro.fleet.dispatcher import _run_cell_batch
from repro.harness import experiment
from repro.harness.engine import _MAGIC, ExecutionEngine, ResultCache


def _oracle_canonical(platform, platform_kind, workload, tick_mode, time_s,
                      energy_j, final_alpha, invocations):
    alpha = "" if final_alpha is None else repr(final_alpha)
    return (f"{platform}|{platform_kind}|{workload}"
            f"|{tick_mode}|{time_s!r}|{energy_j!r}"
            f"|{alpha}|{invocations}")


class _ClassRecorder(pickle.Unpickler):
    """Unpickles a blob, noting every class it references."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add(name)
        return super().find_class(module, name)


FLEET = FleetSpec(n_nodes=2, desktop_fraction=1.0, tick_mode="fast",
                  seed=3)


@pytest.fixture(scope="module")
def cold_cell(tmp_path_factory):
    """One desktop BS cell, simulated into a fresh cache, with the
    full run the worker built it from."""
    root = str(tmp_path_factory.mktemp("cell-cache"))
    runs = []
    real = experiment.run_application

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "run_application", recording)
        profiles, executed = _run_cell_batch(
            FLEET, [("desktop", "BS")],
            ExecutionEngine(jobs=1, cache=ResultCache(root)), None)
    assert executed == 1 and len(runs) == 1
    return root, profiles[("desktop", "BS")], runs[0]


class TestCellPayload:
    def test_invocations_is_the_count(self, cold_cell):
        _, cell, run = cold_cell
        assert type(cell.invocations) is int
        assert cell.invocations == len(run.invocations) > 0

    def test_canonical_is_the_full_list_formula(self, cold_cell):
        _, cell, run = cold_cell
        assert cell.canonical() == _oracle_canonical(
            FLEET.platform_spec("desktop").name, "desktop", "BS", "fast",
            run.time_s, run.energy_j, run.final_alpha, run.invocations)

    def test_cached_pickle_holds_no_records(self, cold_cell):
        root, _, _ = cold_cell
        (path,) = glob.glob(f"{root}/*/*.pkl")
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(_MAGIC)
        recorder = _ClassRecorder(blob[len(_MAGIC) + 32:])
        recorder.load()
        assert "FleetCellProfile" in recorder.classes
        assert not {"InvocationResult", "DecisionRecord"} & recorder.classes

    def test_warm_read_keeps_the_line(self, cold_cell):
        root, cell, _ = cold_cell
        profiles, executed = _run_cell_batch(
            FLEET, [("desktop", "BS")],
            ExecutionEngine(jobs=1, cache=ResultCache(root)), None)
        assert executed == 0
        warm = profiles[("desktop", "BS")]
        assert warm.canonical() == cell.canonical()
        assert warm == cell
