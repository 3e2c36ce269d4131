"""Warm characterization from the result cache, and trace CSV export."""

import dataclasses

from repro.core.characterization import PowerCharacterizer
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.harness.suite import get_characterization
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.trace import write_csv
from repro.soc.work import CostProfile, WorkRegion
from repro.workloads.microbench import standard_microbenches


class TestWarmCharacterization:
    def test_filled_cache_replaces_sweeps(self, tablet, tmp_path):
        """A platform the memo has not seen characterizes from a
        filled ``runs/`` cache: no sweep executes, all eight hit."""
        spec = dataclasses.replace(tablet, name="warm-cache-tablet")
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "runs")))
        filled = PowerCharacterizer(
            microbenches=standard_microbenches(), sweep_step=0.1,
            spec=spec).characterize(engine)
        assert (engine.cache.writes, engine.cache.hits) == (8, 0)

        warm = get_characterization(spec, sweep_step=0.1, engine=engine)
        assert (engine.cache.writes, engine.cache.hits) == (8, 8)
        assert warm.curves.keys() == filled.curves.keys()
        for category, curve in filled.curves.items():
            assert warm.curve_for(category).coefficients == \
                curve.coefficients


class TestTraceCsv:
    def test_roundtrip_columns(self, desktop, compute_cost, tmp_path):
        processor = IntegratedProcessor(desktop, trace_enabled=True)
        region = WorkRegion.for_span(CostProfile(compute_cost), 50_000.0,
                                     0.0, 50_000.0)
        processor.run_phase(PhaseRequest(cost=compute_cost,
                                         cpu_region=region, gpu_region=None))
        path = str(tmp_path / "trace.csv")
        rows = write_csv(processor.trace, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",")[0] == "t_s"
        assert len(lines) == rows + 1
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[2]) > 0.0  # package watts

    def test_empty_trace(self, tmp_path):
        from repro.soc.trace import PowerTrace

        path = str(tmp_path / "empty.csv")
        assert write_csv(PowerTrace(), path) == 0
