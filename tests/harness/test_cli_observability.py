"""CLI observability flags and the unified experiment/name lookups.

``--run WL --trace/--metrics-out`` must produce files the schema
validator accepts; ``--fault-level``/``--seed`` must plumb through to
the fault substrate; and every name lookup (``--figure``,
``--experiment``, metrics, workloads) must fail with the same typed
error carrying did-you-mean suggestions.
"""

import json

import pytest

from repro.core.metrics import metric_by_name
from repro.errors import (
    HarnessError,
    SchedulingError,
    UnknownNameError,
    WorkloadError,
    closest_names,
)
from repro.harness.cli import main
from repro.harness.figures import experiment_id
from repro.obs.validate import validate_file
from repro.workloads.registry import workload_by_abbrev


class TestTraceAndMetricsFlags:
    def test_trace_and_metrics_files_validate(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        assert main(["--run", "MM", "--strategies", "eas",
                     "--trace", trace, "--metrics-out", metrics]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert validate_file(trace) == "chrome-trace"
        assert validate_file(metrics) == "metrics"

    def test_trace_has_one_process_per_strategy(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(["--run", "MM", "--strategies", "cpu,eas",
                     "--trace", trace]) == 0
        with open(trace) as fh:
            events = json.load(fh)["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"cpu", "eas"}

    def test_metrics_are_prefixed_per_strategy(self, tmp_path, capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["--run", "MM", "--strategies", "cpu,eas",
                     "--metrics-out", metrics]) == 0
        with open(metrics) as fh:
            payload = json.load(fh)
        counters = payload["metrics"]["counters"]
        assert counters["eas/eas.invocations"] >= 1
        assert counters["cpu/runtime.invocations"] >= 1
        assert "eas.invocations" not in counters  # always prefixed

    def test_metadata_records_the_run_parameters(self, tmp_path, capsys):
        metrics = str(tmp_path / "m.json")
        assert main(["--run", "MM", "--strategies", "eas", "--seed", "7",
                     "--fault-level", "0.2",
                     "--metrics-out", metrics]) == 0
        with open(metrics) as fh:
            meta = json.load(fh)["metadata"]
        assert meta["workload"] == "MM"
        assert meta["seed"] == 7
        assert meta["fault_level"] == 0.2

    def test_fault_level_injects_faults(self, capsys):
        assert main(["--run", "MM", "--strategies", "eas",
                     "--fault-level", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fault-level=0.5" in out

    def test_figure_metrics_count_the_engine_and_cache(self, tmp_path,
                                                       capsys):
        """``figure --metrics-out`` snapshots the engine's counters: a
        warm rerun executes nothing and reads back what the cold run
        wrote."""
        counters = []
        for run in ("cold", "warm"):
            metrics = str(tmp_path / f"{run}.json")
            assert main(["--figure", "4", "--cache-dir", str(tmp_path),
                         "--metrics-out", metrics]) == 0
            assert validate_file(metrics) == "metrics"
            with open(metrics) as fh:
                counters.append(json.load(fh)["metrics"]["counters"])
        cold, warm = counters
        assert cold["engine/engine.executed"] == 1
        assert warm["engine/engine.executed"] == 0
        assert warm["engine/engine.cache_hits"] == 1
        assert warm["engine/cache.bytes_read"] == cold[
            "engine/cache.bytes_written"]

    def test_observability_flags_require_run_mode(self):
        with pytest.raises(HarnessError, match="require --run"):
            main(["--figure", "9", "--trace", "/tmp/nope.json"])
        with pytest.raises(HarnessError, match="require --run"):
            main(["--list", "--fault-level", "0.5"])


class TestUnifiedExperimentIds:
    def test_number_fign_and_case_normalize(self):
        assert experiment_id("9") == "fig9"
        assert experiment_id("fig9") == "fig9"
        assert experiment_id("FIG9") == "fig9"
        assert experiment_id("Table1") == "table1"

    def test_experiment_flag_accepts_bare_number(self, capsys):
        assert main(["--experiment", "2"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_figure_flag_accepts_name(self, capsys):
        assert main(["--figure", "fig2"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_unknown_experiment_suggests(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            experiment_id("table99")
        with pytest.raises(HarnessError):
            experiment_id("table99")  # same typed error, harness flavor


class TestDidYouMeanLookups:
    def test_unknown_metric(self):
        with pytest.raises(UnknownNameError, match="edp"):
            metric_by_name("edpp")
        # The unified error is catchable as the layer's native type.
        with pytest.raises(SchedulingError):
            metric_by_name("edpp")

    def test_unknown_workload(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            workload_by_abbrev("CCC")
        with pytest.raises(WorkloadError):
            workload_by_abbrev("CCC")

    def test_closest_names_ranks_by_similarity(self):
        candidates = ["energy", "edp", "ed2"]
        assert closest_names("edpp", candidates)[0] == "edp"
        assert closest_names("enrgy", candidates)[0] == "energy"
        assert closest_names("zzz", candidates) == ()

    def test_suggestions_attached_to_error(self):
        try:
            workload_by_abbrev("MN")
        except UnknownNameError as exc:
            assert "MM" in exc.suggestions or "NB" in exc.suggestions
        else:
            pytest.fail("lookup should have raised")
