import json
import os
import re

import layers
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
ROOT = os.path.dirname(run.HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_plain():
    names = list(run.END_TO_END) + list(
        layers.per_layer_spec(workloads.FIGURES))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == \
        layers.per_layer_spec(workloads.FIGURES)


def test_every_output_has_a_recorded_fingerprint():
    recorded = run.load_fingerprints()
    assert set(recorded["figures"]) == set(workloads.FIGURES)
    assert set(recorded["fleet_dispatch"]) == {
        op[0] for op in workloads.FLEET_OPS}
    assert set(recorded["service_jobs"]) == {"campaign"}
