import numpy as np
import pytest

import layers


def calls(tracer, name):
    return tracer.stats.get(name, (0, 0.0))[0]


def self_s(tracer, name):
    return tracer.stats[name][1]


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 4, 6, 7, 9, 10))
    tracer.begin("root")
    tracer.begin("a")
    tracer.begin("b")
    assert tracer.end() == 2
    assert tracer.end() == 5
    tracer.begin("c")
    tracer.end()
    assert tracer.end() == 10
    assert self_s(tracer, "b") == 2
    assert self_s(tracer, "a") == 3      # 5 - b's 2
    assert self_s(tracer, "c") == 2
    assert self_s(tracer, "root") == 3   # 10 - a's 5 - c's 2
    assert calls(tracer, "a") == 1
    assert [e[3] for e in tracer.events] == [2, 1, 1, 0]


def test_recursive_spans_count_self_time_once():
    tracer = layers.Tracer(clock=FakeClock(0, 1, 3, 4))
    tracer.begin("x")
    tracer.begin("x")
    tracer.end()
    tracer.end()
    assert calls(tracer, "x") == 2
    assert self_s(tracer, "x") == 4      # 2 inner + (4 - 2) outer


def test_event_cap_keeps_totals_exact():
    tracer = layers.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5), max_events=2)
    for _ in range(3):
        tracer.begin("s")
        tracer.end()
    assert len(tracer.events) == 2 and tracer.dropped == 1
    assert calls(tracer, "s") == 3 and self_s(tracer, "s") == 3


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_uninstall_restores_every_original():
    from repro.fleet import dispatcher, trace
    from repro.harness.figures import REGENERATORS
    from repro.soc.simulator import IntegratedProcessor

    run_phase = IntegratedProcessor.run_phase
    trace_columns = trace.trace_columns
    fig5 = REGENERATORS["fig5"]
    saved = layers.install(layers.Tracer())
    replaced = list(saved)
    try:
        assert IntegratedProcessor.run_phase is not run_phase
        # Names imported into other modules are patched there too.
        assert dispatcher.trace_columns is not trace_columns
        assert REGENERATORS["fig5"] is not fig5
        assert all(_current(o, a) is not v for o, a, v in replaced)
    finally:
        layers.uninstall(saved)
    assert IntegratedProcessor.run_phase is run_phase
    assert dispatcher.trace_columns is trace_columns
    assert REGENERATORS["fig5"] is fig5
    for owner, attr, original in replaced:
        assert _current(owner, attr) is original, (owner, attr)
    assert saved == []


def test_installed_wrapper_records_a_span():
    from repro.fleet.sketch import LatencySketch

    tracer = layers.Tracer()
    saved = layers.install(tracer)
    try:
        LatencySketch().add_batch(np.array([0.5, 1.5]))
    finally:
        layers.uninstall(saved)
    assert calls(tracer, "fleet.sketch_add_batch") == 1
    LatencySketch().add_batch(np.array([0.5]))
    assert calls(tracer, "fleet.sketch_add_batch") == 1


def test_layer_metrics_are_shares_of_the_traced_wall():
    span_stats = {"soc.run_phase": [4, 2.0], "bench.x": [1, 1.0]}
    out = layers.layer_metrics(span_stats, {"soc.sim_s": 8.0}, 10.0,
                               root="bench.x")
    assert out["soc.run_phase.calls"] == 4
    assert out["soc.run_phase.self_frac"] == pytest.approx(0.2)
    assert out["soc.host_us_per_phase"] == pytest.approx(5e5)
    assert out["soc.sim_s_per_host_s"] == pytest.approx(4.0)
    assert out["trace.unattributed_s"] == 1.0
    assert out["service.serve.self_frac"] == 0.0
