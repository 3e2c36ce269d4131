"""What a RunSpec can describe, checked before anything simulates.

Workers rebuild workloads, metrics and scheduler configs from a spec's
names and fields, so anything those cannot carry - a subclassed or
mutated workload, a custom objective, a ``SchedulerConfig`` subclass -
must raise :class:`HarnessError` in the submitting process rather than
run as something else in a worker.
"""

from dataclasses import dataclass

import pytest

from repro.core.metrics import EDP, EnergyMetric
from repro.core.scheduler import SchedulerConfig
from repro.errors import HarnessError, UnknownNameError
from repro.harness import chaos, engine, suite
from repro.harness.engine import (
    KIND_APPLICATION,
    KIND_CHAOS_BASELINE,
    KIND_CHAOS_CELL,
    KIND_CLASSIFICATION,
    KIND_FLEET_CELL,
    KIND_MICROBENCH_TIMELINE,
    RunSpec,
    SchedulerSpec,
)
from repro.soc.spec import baytrail_tablet
from repro.workloads.connected_components import ConnectedComponents
from repro.workloads.registry import workload_by_abbrev


class TaggedCC(ConnectedComponents):
    """A subclassed ``"CC"``: a worker would run the registry CC."""


@dataclass
class TunedConfig(SchedulerConfig):
    """A config subclass with a field no SchedulerSpec carries."""

    extra_knob: float = 1.0


CUSTOM_METRIC = EnergyMetric(name="battery", custom_fn=lambda p, t: p * t)


@pytest.mark.parametrize("metric, config", [
    (EnergyMetric(name="edp", delay_exponent=3.0), None),
    (CUSTOM_METRIC, None),
    ("edp", TunedConfig(extra_knob=2.0)),
], ids=["edp-named-ed2", "custom-fn", "config-subclass"])
def test_scheduler_spec_eas_rejects_what_workers_cannot_rebuild(metric,
                                                                config):
    with pytest.raises(HarnessError):
        SchedulerSpec.eas(metric, config)


@pytest.fixture
def no_simulation(monkeypatch):
    """Any simulation fails loudly: the guards must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating the inputs")
    monkeypatch.setattr(engine, "run_application", refuse)
    monkeypatch.setattr(engine, "execute_spec", refuse)


def _sweep(desktop, workload, metric, config):
    suite.sweep_alphas(desktop, workload)


def _suite(desktop, workload, metric, config):
    suite.evaluate_suite(desktop, [workload_by_abbrev("MB"), workload],
                         metric, eas_config=config)


def _chaos(desktop, workload, metric, config):
    chaos.run_chaos_campaign(desktop, [workload_by_abbrev("MB"), workload],
                             fault_levels=(0.0,))


@pytest.mark.usefixtures("no_simulation")
@pytest.mark.parametrize("entry, workload, metric, config", [
    (_sweep, TaggedCC(), EDP, None),
    (_suite, TaggedCC(), EDP, None),
    (_suite, workload_by_abbrev("CC"), CUSTOM_METRIC, None),
    (_suite, workload_by_abbrev("CC"), EDP, TunedConfig()),
    (_chaos, TaggedCC(), EDP, None),
], ids=["sweep-workload", "suite-workload", "suite-metric", "suite-config",
        "chaos-workload"])
def test_entry_points_reject_before_simulating(desktop, entry, workload,
                                               metric, config):
    with pytest.raises(HarnessError):
        entry(desktop, workload, metric, config)


def test_registry_kinds_reject_unknown_workloads(desktop):
    """Kinds whose worker rebuilds the workload from the registry check
    the name when the spec is built."""
    for kind in (KIND_APPLICATION, KIND_CHAOS_CELL,
                 KIND_CHAOS_BASELINE, KIND_FLEET_CELL):
        with pytest.raises(HarnessError, match="XYZ"):
            RunSpec(platform=desktop, kind=kind,
                    workload="XYZ", scheduler=SchedulerSpec.cpu())


def test_classification_spec_rejects_unknown_workload(desktop):
    with pytest.raises(UnknownNameError, match="XYZ"):
        RunSpec(platform=desktop, kind=KIND_CLASSIFICATION, workload="XYZ")


@pytest.mark.parametrize("points", [None, 0, -60, 2.5, float("nan"),
                                    float("inf")])
def test_timeline_spec_needs_positive_integer_points(desktop, points):
    """A timeline spec names how many points its figure plots; without
    them the worker would have no resampling interval."""
    params = (("alpha", 0.5),)
    if points is not None:
        params += (("points", points),)
    with pytest.raises(HarnessError, match="points"):
        RunSpec(platform=desktop, kind=KIND_MICROBENCH_TIMELINE,
                workload="M-LL", params=params)


@pytest.mark.parametrize("level", [float("nan"), -0.5, 1.5, float("inf")])
def test_run_spec_rejects_fault_levels_outside_unit_interval(desktop, level):
    """A NaN or negative level would run silently fault-free and one
    above 1 would fail only inside the worker."""
    with pytest.raises(HarnessError, match="fault level"):
        RunSpec(platform=desktop, workload="BS", scheduler=SchedulerSpec.cpu(),
                fault_level=level)


@pytest.mark.parametrize("alpha", [float("nan"), -0.1, 2.0])
def test_static_scheduler_spec_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(HarnessError, match="outside"):
        SchedulerSpec.static(alpha)


def test_run_spec_refuses_a_workload_the_tablet_cannot_build():
    """BFS has no 32-bit tablet build; the spec fails, not its worker."""
    with pytest.raises(HarnessError, match="32-bit tablet"):
        RunSpec(platform=baytrail_tablet(), workload="BFS",
                scheduler=SchedulerSpec.cpu(), tablet=True)


@pytest.mark.parametrize("kind", ["cpu", "gpu", "perf", "eas", "race"])
def test_scheduler_spec_refuses_alpha_outside_static(kind):
    with pytest.raises(HarnessError, match="alpha"):
        SchedulerSpec(kind=kind, alpha=0.5)


def test_eas_scheduler_spec_refuses_unknown_metric():
    with pytest.raises(HarnessError, match="unknown metric"):
        SchedulerSpec(kind="eas", metric="speed")

