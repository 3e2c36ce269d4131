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
from repro.errors import HarnessError
from repro.harness import chaos, engine, suite
from repro.harness.engine import SchedulerSpec
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
                             fault_levels=(0.0,), metric=metric,
                             eas_config=config)


@pytest.mark.usefixtures("no_simulation")
@pytest.mark.parametrize("entry, workload, metric, config", [
    (_sweep, TaggedCC(), EDP, None),
    (_suite, TaggedCC(), EDP, None),
    (_suite, workload_by_abbrev("CC"), CUSTOM_METRIC, None),
    (_suite, workload_by_abbrev("CC"), EDP, TunedConfig()),
    (_chaos, TaggedCC(), EDP, None),
    (_chaos, workload_by_abbrev("CC"), CUSTOM_METRIC, None),
    (_chaos, workload_by_abbrev("CC"), EDP, TunedConfig()),
], ids=["sweep-workload", "suite-workload", "suite-metric", "suite-config",
        "chaos-workload", "chaos-metric", "chaos-config"])
def test_entry_points_reject_before_simulating(desktop, entry, workload,
                                               metric, config):
    with pytest.raises(HarnessError):
        entry(desktop, workload, metric, config)
