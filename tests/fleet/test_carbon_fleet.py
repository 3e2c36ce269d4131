"""Carbon-aware fleet dispatch: pricing, temporal shifting, streaming.

Streaming with carbon and deferral is locked to the oracle in
``tests/fleet/test_stream.py`` (``TestCarbonStream``).

The dispatcher prices each request's energy at the grid intensity of
its start time (in the serving node's region) and, when the trace
marks requests deferrable, holds them toward the lowest-intensity
sample inside their slack window.  See docs/OBJECTIVES.md.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import HarnessError
from repro.fleet.dispatcher import (
    _DEFERRAL_SAMPLES,
    _dispatch_times,
    dispatch_stream,
    run_fleet,
)
from repro.fleet.topology import FleetSpec
from repro.fleet.trace import TraceSpec, trace_columns
from repro.soc.carbon import CarbonSpec

#: One short diurnal carbon period so a 60 s trace sees full swings.
CARBON = CarbonSpec(period_s=60.0)
FLEET = FleetSpec(n_nodes=8, desktop_fraction=0.5, tick_mode="fast",
                  carbon=CARBON)
TRACE = TraceSpec(kind="diurnal", duration_s=60.0, mean_rate_hz=1.0,
                  workloads=("MB", "BS"))
SHIFTED_TRACE = replace(TRACE, deferral_fraction=0.8)


@pytest.fixture(scope="module")
def unshifted():
    return run_fleet(FLEET, TRACE, policy="energy_aware")


@pytest.fixture(scope="module")
def shifted():
    return run_fleet(FLEET, SHIFTED_TRACE, policy="energy_aware")


class TestCarbonPricing:
    def test_every_outcome_is_priced(self, unshifted):
        assert unshifted.outcomes
        for outcome in unshifted.outcomes:
            assert outcome.carbon_g is not None
            assert outcome.carbon_g > 0.0

    def test_total_is_the_sum(self, unshifted):
        assert unshifted.total_carbon_g == pytest.approx(
            sum(o.carbon_g for o in unshifted.outcomes))

    def test_pricing_uses_start_time_and_region(self, unshifted):
        signal = CARBON.trace()
        for outcome in unshifted.outcomes[:20]:
            expected = signal.grams(outcome.energy_j, outcome.t_start_s,
                                    outcome.node_index)
            assert outcome.carbon_g == pytest.approx(expected)

    def test_carbon_blind_fleet_prices_nothing(self):
        result = run_fleet(replace(FLEET, carbon=None), TRACE,
                           policy="energy_aware")
        assert all(o.carbon_g is None for o in result.outcomes)
        assert result.total_carbon_g == 0.0
        with pytest.raises(HarnessError):
            result.low_carbon_energy_fraction()

    def test_render_reports_carbon(self, shifted):
        text = shifted.render()
        assert "g CO2" in text
        assert "low-carbon energy" in text


class TestTemporalShifting:
    def test_deferral_never_starts_before_arrival(self, shifted):
        for outcome in shifted.outcomes:
            assert outcome.t_start_s >= outcome.t_arrival_s

    def test_some_requests_actually_deferred(self, shifted):
        deferred = [r for r in shifted.placement_records
                    if any(n.startswith("deferred:") for n in r.notes)]
        assert deferred

    def test_latency_measured_from_original_arrival(self, shifted):
        """Deferral eats the deadline budget: latency anchors to the
        arrival the request came in with, not the shifted dispatch."""
        for outcome in shifted.outcomes:
            assert outcome.latency_s >= \
                outcome.t_complete_s - outcome.t_start_s - 1e-9

    def test_shifting_moves_energy_into_low_carbon_windows(self, shifted):
        """The acceptance bar: >= 20% of deferrable-request energy
        lands in below-median-intensity windows on the diurnal trace."""
        assert shifted.low_carbon_energy_fraction() >= 0.20

    def test_shifting_does_not_increase_total_carbon(self, shifted,
                                                     unshifted):
        assert shifted.total_carbon_g <= unshifted.total_carbon_g * 1.001

    def test_unshifted_trace_has_no_deferral_slack(self):
        t, _, d = trace_columns(TRACE)
        assert _dispatch_times(t, d, TRACE.deferral_fraction,
                               CARBON.trace()) is t

    def test_deferrable_slack_is_fraction_of_deadline(self):
        # Every dispatch instant is one of the evenly spaced samples of
        # [arrival, arrival + 0.8 * deadline].
        t, _, d = trace_columns(SHIFTED_TRACE)
        released = _dispatch_times(t, d, 0.8, CARBON.trace())
        k = np.arange(_DEFERRAL_SAMPLES, dtype=np.float64)
        instants = (t[:, None]
                    + (0.8 * d)[:, None] * k / (_DEFERRAL_SAMPLES - 1))
        assert np.all((instants == released[:, None]).any(axis=1))
        assert np.any(released > t)


class TestDeterminism:
    def test_rerun_fingerprints_are_byte_identical(self, shifted):
        again = run_fleet(FLEET, SHIFTED_TRACE, policy="energy_aware")
        assert again.fingerprint() == shifted.fingerprint()

    def test_carbon_keys_the_fingerprint(self, unshifted):
        other = run_fleet(
            replace(FLEET, carbon=replace(CARBON, seed=7)), TRACE,
            policy="energy_aware")
        assert other.fingerprint() != unshifted.fingerprint()

    def test_deferral_keys_the_fingerprint(self, shifted, unshifted):
        assert shifted.fingerprint() != unshifted.fingerprint()


class TestStreamingGate:
    def test_dispatch_stream_fine_without_carbon(self):
        result = dispatch_stream(replace(FLEET, carbon=None),
                                 replace(TRACE, duration_s=10.0))
        assert result.n_requests > 0
