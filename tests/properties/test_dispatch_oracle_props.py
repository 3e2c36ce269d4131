"""Property suite: the fleet's one dispatch loop against its oracle.

``run_fleet`` and ``dispatch_stream`` consume the same chunked loop;
the oracle is the per-request scalar loop it replaced
(``tests/fleet/reference_dispatch.py``).  Over small fleets, every
policy, every trace family, repeated workload names, carbon pricing
with and without deferral, and chunk sizes (``DEFAULT_CHUNK_SIZE``,
patched) from one request to the whole trace, ``run_fleet`` must
reproduce the oracle's fingerprint and ``dispatch_stream`` the
oracle's stream digest, byte for byte.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.fleet import (
    PLACEMENT_POLICIES,
    TRACE_KINDS,
    FleetSpec,
    TraceSpec,
    dispatch_stream,
    run_fleet,
)
from repro.fleet import dispatcher
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.soc.carbon import CarbonSpec
from tests.fleet.reference_dispatch import (
    run_fleet_reference,
    stream_fingerprint,
)

#: BFS runs on desktops only, MM and RT on both classes; names may
#: repeat, so the columns' last-index convention is exercised.
WORKLOADS_ST = st.lists(st.sampled_from(("MM", "RT", "BFS")), min_size=1,
                        max_size=4).map(tuple)

#: A short carbon period so a few-second trace sees the signal swing.
CARBON = CarbonSpec(period_s=20.0)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    # One fleet seed and clock mode throughout, so the five cells
    # simulate once and every example reads them from the cache.
    cache = ResultCache(str(tmp_path_factory.mktemp("oracle-cache")))
    return ExecutionEngine(cache=cache)


@given(n_nodes=st.integers(4, 16),
       desktop_fraction=st.sampled_from((0.25, 0.4, 0.5, 0.75)),
       policy=st.sampled_from(PLACEMENT_POLICIES),
       kind=st.sampled_from(TRACE_KINDS),
       workloads=WORKLOADS_ST,
       duration_s=st.floats(2.0, 15.0),
       rate_hz=st.floats(0.5, 4.0),
       seed=st.integers(0, 2 ** 31 - 1),
       carbon=st.sampled_from((None, CARBON)),
       deferral=st.sampled_from((0.0, 0.5)),
       chunk_size=st.sampled_from((1, 7, 65536)))
@settings(max_examples=40, deadline=None)
def test_both_consumers_match_the_oracle(engine, n_nodes, desktop_fraction,
                                         policy, kind, workloads,
                                         duration_s, rate_hz, seed, carbon,
                                         deferral, chunk_size):
    fleet = FleetSpec(n_nodes=n_nodes, desktop_fraction=desktop_fraction,
                      tick_mode="fast", seed=9, carbon=carbon)
    trace = TraceSpec(kind=kind, duration_s=duration_s,
                      mean_rate_hz=rate_hz, workloads=workloads, seed=seed,
                      deferral_fraction=deferral)
    oracle = run_fleet_reference(fleet, trace, policy=policy, engine=engine)
    result = run_fleet(fleet, trace, policy=policy, engine=engine)
    assert result.fingerprint() == oracle.fingerprint()
    assert result.placement_records == oracle.placement_records
    with mock.patch.object(dispatcher, "DEFAULT_CHUNK_SIZE", chunk_size):
        streamed = dispatch_stream(fleet, trace, policy=policy,
                                   engine=engine)
    assert streamed.fingerprint() == stream_fingerprint(oracle)
    assert streamed.total_carbon_g == oracle.total_carbon_g
