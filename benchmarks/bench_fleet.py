"""Fleet dispatch at scale: a million requests over 2000 nodes.

The streaming-dispatcher acceptance campaign (see docs/FLEET.md,
"Streaming dispatch").  The "reference" throughout is the per-request
scalar loop kept as the test oracle
(``tests/fleet/reference_dispatch.py``), not ``run_fleet`` - which
rides the same chunked loop as ``dispatch_stream``:

* **throughput** - ``dispatch_stream`` routes a
  ``$FLEET_REQUESTS``-request (default 1M) bursty trace over
  ``$FLEET_NODES`` (default 2000) mixed desktop/tablet nodes; the
  reference loop routes a ``$FLEET_REFERENCE_REQUESTS`` (default 20k)
  prefix-sized trace of the same shape.  End-to-end requests/second
  (trace generation included for both) must favor streaming by at least
  ``$FLEET_SPEED_MIN_SPEEDUP`` (default 20) on the fully vectorized
  ``round_robin`` path; ``random`` and ``least_loaded`` ratios are
  reported unasserted (``least_loaded`` stays per-request sequential
  by nature - each dispatch moves the backlog the next one reads).
  The view-reading policies (``energy_aware``, ``deadline_aware``)
  stream the reference-sized trace, also reported unasserted, and so
  does ``energy_aware_carbon``: ``energy_aware`` on the same fleet
  with a carbon signal (``CarbonSpec()``) and half of each deadline
  deferrable (``deferral_fraction=0.5``).
* **bounded memory** - tracemalloc peak per request: streaming must
  stay under a fifth of the reference's per-request footprint (it
  holds ~18 B/request of columns; the reference holds outcome +
  record objects).
* **equivalence** - on a reduced grid every policy's streaming run
  fingerprints byte-identical to the reference's stream digest
  (``stream_fingerprint``: same placement decisions, same
  timestamps), and so does the carbon-and-deferral cell, whose carbon
  total must also match the reference's to the bit.
* **policy quality** - ``energy_aware`` still beats ``random`` on
  fleet energy without missing more deadlines (reduced grid).
* **disabled observability** - the per-chunk instrumentation costs
  nothing when no observer is attached: an analytic bound in the
  style of ``bench_obs_overhead`` must stay under 1%.

Everything lands in ``BENCH_fleet.json`` (``$BENCH_FLEET_JSON``).
CI runs a reduced campaign via the same knobs; the committed JSON is
a full-scale local run.
"""

import json
import os
import time
import tracemalloc
from dataclasses import replace

from repro.fleet import dispatcher
from repro.fleet import (
    PLACEMENT_POLICIES,
    FleetSpec,
    TraceSpec,
    dispatch_stream,
    trace_columns,
)
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.soc.carbon import CarbonSpec
from tests.fleet.reference_dispatch import (
    run_fleet_reference,
    stream_fingerprint,
)

OUTPUT_PATH = os.environ.get("BENCH_FLEET_JSON", "BENCH_fleet.json")
N_REQUESTS = int(os.environ.get("FLEET_REQUESTS", "1000000"))
N_NODES = int(os.environ.get("FLEET_NODES", "2000"))
MIN_SPEEDUP = float(os.environ.get("FLEET_SPEED_MIN_SPEEDUP", "20"))
REF_REQUESTS = int(os.environ.get("FLEET_REFERENCE_REQUESTS", "20000"))

#: Streaming holds columns (~18 B/request) instead of objects
#: (hundreds of bytes each); a 5x per-request margin is conservative.
MEMORY_RATIO_MIN = 5.0

#: Arrival rate for the scaled campaign; the duration is derived so
#: duration x rate ~= the request target.
RATE_HZ = 1000.0
WORKLOADS = ("MB", "MM", "RT", "BS")

FLEET = FleetSpec(n_nodes=N_NODES, desktop_fraction=0.5,
                  tick_mode="fast", seed=2016)
TRACE = TraceSpec(kind="bursty", duration_s=N_REQUESTS / RATE_HZ,
                  mean_rate_hz=RATE_HZ, workloads=WORKLOADS, seed=2016)
REF_TRACE = TraceSpec(kind="bursty", duration_s=REF_REQUESTS / RATE_HZ,
                      mean_rate_hz=RATE_HZ, workloads=WORKLOADS,
                      seed=2016)

#: The carbon-and-deferral cell: ``energy_aware`` prices grid carbon
#: and may hold each request for half its deadline.
CARBON_POLICY = "energy_aware"
CARBON_FLEET = replace(FLEET, carbon=CarbonSpec())
CARBON_REF_TRACE = replace(REF_TRACE, deferral_fraction=0.5)

#: Reduced grid for the cross-mode equivalence lock and the policy
#: quality check: small enough that the per-request reference loop
#: runs every policy quickly.
GRID_FLEET = FleetSpec(n_nodes=64, desktop_fraction=0.5,
                       tick_mode="fast", seed=9)
GRID_TRACE = TraceSpec(kind="bursty", duration_s=2.0, mean_rate_hz=1000.0,
                       workloads=WORKLOADS, seed=9)

#: Policies streamed over the full campaign trace, then those streamed
#: over the reference-sized trace (one policy call per request).
FULL_TRACE_POLICIES = ("round_robin", "random", "least_loaded")
VIEW_POLICIES = ("energy_aware", "deadline_aware")


def _timed_stream(engine, policy, trace=TRACE, fleet=FLEET):
    started = time.perf_counter()
    result = dispatch_stream(fleet, trace, policy=policy, engine=engine)
    wall = time.perf_counter() - started
    return result, wall


def _timed_reference(engine, policy, trace=REF_TRACE, fleet=FLEET):
    started = time.perf_counter()
    result = run_fleet_reference(fleet, trace, policy=policy,
                                 engine=engine)
    wall = time.perf_counter() - started
    return result, wall


def _throughput_row(stream, stream_wall, ref, ref_wall):
    stream_rate = stream.n_requests / stream_wall
    ref_rate = ref.n_requests / ref_wall
    return {
        "stream_requests": stream.n_requests,
        "stream_req_per_s": round(stream_rate),
        "stream_wall_s": round(stream_wall, 3),
        "stream_chunks": stream.n_chunks,
        "reference_req_per_s": round(ref_rate),
        "reference_wall_s": round(ref_wall, 3),
        "speedup": round(stream_rate / ref_rate, 2),
    }


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _disabled_obs_bound_pct(engine, stream_wall_s, n_chunks):
    """Analytic bound on the disabled-observability overhead.

    With no observer the streaming loop pays one ``is not None`` guard
    at each of its handful of per-chunk hook sites (span open/close,
    five counters, two gauges, the record hand-off) - generously 16
    guards per chunk plus 8 per run.  Measure the guard cost in a
    tight loop and bound the total against the measured wall time.
    """
    obs = None
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        if obs is not None:
            pass
    t_guard = (time.perf_counter() - t0) / n
    overhead_s = (16 * n_chunks + 8) * t_guard
    return 100.0 * overhead_s / max(stream_wall_s, 1e-9)


def test_fleet_streaming_campaign(benchmark, tmp_path, monkeypatch):
    engine = ExecutionEngine(jobs=1,
                             cache=ResultCache(str(tmp_path / "runs")))

    # Warm the (class x workload) cell cache so the timed sections
    # measure dispatch, not the 8 shared cell simulations.
    warm = dispatch_stream(FLEET, REF_TRACE, policy="round_robin",
                           engine=engine)
    assert len(warm.cells) <= 2 * len(WORKLOADS)

    report = {
        "campaign": {
            "requests": None,  # measured below
            "nodes": N_NODES,
            "trace": "bursty",
            "reference_requests": None,
            "min_speedup": MIN_SPEEDUP,
        },
        "throughput": {},
        "memory": {},
        "equivalence": {},
        "observability": {},
    }

    # -- throughput: streaming full campaign vs reference prefix -------------
    def _measure():
        for policy in FULL_TRACE_POLICIES + VIEW_POLICIES:
            full = policy in FULL_TRACE_POLICIES
            st, st_wall = _timed_stream(engine, policy,
                                        TRACE if full else REF_TRACE)
            ref, ref_wall = _timed_reference(engine, policy)
            if full:
                report["campaign"]["requests"] = st.n_requests
            report["campaign"]["reference_requests"] = ref.n_requests
            report["throughput"][policy] = _throughput_row(
                st, st_wall, ref, ref_wall)
        report["throughput"]["energy_aware_carbon"] = _throughput_row(
            *_timed_stream(engine, CARBON_POLICY, CARBON_REF_TRACE,
                           CARBON_FLEET),
            *_timed_reference(engine, CARBON_POLICY, CARBON_REF_TRACE,
                              CARBON_FLEET))
        return report

    benchmark.pedantic(_measure, rounds=1, iterations=1, warmup_rounds=0)

    headline = report["throughput"]["round_robin"]
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"streaming round_robin sustained {headline['stream_req_per_s']} "
        f"req/s vs the reference's {headline['reference_req_per_s']} - "
        f"{headline['speedup']}x, below the {MIN_SPEEDUP}x floor")

    # Trace generation (the exact scalar RNG stream, kept for
    # bit-equality with the scalar generators) is the streaming
    # pipeline's floor; report the dispatch-only rate too, timed over
    # columns built before the timer starts.
    t0 = time.perf_counter()
    columns = trace_columns(TRACE)
    gen_wall = time.perf_counter() - t0
    with monkeypatch.context() as patch:
        patch.setattr(dispatcher, "trace_columns", lambda spec: columns)
        t0 = time.perf_counter()
        dispatch_stream(FLEET, TRACE, policy="round_robin", engine=engine)
        dispatch_wall = time.perf_counter() - t0
    report["throughput"]["trace_generation_s"] = round(gen_wall, 3)
    report["throughput"]["round_robin_dispatch_only_req_per_s"] = round(
        report["campaign"]["requests"] / dispatch_wall)

    # -- bounded memory ------------------------------------------------------
    stream_peak = _peak_bytes(
        lambda: dispatch_stream(FLEET, TRACE, policy="round_robin",
                                engine=engine))
    ref_peak = _peak_bytes(
        lambda: run_fleet_reference(FLEET, REF_TRACE, policy="round_robin",
                                    engine=engine))
    stream_per_req = stream_peak / report["campaign"]["requests"]
    ref_per_req = ref_peak / report["campaign"]["reference_requests"]
    report["memory"] = {
        "stream_peak_bytes": stream_peak,
        "stream_bytes_per_request": round(stream_per_req, 1),
        "reference_peak_bytes": ref_peak,
        "reference_bytes_per_request": round(ref_per_req, 1),
        "per_request_ratio": round(ref_per_req / stream_per_req, 1),
    }
    assert stream_per_req * MEMORY_RATIO_MIN < ref_per_req, (
        f"streaming holds {stream_per_req:.0f} B/request vs the "
        f"reference's {ref_per_req:.0f} - less than the required "
        f"{MEMORY_RATIO_MIN}x headroom")

    # -- cross-mode equivalence (reduced grid, every policy) -----------------
    for policy in PLACEMENT_POLICIES:
        ref = run_fleet_reference(GRID_FLEET, GRID_TRACE, policy=policy,
                                  engine=engine)
        st = dispatch_stream(GRID_FLEET, GRID_TRACE, policy=policy,
                             engine=engine)
        identical = stream_fingerprint(ref) == st.fingerprint()
        report["equivalence"][policy] = {
            "requests": ref.n_requests,
            "fingerprints_identical": identical,
        }
        assert identical, (
            f"streaming {policy} diverged from the reference on the "
            f"reduced grid - placement decisions are not identical")

    carbon_fleet = replace(GRID_FLEET, carbon=CarbonSpec())
    carbon_trace = replace(GRID_TRACE, deferral_fraction=0.5)
    ref = run_fleet_reference(carbon_fleet, carbon_trace,
                              policy=CARBON_POLICY, engine=engine)
    st = dispatch_stream(carbon_fleet, carbon_trace, policy=CARBON_POLICY,
                         engine=engine)
    identical = (stream_fingerprint(ref) == st.fingerprint()
                 and ref.total_carbon_g == st.total_carbon_g)
    report["equivalence"]["energy_aware_carbon"] = {
        "requests": ref.n_requests,
        "fingerprints_identical": identical,
    }
    assert identical, (
        "streaming energy_aware with carbon deferral diverged from the "
        "reference on the reduced grid")

    # -- policy quality (unchanged claim, streaming numbers) -----------------
    energy_aware = dispatch_stream(GRID_FLEET, GRID_TRACE,
                                   policy="energy_aware", engine=engine)
    random_result = dispatch_stream(GRID_FLEET, GRID_TRACE,
                                    policy="random", engine=engine)
    assert energy_aware.total_energy_j < random_result.total_energy_j
    assert energy_aware.miss_rate <= random_result.miss_rate
    report["equivalence"]["energy_aware_vs_random"] = {
        "energy_aware_J": round(energy_aware.total_energy_j, 1),
        "random_J": round(random_result.total_energy_j, 1),
        "saving_pct": round(
            100.0 * (1.0 - energy_aware.total_energy_j
                     / random_result.total_energy_j), 1),
    }

    # -- disabled observability bound ----------------------------------------
    bound_pct = _disabled_obs_bound_pct(
        engine, headline["stream_wall_s"], headline["stream_chunks"])
    report["observability"] = {
        "disabled_overhead_bound_pct": round(bound_pct, 4),
    }
    assert bound_pct < 1.0, (
        f"disabled-observability bound {bound_pct:.3f}% breaches the "
        f"1% contract")

    with open(OUTPUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    benchmark.extra_info.update({
        "requests": report["campaign"]["requests"],
        "nodes": N_NODES,
        "round_robin_speedup": headline["speedup"],
        "stream_req_per_s": headline["stream_req_per_s"],
        "stream_B_per_req": report["memory"]["stream_bytes_per_request"],
        "reference_B_per_req": report["memory"][
            "reference_bytes_per_request"],
    })
