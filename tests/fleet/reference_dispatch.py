"""The per-request fleet dispatch loop, kept as the test oracle.

This is the scalar loop ``run_fleet`` used to run before the fleet
grew one chunked dispatch loop (``repro.fleet.dispatcher``): one
``FleetRequest`` object in, one ``RequestOutcome`` and one
``DecisionRecord`` out, per request, in dispatch order, with a
pending-completion heap keyed ``(t_complete, dispatch seq)`` retiring
finished work before each dispatch.  It is slow and obvious on
purpose.  ``run_fleet`` must reproduce its ``fingerprint()`` and
``dispatch_stream`` its :func:`stream_fingerprint`, byte for byte
(``tests/fleet/test_stream.py``, ``tests/properties/
test_dispatch_oracle_props.py``); ``benchmarks/bench_fleet.py`` times
it as the "reference" its throughput and memory gates compare to.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HarnessError
from repro.fleet.cells import FleetCellProfile
from repro.fleet.dispatcher import (
    _DEFERRAL_SAMPLES,
    EXIT_FLEET_PLACEMENT,
    FleetResult,
    RequestOutcome,
    _ColumnDigests,
    _fold_stream_digest,
    _run_cell_batch,
)
from repro.fleet.policies import FleetView, make_policy
from repro.fleet.topology import FleetSpec
from repro.fleet.trace import FleetRequest, TraceSpec
from repro.harness.engine import ExecutionEngine, get_default_engine
from repro.obs.observer import Observer
from repro.obs.records import DecisionRecord
from repro.soc.carbon import CarbonTrace
from tests.fleet.reference_trace import generate_trace


def _deferral_start(request: FleetRequest, deferrable_s: float,
                    carbon: CarbonTrace) -> float:
    """The earliest lowest-intensity dispatch instant in the hold window.

    The deferral decision happens *before* placement (no node, hence
    no region, is known yet), so it reads the grid-operator signal -
    region 0.  Per-region accounting still prices the energy at the
    serving node's own region once placed.
    """
    if deferrable_s <= 0.0:
        return request.t_arrival_s
    best_t = request.t_arrival_s
    best_value = carbon.intensity(best_t, 0)
    for k in range(1, _DEFERRAL_SAMPLES):
        t = (request.t_arrival_s
             + deferrable_s * k / (_DEFERRAL_SAMPLES - 1))
        value = carbon.intensity(t, 0)
        if value < best_value:
            best_value = value
            best_t = t
    return best_t


def _resolve_cells(fleet: FleetSpec, requests: Sequence[FleetRequest],
                   view: FleetView, engine: ExecutionEngine,
                   observer: Optional[Observer]
                   ) -> Tuple[Dict[Tuple[str, str], FleetCellProfile], int]:
    """One engine batch covering every reachable (class, workload) cell."""
    pairs: List[Tuple[str, str]] = []
    seen = set()
    for request in requests:
        kinds = view.eligible_kinds(request.workload)
        if not kinds:
            raise HarnessError(
                f"request {request.req_id}: no node in this fleet can run "
                f"workload {request.workload!r}")
        for kind in kinds:
            if (kind, request.workload) not in seen:
                seen.add((kind, request.workload))
                pairs.append((kind, request.workload))
    pairs.sort()
    return _run_cell_batch(fleet, pairs, engine, observer)


def run_fleet_reference(fleet: FleetSpec, trace: TraceSpec,
                        policy: str = "energy_aware",
                        engine: Optional[ExecutionEngine] = None,
                        observer: Optional[Observer] = None
                        ) -> FleetResult:
    """Route ``trace`` over ``fleet`` one request at a time."""
    if engine is None:
        engine = get_default_engine()
    obs = observer if observer is not None and observer.enabled else None
    requests = generate_trace(trace)
    view = FleetView(fleet.nodes())
    placer = make_policy(policy, seed=fleet.seed)

    if obs is not None:
        span = obs.span("fleet.run", policy=policy, nodes=fleet.n_nodes,
                        trace=trace.kind, requests=len(requests))
        span.__enter__()
    profiles, executed = _resolve_cells(fleet, requests, view, engine, obs)

    outcomes: List[RequestOutcome] = []
    records: List[DecisionRecord] = []
    # Pending completions: (t_complete, dispatch seq, outcome index).
    pending: List[Tuple[float, int, int]] = []
    seq = 0

    def retire(until: float) -> None:
        while pending and pending[0][0] <= until:
            _, _, outcome_index = heapq.heappop(pending)
            outcome = outcomes[outcome_index]
            view.note_completion(
                outcome.node_index, outcome.workload,
                outcome.t_complete_s - outcome.t_start_s, outcome.energy_j)
            if obs is not None:
                obs.inc("fleet.completions")
                if outcome.missed_deadline:
                    obs.inc("fleet.deadline_misses")
                obs.observe("fleet.latency_s", outcome.latency_s)

    # Carbon-aware temporal shifting: a deferrable request may be held
    # up to ``deferral_fraction * deadline_s`` for a lower-intensity
    # window, after which it re-enters the dispatch order at its
    # *effective* time (ties on req_id - explicit-integer
    # tie-breaking, like everything here).
    # With no carbon signal the schedule is the arrival order verbatim.
    carbon = fleet.carbon.trace() if fleet.carbon is not None else None
    if carbon is not None:
        schedule = [
            (_deferral_start(
                request, trace.deferral_fraction * request.deadline_s,
                carbon), request)
            for request in requests]
        schedule.sort(key=lambda pair: (pair[0], pair[1].req_id))
    else:
        schedule = [(request.t_arrival_s, request) for request in requests]

    for t_dispatch, request in schedule:
        view.now = t_dispatch
        retire(t_dispatch)
        node_index, reason = placer.place(view, request)
        if not view.is_eligible(node_index, request.workload):
            raise HarnessError(
                f"policy {policy!r} placed {request.workload!r} on "
                f"ineligible node {view.nodes[node_index].name}")
        node = view.nodes[node_index]
        profile = profiles[(node.platform_kind, request.workload)]
        t_start = max(t_dispatch, view.free_at(node_index))
        t_complete = t_start + profile.time_s
        outcomes.append(RequestOutcome(
            req_id=request.req_id,
            workload=request.workload,
            node=node.name,
            node_index=node_index,
            platform_kind=node.platform_kind,
            t_arrival_s=request.t_arrival_s,
            t_start_s=t_start,
            t_complete_s=t_complete,
            deadline_s=request.deadline_s,
            energy_j=profile.energy_j,
            carbon_g=(carbon.grams(profile.energy_j, t_start, node_index)
                      if carbon is not None else None)))
        view.note_dispatch(node_index, request.workload, t_complete)
        heapq.heappush(pending, (t_complete, seq, len(outcomes) - 1))
        seq += 1
        notes = [f"policy:{policy}", f"node:{node.name}",
                 f"reason:{reason}",
                 f"deadline_s:{request.deadline_s:.1f}"]
        if t_dispatch > request.t_arrival_s:
            notes.append(
                f"deferred:{t_dispatch - request.t_arrival_s:.1f}s")
        records.append(DecisionRecord(
            exit_path=EXIT_FLEET_PLACEMENT,
            kernel=request.workload,
            alpha=profile.final_alpha or 0.0,
            tenant=node.name,
            sim_time_s=t_dispatch,
            notes=notes))
        if obs is not None:
            obs.inc("fleet.dispatches")
            obs.inc(f"fleet.dispatches.{node.platform_kind}")

    retire(float("inf"))

    cells = tuple(profiles[pair] for pair in sorted(profiles))
    result = FleetResult(
        fleet=fleet, trace=trace, policy=policy,
        outcomes=tuple(outcomes), cells=cells,
        placement_records=tuple(records), cells_executed=executed)
    if obs is not None:
        for record in records:
            obs.decision(record)
        obs.set_gauge("fleet.nodes", fleet.n_nodes)
        obs.observe("fleet.energy_j", result.total_energy_j)
        span.__exit__(None, None, None)
    return result


def stream_fingerprint(result: FleetResult) -> str:
    """The streaming digest computed from a result's outcomes.

    Byte-equality with ``FleetStreamResult.fingerprint()`` covers
    every placement decision and every timestamp of every request,
    in dispatch order, chunk-size independently.
    """
    n = len(result.outcomes)
    index = {w: i for i, w in enumerate(result.trace.workloads)}
    digests = _ColumnDigests()
    if n:
        digests.update(
            workload_idx=np.fromiter(
                (index[o.workload] for o in result.outcomes),
                np.uint16, n),
            t_arrival_s=np.fromiter(
                (o.t_arrival_s for o in result.outcomes), np.float64, n),
            deadline_s=np.fromiter(
                (o.deadline_s for o in result.outcomes), np.float64, n),
            node_index=np.fromiter(
                (o.node_index for o in result.outcomes), np.int32, n),
            t_start_s=np.fromiter(
                (o.t_start_s for o in result.outcomes), np.float64, n),
            t_complete_s=np.fromiter(
                (o.t_complete_s for o in result.outcomes), np.float64, n))
    return _fold_stream_digest(result.fleet, result.trace, result.policy,
                               result.cells, digests, n)
