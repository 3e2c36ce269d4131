"""The global dispatcher: an event-driven loop over the arrival trace.

Two phases, both deterministic:

1. **Cell resolution.**  Every (platform class, workload) pair the
   trace could touch becomes one ``fleet-cell``
   :class:`~repro.harness.engine.RunSpec`, submitted as a single
   engine batch - parallel under ``--jobs N``, deduped by the
   content-addressed cache, byte-identical serial vs pooled (the
   engine's own guarantee).  A thousand-node fleet costs as many
   simulations as it has distinct cells.

2. **Dispatch.**  Requests replay in arrival order; a pending-completion
   heap (keyed ``(t_complete, dispatch seq)``) retires finished work
   before each arrival, so placement policies observe exactly the
   completions a real-time dispatcher would have seen.  Placement
   reads only the :class:`~repro.fleet.policies.FleetView`; the
   simulated execution itself is the phase-1 profile (per-node EAS
   stays black-box).

Determinism contract (docs/FLEET.md): same
(:class:`~repro.fleet.topology.FleetSpec`,
:class:`~repro.fleet.trace.TraceSpec`, policy) in, byte-identical
:meth:`FleetResult.fingerprint` out - on reruns, across ``--jobs N``,
and across processes.  Every tie anywhere (equal arrival times, equal
backlogs, equal completion instants) breaks on an explicit integer
(request id, node index, dispatch sequence), never on iteration
order of a hash container.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HarnessError
from repro.fleet.cells import FleetCellProfile
from repro.fleet.mtstream import MTStream
from repro.fleet.policies import (
    PLACEMENT_POLICIES,
    RANDOM_POLICY_SALT,
    FleetView,
    make_policy,
)
from repro.fleet.sketch import LatencySketch
from repro.fleet.topology import FleetSpec
from repro.fleet.trace import (
    DEFAULT_CHUNK_SIZE,
    FleetRequest,
    TraceSpec,
    trace_columns,
)
from repro.harness.engine import (
    KIND_FLEET_CELL,
    ExecutionEngine,
    RunSpec,
    SchedulerSpec,
    get_default_engine,
)
from repro.harness.report import format_table, heading
from repro.obs.observer import Observer
from repro.obs.records import DecisionRecord
from repro.soc.carbon import CarbonTrace

#: ``exit_path`` tag on fleet placement decision records (the node-
#: level records keep the scheduler's own Fig.-7 exit paths).
EXIT_FLEET_PLACEMENT = "fleet-placement"

#: The two dispatch implementations :func:`run_fleet` selects between.
#: ``reference`` is the original per-request loop (one RequestOutcome
#: object per request); ``streaming`` is the chunked columnar pipeline
#: (bounded memory, identical placement decisions - see
#: docs/FLEET.md, "Streaming dispatch").
DISPATCH_MODES: Tuple[str, ...] = ("reference", "streaming")

#: Streaming mode keeps one DecisionRecord per this many requests...
DEFAULT_SAMPLE_STRIDE = 1000
#: ...plus every anomalous (deadline-missing) request, capped here so
#: record memory stays bounded on pathological traces.  Exact match
#: counters are kept alongside (nothing is lost silently).
MAX_SAMPLED_RECORDS = 10_000

#: Fixed platform-class order used by the streaming lookup tables
#: (index 0 = desktop, 1 = tablet, same order everywhere).
_PLATFORM_ORDER: Tuple[str, ...] = ("desktop", "tablet")


@dataclass(frozen=True)
class RequestOutcome:
    """One routed request, end to end, on the fleet clock."""

    req_id: int
    workload: str
    #: Stable node id (``<kind>-<index>``), also on the decision record.
    node: str
    node_index: int
    platform_kind: str
    t_arrival_s: float
    t_start_s: float
    t_complete_s: float
    #: Relative latency budget the request arrived with.
    deadline_s: float
    #: Software-visible energy of the node-level run, joules.
    energy_j: float
    #: Grams of CO2 this request's energy cost, weighted by the grid
    #: intensity at ``t_start_s`` in the serving node's region; None
    #: on carbon-blind fleets.
    carbon_g: Optional[float] = None

    @property
    def latency_s(self) -> float:
        return self.t_complete_s - self.t_arrival_s

    @property
    def missed_deadline(self) -> bool:
        return self.latency_s > self.deadline_s

    def canonical(self) -> str:
        base = (f"{self.req_id}|{self.workload}|{self.node}"
                f"|{self.t_arrival_s!r}|{self.t_start_s!r}"
                f"|{self.t_complete_s!r}|{self.deadline_s!r}"
                f"|{self.energy_j!r}")
        # Appended only on carbon-aware fleets so carbon-blind
        # fingerprints keep their pre-existing byte form.
        if self.carbon_g is not None:
            base += f"|co2={self.carbon_g!r}"
        return base


@dataclass
class FleetResult:
    """One policy's routing of one trace over one fleet."""

    fleet: FleetSpec
    trace: TraceSpec
    policy: str
    outcomes: Tuple[RequestOutcome, ...]
    #: Distinct cell profiles the dispatch drew on, sorted by
    #: (platform_kind, workload).
    cells: Tuple[FleetCellProfile, ...]
    #: Per-request placement audit records (node-id tagged); excluded
    #: from the fingerprint, same contract as chaos decision records.
    placement_records: Tuple[DecisionRecord, ...] = ()
    #: Engine executions vs cache recalls for the cell batch.
    cells_executed: int = 0

    # -- accounting --------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.outcomes)

    @property
    def total_energy_j(self) -> float:
        """Busy (active-execution) energy across the fleet, joules -
        the quantity placement actually moves."""
        return sum(o.energy_j for o in self.outcomes)

    @property
    def makespan_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return max(o.t_complete_s for o in self.outcomes)

    @property
    def idle_energy_estimate_j(self) -> float:
        """Fleet idle-floor energy over the makespan: every node burns
        its spec idle power whenever not executing.  Reported apart
        from :attr:`total_energy_j` because for a fixed fleet and
        horizon it is (near-)policy-invariant - folding it into the
        headline number would only dilute the placement signal."""
        horizon = self.makespan_s
        busy_by_node: Dict[int, float] = {}
        for outcome in self.outcomes:
            busy_by_node[outcome.node_index] = (
                busy_by_node.get(outcome.node_index, 0.0)
                + (outcome.t_complete_s - outcome.t_start_s))
        idle_power = {
            kind: self.fleet.platform_spec(kind).idle_power_w
            for kind in ("desktop", "tablet")}
        total = 0.0
        for node in self.fleet.nodes():
            busy = busy_by_node.get(node.index, 0.0)
            total += idle_power[node.platform_kind] * max(
                0.0, horizon - busy)
        return total

    @property
    def total_carbon_g(self) -> float:
        """Carbon mass across the fleet, grams (0 on carbon-blind
        fleets, where no outcome carries a carbon figure)."""
        return sum(o.carbon_g for o in self.outcomes
                   if o.carbon_g is not None)

    def low_carbon_energy_fraction(self) -> float:
        """Of the *deferrable* requests' energy, the fraction spent in
        below-median-intensity windows (median of each serving
        region's signal over the trace horizon).

        The acceptance number for carbon-aware shifting: a
        carbon-blind dispatch of a diurnal trace lands roughly half
        the deferrable energy below the median; temporal shifting
        should push that fraction well above it.  Raises on
        carbon-blind fleets (there is no signal to measure against).
        """
        if self.fleet.carbon is None:
            raise HarnessError(
                "low_carbon_energy_fraction needs a carbon-aware fleet")
        signal = self.fleet.carbon.trace()
        horizon = max(self.trace.duration_s, self.makespan_s)
        medians = [signal.median_intensity(horizon, region)
                   for region in range(self.fleet.carbon.n_regions)]
        deferrable = total = 0.0
        for o in self.outcomes:
            if self.trace.deferral_fraction * o.deadline_s <= 0.0:
                continue
            total += o.energy_j
            if (signal.intensity(o.t_start_s, o.node_index)
                    < medians[o.node_index % self.fleet.carbon.n_regions]):
                deferrable += o.energy_j
        return deferrable / total if total else 0.0

    @property
    def deadline_misses(self) -> int:
        return sum(1 for o in self.outcomes if o.missed_deadline)

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.n_requests if self.outcomes else 0.0

    @property
    def mean_latency_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.latency_s for o in self.outcomes) / len(self.outcomes)

    def latency_percentile_s(self, pct: float) -> float:
        """Nearest-rank percentile of request latency."""
        if not self.outcomes:
            return 0.0
        ordered = sorted(o.latency_s for o in self.outcomes)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def dispatches_by_kind(self) -> Dict[str, int]:
        counts = {"desktop": 0, "tablet": 0}
        for outcome in self.outcomes:
            counts[outcome.platform_kind] += 1
        return counts

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over specs, policy, cells, and every outcome."""
        lines = [
            f"fleet|{self.fleet.canonical()}",
            f"trace|{self.trace.canonical()}",
            f"policy|{self.policy}",
        ]
        lines.extend(f"cell|{c.canonical()}" for c in self.cells)
        lines.extend(o.canonical() for o in self.outcomes)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def stream_fingerprint(self) -> str:
        """The streaming-mode digest computed from these outcomes.

        Byte-equality with :meth:`FleetStreamResult.fingerprint` is
        the cross-mode differential lock: it covers every placement
        decision and every timestamp of every request, chunk-size
        independently.
        """
        n = len(self.outcomes)
        index = {w: i for i, w in enumerate(self.trace.workloads)}
        digests = _ColumnDigests()
        if n:
            digests.update(
                workload_idx=np.fromiter(
                    (index[o.workload] for o in self.outcomes),
                    np.uint16, n),
                t_arrival_s=np.fromiter(
                    (o.t_arrival_s for o in self.outcomes), np.float64, n),
                deadline_s=np.fromiter(
                    (o.deadline_s for o in self.outcomes), np.float64, n),
                node_index=np.fromiter(
                    (o.node_index for o in self.outcomes), np.int32, n),
                t_start_s=np.fromiter(
                    (o.t_start_s for o in self.outcomes), np.float64, n),
                t_complete_s=np.fromiter(
                    (o.t_complete_s for o in self.outcomes), np.float64, n))
        return _fold_stream_digest(self.fleet, self.trace, self.policy,
                                   self.cells, digests, n)

    def render(self) -> str:
        kinds = self.dispatches_by_kind()
        rows = [
            ("requests", f"{self.n_requests}"),
            ("nodes", f"{self.fleet.n_nodes} "
                      f"({self.fleet.desktop_fraction:.0%} desktop)"),
            ("distinct cells", f"{len(self.cells)} "
                               f"({self.cells_executed} executed, rest "
                               f"cached/deduped)"),
            ("dispatches", f"desktop={kinds['desktop']} "
                           f"tablet={kinds['tablet']}"),
            ("fleet energy (busy)", f"{self.total_energy_j:.1f} J"),
            ("idle-floor estimate", f"{self.idle_energy_estimate_j:.1f} J "
                                    f"over {self.makespan_s:.1f} s"),
            ("mean latency", f"{self.mean_latency_s:.2f} s"),
            ("p95 latency", f"{self.latency_percentile_s(95):.2f} s"),
            ("deadline misses", f"{self.deadline_misses} "
                                f"({self.miss_rate:.1%})"),
        ]
        if self.fleet.carbon is not None:
            rows.append(("fleet carbon", f"{self.total_carbon_g:.2f} g "
                                         f"CO2"))
            if self.trace.deferral_fraction > 0.0:
                rows.append((
                    "low-carbon energy",
                    f"{self.low_carbon_energy_fraction():.1%} of "
                    f"deferrable energy below median intensity"))
        return "\n".join([
            heading(f"Fleet dispatch: policy={self.policy}, "
                    f"trace={self.trace.kind}"),
            format_table(["quantity", "value"], rows),
            "",
            f"fingerprint: {self.fingerprint()}",
        ])


@dataclass
class FleetComparisonResult:
    """Several policies routing the *same* trace over the same fleet."""

    fleet: FleetSpec
    trace: TraceSpec
    results: Tuple[FleetResult, ...]

    def result(self, policy: str) -> FleetResult:
        for result in self.results:
            if result.policy == policy:
                return result
        raise HarnessError(f"no result for policy {policy!r}")

    def fingerprint(self) -> str:
        lines = [f"{r.policy}|{r.fingerprint()}" for r in self.results]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def render(self) -> str:
        rows = []
        for r in self.results:
            kinds = r.dispatches_by_kind()
            rows.append((
                r.policy, r.n_requests, f"{r.total_energy_j:.1f}",
                f"{r.mean_latency_s:.2f}",
                f"{r.latency_percentile_s(95):.2f}",
                f"{r.deadline_misses} ({r.miss_rate:.1%})",
                f"{kinds['desktop']}/{kinds['tablet']}",
            ))
        n_requests = self.results[0].n_requests if self.results else 0
        return "\n".join([
            heading(f"Fleet policy comparison: {self.fleet.n_nodes} nodes, "
                    f"{self.trace.kind} trace, "
                    f"{n_requests} requests"),
            format_table(
                ["policy", "reqs", "energy (J)", "mean lat (s)",
                 "p95 lat (s)", "misses", "desktop/tablet"], rows),
            "",
            f"fingerprint: {self.fingerprint()}",
        ])


# -- the dispatch loop -----------------------------------------------------------

#: Candidate hold instants evaluated per deferrable request: evenly
#: spaced over ``[arrival, arrival + deferrable_s]``, ties earliest.
_DEFERRAL_SAMPLES = 17


def _deferral_start(request: FleetRequest, carbon: CarbonTrace) -> float:
    """The earliest lowest-intensity dispatch instant in the hold window.

    The deferral decision happens *before* placement (no node, hence
    no region, is known yet), so it reads the grid-operator signal -
    region 0.  Per-region accounting still prices the energy at the
    serving node's own region once placed.
    """
    if request.deferrable_s <= 0.0:
        return request.t_arrival_s
    best_t = request.t_arrival_s
    best_value = carbon.intensity(best_t, 0)
    for k in range(1, _DEFERRAL_SAMPLES):
        t = (request.t_arrival_s
             + request.deferrable_s * k / (_DEFERRAL_SAMPLES - 1))
        value = carbon.intensity(t, 0)
        if value < best_value:
            best_value = value
            best_t = t
    return best_t


def _run_cell_batch(fleet: FleetSpec, pairs: Sequence[Tuple[str, str]],
                    engine: ExecutionEngine, observer: Optional[Observer]
                    ) -> Tuple[Dict[Tuple[str, str], FleetCellProfile], int]:
    """One engine batch over sorted (class, workload) cell pairs."""
    specs = [
        RunSpec(platform=fleet.platform_spec(kind), workload=workload,
                scheduler=SchedulerSpec.eas(metric=fleet.metric),
                kind=KIND_FLEET_CELL, tablet=(kind == "tablet"),
                seed=fleet.seed)
        for kind, workload in pairs]
    results = engine.run_batch(specs, observer=observer)
    executed = sum(1 for r in results if not r.from_cache)
    return ({pair: result.payload for pair, result in zip(pairs, results)},
            executed)


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


def run_fleet(fleet: FleetSpec, trace: TraceSpec,
              policy: str = "energy_aware",
              engine: Optional[ExecutionEngine] = None,
              observer: Optional[Observer] = None,
              dispatch_mode: str = "reference",
              chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Route ``trace`` over ``fleet`` under one placement policy.

    ``dispatch_mode`` selects the implementation: ``reference`` (the
    original per-request loop, returns :class:`FleetResult`) or
    ``streaming`` (the chunked columnar pipeline, returns
    :class:`FleetStreamResult`).  Both make byte-identical placement
    decisions; see :meth:`FleetResult.stream_fingerprint`.
    """
    if dispatch_mode not in DISPATCH_MODES:
        raise HarnessError(
            f"unknown dispatch_mode {dispatch_mode!r}; expected one of "
            f"{DISPATCH_MODES}")
    if dispatch_mode == "streaming":
        return dispatch_stream(fleet, trace, policy=policy, engine=engine,
                               observer=observer, chunk_size=chunk_size)
    if engine is None:
        engine = get_default_engine()
    obs = observer if observer is not None and observer.enabled else None
    requests = trace.requests()
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
    # up to its deferrable_s for a lower-intensity window, after which
    # it re-enters the dispatch order at its *effective* time (ties on
    # req_id - explicit-integer tie-breaking, like everything here).
    # With no carbon signal the schedule is the arrival order verbatim.
    carbon = fleet.carbon.trace() if fleet.carbon is not None else None
    if carbon is not None:
        schedule = [(_deferral_start(request, carbon), request)
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


def compare_fleet_policies(fleet: FleetSpec, trace: TraceSpec,
                           policies: Sequence[str] = PLACEMENT_POLICIES,
                           engine: Optional[ExecutionEngine] = None,
                           observer: Optional[Observer] = None,
                           dispatch_mode: str = "reference",
                           chunk_size: int = DEFAULT_CHUNK_SIZE
                           ) -> FleetComparisonResult:
    """Route the same trace under each policy (cells resolve once -
    the engine cache dedupes across policies)."""
    results = tuple(
        run_fleet(fleet, trace, policy=policy, engine=engine,
                  observer=observer, dispatch_mode=dispatch_mode,
                  chunk_size=chunk_size)
        for policy in policies)
    return FleetComparisonResult(fleet=fleet, trace=trace, results=results)


# -- streaming dispatch ----------------------------------------------------------
#
# The reference loop above materializes one RequestOutcome and one
# DecisionRecord per request and sorts every latency at the end -
# O(requests) objects, hopeless at millions of requests.  The
# streaming pipeline below routes the same trace from its chunked
# columnar form (repro.fleet.trace.trace_columns): vectorized
# placement for the stateless policies, round-major FIFO scheduling,
# bucketed completion retirement for the stateful ones, and streaming
# accounting (quantile sketch, incremental column fingerprints,
# sampled decision records).  Placement decisions and per-request
# timestamps are byte-identical to the reference loop; the
# cross-mode lock is FleetResult.stream_fingerprint() ==
# FleetStreamResult.fingerprint().

#: Column schema of the streaming fingerprint: (name, little-endian
#: dtype) in fixed order.  Each column hashes its raw bytes across
#: chunks, so the digest is chunk-size independent.
_STREAM_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("workload_idx", "<u2"),
    ("t_arrival_s", "<f8"),
    ("deadline_s", "<f8"),
    ("node_index", "<i4"),
    ("t_start_s", "<f8"),
    ("t_complete_s", "<f8"),
)


class _ColumnDigests:
    """One running sha256 per outcome column (order-preserving)."""

    def __init__(self) -> None:
        self._hashers = {name: hashlib.sha256()
                         for name, _ in _STREAM_COLUMNS}

    def update(self, **columns: np.ndarray) -> None:
        for name, dtype in _STREAM_COLUMNS:
            block = np.ascontiguousarray(columns[name], dtype=dtype)
            self._hashers[name].update(block.tobytes())

    def lines(self) -> List[str]:
        return [f"col|{name}|{self._hashers[name].hexdigest()}"
                for name, _ in _STREAM_COLUMNS]


def _fold_stream_digest(fleet: FleetSpec, trace: TraceSpec, policy: str,
                        cells: Tuple[FleetCellProfile, ...],
                        digests: "_ColumnDigests", n_requests: int) -> str:
    lines = [
        f"fleet|{fleet.canonical()}",
        f"trace|{trace.canonical()}",
        f"policy|{policy}",
        "mode|stream-v1",
    ]
    lines.extend(f"cell|{c.canonical()}" for c in cells)
    lines.extend(digests.lines())
    lines.append(f"n|{n_requests}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class _BucketRetirement:
    """K-way merge retirement: per-node FIFO queues + a heap of heads.

    A node completes its queue in dispatch order (per-node
    ``t_complete`` is nondecreasing), so the globally earliest pending
    completion is always one of the per-node queue heads.  A heap over
    at most ``n_nodes`` heads therefore replays the reference loop's
    ``(t_complete, seq)`` pop order exactly - equal instants break on
    the dispatch sequence, seq is unique - while per-request cost
    drops from heap churn over all in-flight work to one deque append.
    """

    def __init__(self, n_nodes: int) -> None:
        self._queues: List[deque] = [deque() for _ in range(n_nodes)]
        #: (t_complete, seq, node index) per non-empty queue head.
        self._heads: List[Tuple[float, int, int]] = []

    def push(self, node: int, t_complete: float, seq: int,
             payload: Tuple) -> None:
        queue = self._queues[node]
        queue.append((t_complete, seq, payload))
        if len(queue) == 1:
            heapq.heappush(self._heads, (t_complete, seq, node))

    def pop_until(self, until: float) -> Iterator[Tuple[int, Tuple]]:
        while self._heads and self._heads[0][0] <= until:
            _, _, node = heapq.heappop(self._heads)
            queue = self._queues[node]
            _, _, payload = queue.popleft()
            if queue:
                heapq.heappush(self._heads,
                               (queue[0][0], queue[0][1], node))
            yield node, payload


def _fifo_schedule(arrivals: np.ndarray, service: np.ndarray,
                   nodes_ch: np.ndarray, node_slots: np.ndarray,
                   free_at: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-node FIFO scheduling, bit-exact vs the loop.

    Requests arrive in chunk order; each node serves its own requests
    FIFO (``t_start = max(arrival, free_at)``).  Grouping by node and
    processing round-major (every node's r-th request in one block)
    performs the exact same float max/add per request as the scalar
    loop - only batched - so start/complete times match to the bit.
    ``free_at`` is the :class:`FleetView`'s slot array, indexed through
    ``node_slots``; grouping stays in node order, where round-robin
    chunks arrive nearly sorted.  Mutates ``free_at`` in place.
    """
    m = len(arrivals)
    t_start = np.empty(m, dtype=np.float64)
    t_complete = np.empty(m, dtype=np.float64)
    if m == 0:
        return t_start, t_complete
    order = np.argsort(nodes_ch, kind="stable")
    sorted_nodes = nodes_ch[order]
    new_segment = np.empty(m, dtype=bool)
    new_segment[0] = True
    new_segment[1:] = sorted_nodes[1:] != sorted_nodes[:-1]
    segment_id = np.cumsum(new_segment) - 1
    segment_start = np.flatnonzero(new_segment)
    rank = np.arange(m, dtype=np.int64) - segment_start[segment_id]
    by_round = np.argsort(rank, kind="stable")
    counts = np.bincount(rank)
    offset = 0
    for count in counts:
        sel = order[by_round[offset:offset + count]]
        offset += count
        nd = node_slots[nodes_ch[sel]]  # one request per node per round
        start = np.maximum(arrivals[sel], free_at[nd])
        complete = start + service[sel]
        free_at[nd] = complete
        t_start[sel] = start
        t_complete[sel] = complete
    return t_start, t_complete


@dataclass
class FleetStreamResult:
    """Streaming-mode routing result: aggregates, not outcomes.

    Mirrors the :class:`FleetResult` read API (request counts, energy,
    latency percentiles, misses, fingerprints, render) so comparisons
    and the CLI treat both modes uniformly - but holds O(nodes +
    sketch + sampled records) state, never O(requests).
    """

    fleet: FleetSpec
    trace: TraceSpec
    policy: str
    chunk_size: int
    n_chunks: int
    n_requests: int
    cells: Tuple[FleetCellProfile, ...]
    cells_executed: int
    dispatch_counts: Dict[str, int]
    energy_total_j: float
    makespan_s: float
    deadline_misses: int
    sketch: LatencySketch
    busy_s_by_node: np.ndarray
    #: Sampled placement audit records: every ``sample_stride``-th
    #: request plus every deadline miss, capped at
    #: :data:`MAX_SAMPLED_RECORDS`.
    placement_records: Tuple[DecisionRecord, ...]
    #: Exact count of requests that *matched* the sampling criteria
    #: (kept + dropped by the cap) - nothing is lost silently.
    records_matched: int
    sample_stride: int
    digest: str

    # -- accounting (FleetResult-compatible surface) -----------------------------

    @property
    def total_energy_j(self) -> float:
        """Busy energy, computed exactly as sum(cell count x cell
        energy) - chunk-size independent."""
        return self.energy_total_j

    @property
    def miss_rate(self) -> float:
        return (self.deadline_misses / self.n_requests
                if self.n_requests else 0.0)

    @property
    def mean_latency_s(self) -> float:
        return self.sketch.mean

    def latency_percentile_s(self, pct: float) -> float:
        """Nearest-rank percentile from the sketch (relative error at
        most ``sketch.rel_err``; see docs/FLEET.md)."""
        return self.sketch.quantile(pct)

    def dispatches_by_kind(self) -> Dict[str, int]:
        return dict(self.dispatch_counts)

    @property
    def idle_energy_estimate_j(self) -> float:
        horizon = self.makespan_s
        idle_power = {
            kind: self.fleet.platform_spec(kind).idle_power_w
            for kind in ("desktop", "tablet")}
        total = 0.0
        for node in self.fleet.nodes():
            busy = float(self.busy_s_by_node[node.index])
            total += idle_power[node.platform_kind] * max(
                0.0, horizon - busy)
        return total

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """The incremental column digest (chunk-size independent);
        byte-equal to :meth:`FleetResult.stream_fingerprint`."""
        return self.digest

    def stream_fingerprint(self) -> str:
        return self.digest

    def render(self) -> str:
        kinds = self.dispatches_by_kind()
        rows = [
            ("requests", f"{self.n_requests} "
                         f"({self.n_chunks} chunks of <= {self.chunk_size})"),
            ("nodes", f"{self.fleet.n_nodes} "
                      f"({self.fleet.desktop_fraction:.0%} desktop)"),
            ("distinct cells", f"{len(self.cells)} "
                               f"({self.cells_executed} executed, rest "
                               f"cached/deduped)"),
            ("dispatches", f"desktop={kinds.get('desktop', 0)} "
                           f"tablet={kinds.get('tablet', 0)}"),
            ("fleet energy (busy)", f"{self.total_energy_j:.1f} J"),
            ("idle-floor estimate", f"{self.idle_energy_estimate_j:.1f} J "
                                    f"over {self.makespan_s:.1f} s"),
            ("mean latency", f"{self.mean_latency_s:.2f} s"),
            ("p95 latency", f"{self.latency_percentile_s(95):.2f} s "
                            f"(sketch, +/-{self.sketch.rel_err:.0%})"),
            ("deadline misses", f"{self.deadline_misses} "
                                f"({self.miss_rate:.1%})"),
            ("sampled records", f"{len(self.placement_records)} kept of "
                                f"{self.records_matched} matched "
                                f"(stride {self.sample_stride} + misses)"),
        ]
        return "\n".join([
            heading(f"Fleet dispatch (streaming): policy={self.policy}, "
                    f"trace={self.trace.kind}"),
            format_table(["quantity", "value"], rows),
            "",
            f"fingerprint: {self.fingerprint()}",
        ])


def dispatch_stream(fleet: FleetSpec, trace: TraceSpec,
                    policy: str = "energy_aware",
                    engine: Optional[ExecutionEngine] = None,
                    observer: Optional[Observer] = None,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    sample_stride: int = DEFAULT_SAMPLE_STRIDE,
                    max_records: int = MAX_SAMPLED_RECORDS
                    ) -> FleetStreamResult:
    """Route ``trace`` over ``fleet`` via the streaming pipeline.

    Identical placement decisions and per-request timestamps to
    :func:`run_fleet` in reference mode (the cross-mode fingerprint
    lock), at O(nodes + chunk) dispatch state instead of O(requests).
    ``random`` and ``round_robin`` run as block operations.
    ``least_loaded`` is per-request and sequential (each dispatch moves
    the backlog the next one reads), one slice argmin per request.  The
    view-reading policies (energy_aware / deadline_aware) run scalar
    over the columnar chunks with bucketed completion retirement.
    Every policy keeps its queue state in the :class:`FleetView`'s
    class-major slots.
    """
    if fleet.carbon is not None:
        raise HarnessError(
            "streaming dispatch does not support carbon-aware fleets "
            "yet (temporal shifting reorders the request stream); use "
            "dispatch_mode='reference'")
    if engine is None:
        engine = get_default_engine()
    if chunk_size <= 0:
        raise HarnessError("chunk_size must be positive")
    if sample_stride <= 0:
        raise HarnessError("sample_stride must be positive")
    obs = observer if observer is not None and observer.enabled else None
    placer = make_policy(policy, seed=fleet.seed)  # validates the name
    nodes = fleet.nodes()
    n_nodes = len(nodes)
    view = FleetView(nodes)
    workloads = trace.workloads
    t_col, w_col, d_col = trace_columns(trace)
    n_requests = len(t_col)

    if obs is not None:
        span = obs.span("fleet.run", policy=policy, nodes=n_nodes,
                        trace=trace.kind, requests=n_requests,
                        mode="streaming")
        span.__enter__()

    # Eligibility + cell resolution (same batch, same order, same
    # first-bad-request error as the reference's _resolve_cells).
    present = [int(wi) for wi in np.unique(w_col)]
    bad = [wi for wi in present
           if not view.eligible_kinds(workloads[wi])]
    if bad:
        bad_mask = np.isin(w_col, np.asarray(bad, dtype=w_col.dtype))
        first = int(np.argmax(bad_mask))
        raise HarnessError(
            f"request {first}: no node in this fleet can run "
            f"workload {workloads[int(w_col[first])]!r}")
    pairs = sorted({(kind, workloads[wi]) for wi in present
                    for kind in view.eligible_kinds(workloads[wi])})
    profiles, executed = _run_cell_batch(fleet, pairs, engine, obs)
    cells = tuple(profiles[pair] for pair in pairs)

    # Lookup tables: service/energy/alpha per (class, workload) cell,
    # class per node, eligible node sets per workload (desktop block
    # then tablet block, ascending - the FleetView order).
    n_workloads = len(workloads)
    svc_table = np.full((2, n_workloads), np.nan)
    energy_table = np.full((2, n_workloads), np.nan)
    alpha_table = np.zeros((2, n_workloads))
    eligible_kind_mask = np.zeros((2, n_workloads), dtype=bool)
    for (kind, workload), profile in profiles.items():
        k = _PLATFORM_ORDER.index(kind)
        wi = workloads.index(workload)
        svc_table[k, wi] = profile.time_s
        energy_table[k, wi] = profile.energy_j
        alpha_table[k, wi] = profile.final_alpha or 0.0
        eligible_kind_mask[k, wi] = True
    node_kind = np.array(
        [_PLATFORM_ORDER.index(n.platform_kind) for n in nodes],
        dtype=np.int64)
    node_names = [n.name for n in nodes]
    node_slots = np.asarray(view.node_slots, dtype=np.int64)
    slot_nodes = np.asarray(view.slot_nodes, dtype=np.int64)
    eligible_by_w = {
        wi: np.asarray(view.eligible_nodes(workloads[wi]), dtype=np.int64)
        for wi in present}

    if policy == "random":
        # The policy's exact randrange stream, drawn in bulk in
        # arrival order and carried across chunks.
        draws = MTStream(fleet.seed ^ RANDOM_POLICY_SALT)
        max_eligible = max(
            (len(v) for v in eligible_by_w.values()), default=1)
        eligible_matrix = np.zeros((n_workloads, max_eligible),
                                   dtype=np.int64)
        eligible_sizes = np.ones(n_workloads, dtype=np.int64)
        for wi, arr in eligible_by_w.items():
            eligible_matrix[wi, :len(arr)] = arr
            eligible_sizes[wi] = len(arr)
    rr_cursor = 0
    # Cursor arithmetic only holds when every node is eligible for
    # every workload the trace contains; otherwise the scalar cursor
    # scan below replays the reference exactly.
    rr_uniform = all(len(eligible_by_w[wi]) == n_nodes for wi in present)
    if policy == "least_loaded":
        free = view.slot_free_at
        least_loaded_slot = view.least_loaded_slot
        spans = {wi: view.eligible_span(workloads[wi]) for wi in present}
        slot_kind = node_kind[slot_nodes]
        slot_service = {wi: svc_table[slot_kind, wi].tolist()
                        for wi in present}
    stateful = policy in ("energy_aware", "deadline_aware")
    retirement = _BucketRetirement(n_nodes) if stateful else None

    busy_s = np.zeros(n_nodes, dtype=np.float64)
    cell_counts = np.zeros((2, n_workloads), dtype=np.int64)
    sketch = LatencySketch()
    digests = _ColumnDigests()
    makespan = 0.0
    misses_total = 0
    records: List[DecisionRecord] = []
    records_matched = 0
    n_chunks = 0

    for start in range(0, n_requests, chunk_size):
        stop = min(start + chunk_size, n_requests)
        t_ch = t_col[start:stop]
        w_ch = w_col[start:stop]
        d_ch = d_col[start:stop]
        m = stop - start
        chunk_started = time.perf_counter()
        chunk_span = None
        if obs is not None:
            chunk_span = obs.span("fleet.dispatch.chunk",
                                  index=n_chunks, start_id=start,
                                  requests=m)
            chunk_span.__enter__()

        reasons: Dict[int, str] = {}
        if policy == "random":
            nodes_ch = eligible_matrix[
                w_ch, draws.randbelow(eligible_sizes[w_ch])]
            service = svc_table[node_kind[nodes_ch], w_ch]
            ts_ch, tc_ch = _fifo_schedule(t_ch, service, nodes_ch,
                                          node_slots, view.slot_free_at)
        elif policy == "round_robin":
            if rr_uniform:
                nodes_ch = (rr_cursor
                            + np.arange(m, dtype=np.int64)) % n_nodes
                rr_cursor = int((rr_cursor + m) % n_nodes)
            else:
                nodes_ch = np.empty(m, dtype=np.int64)
                for i in range(m):
                    wi = int(w_ch[i])
                    for step in range(n_nodes):
                        idx = (rr_cursor + step) % n_nodes
                        if eligible_kind_mask[node_kind[idx], wi]:
                            nodes_ch[i] = idx
                            rr_cursor = idx + 1
                            break
            service = svc_table[node_kind[nodes_ch], w_ch]
            ts_ch, tc_ch = _fifo_schedule(t_ch, service, nodes_ch,
                                          node_slots, view.slot_free_at)
        elif policy == "least_loaded":
            # Sequential by nature (each dispatch moves the backlog the
            # next one reads); the lookup is the view's slice argmin
            # over the workload's eligible slot range.
            slots_ch, starts, completes = array("q"), array("d"), array("d")
            for t, wi in zip(t_ch.tolist(), w_ch.tolist()):
                view.now = t
                lo, hi = spans[wi]
                slot = least_loaded_slot(lo, hi)
                t_start = max(t, free.item(slot))
                t_complete = t_start + slot_service[wi][slot]
                free[slot] = t_complete
                slots_ch.append(slot)
                starts.append(t_start)
                completes.append(t_complete)
            nodes_ch = slot_nodes[np.frombuffer(slots_ch, dtype=np.int64)]
            ts_ch = np.frombuffer(starts, dtype=np.float64)
            tc_ch = np.frombuffer(completes, dtype=np.float64)
        else:
            # Stateful policies: the real FleetView + policy object
            # over columnar chunks, with bucketed retirement feeding
            # the view's completion stats in exact reference order.
            nodes_ch = np.empty(m, dtype=np.int64)
            ts_ch = np.empty(m, dtype=np.float64)
            tc_ch = np.empty(m, dtype=np.float64)
            reason_budget = max_records - len(records)
            for i in range(m):
                t = float(t_ch[i])
                wi = int(w_ch[i])
                workload = workloads[wi]
                view.now = t
                for node_i, payload in retirement.pop_until(t):
                    view.note_completion(node_i, payload[0],
                                         payload[1], payload[2])
                request = FleetRequest(
                    req_id=start + i, t_arrival_s=t,
                    workload=workload, deadline_s=float(d_ch[i]))
                node_index, reason = placer.place(view, request)
                if not view.is_eligible(node_index, workload):
                    raise HarnessError(
                        f"policy {policy!r} placed {workload!r} on "
                        f"ineligible node {view.nodes[node_index].name}")
                profile = profiles[
                    (view.nodes[node_index].platform_kind, workload)]
                t_start = max(t, view.free_at(node_index))
                t_complete = t_start + profile.time_s
                view.note_dispatch(node_index, workload, t_complete)
                retirement.push(
                    node_index, t_complete, start + i,
                    (workload, t_complete - t_start, profile.energy_j))
                nodes_ch[i] = node_index
                ts_ch[i] = t_start
                tc_ch[i] = t_complete
                if (((start + i) % sample_stride == 0
                     or (t_complete - t) > request.deadline_s)
                        and len(reasons) < reason_budget):
                    reasons[i] = reason

        # -- shared per-chunk accounting ---------------------------------------
        kind_idx = node_kind[nodes_ch]
        if not bool(np.all(eligible_kind_mask[kind_idx, w_ch])):
            bad_i = int(np.argmin(eligible_kind_mask[kind_idx, w_ch]))
            raise HarnessError(
                f"policy {policy!r} placed "
                f"{workloads[int(w_ch[bad_i])]!r} on ineligible node "
                f"{node_names[int(nodes_ch[bad_i])]}")
        latency = tc_ch - t_ch
        missed = latency > d_ch
        n_missed = int(np.count_nonzero(missed))
        misses_total += n_missed
        if m:
            makespan = max(makespan, float(tc_ch.max()))
        sketch.add_batch(latency)
        np.add.at(cell_counts, (kind_idx, w_ch.astype(np.int64)), 1)
        np.add.at(busy_s, nodes_ch, tc_ch - ts_ch)
        digests.update(workload_idx=w_ch, t_arrival_s=t_ch,
                       deadline_s=d_ch, node_index=nodes_ch,
                       t_start_s=ts_ch, t_complete_s=tc_ch)

        global_idx = np.arange(start, stop, dtype=np.int64)
        sample_mask = ((global_idx % sample_stride) == 0) | missed
        records_matched += int(np.count_nonzero(sample_mask))
        new_records_from = len(records)
        if len(records) < max_records:
            budget = max_records - len(records)
            for i in np.flatnonzero(sample_mask)[:budget].tolist():
                idx = int(nodes_ch[i])
                wi = int(w_ch[i])
                if stateful:
                    reason = reasons.get(i, "")
                elif policy == "random":
                    reason = "uniform"
                elif policy == "round_robin":
                    reason = "cursor"
                else:
                    reason = f"backlog={ts_ch[i] - t_ch[i]:.3f}s"
                records.append(DecisionRecord(
                    exit_path=EXIT_FLEET_PLACEMENT,
                    kernel=workloads[wi],
                    alpha=float(alpha_table[node_kind[idx], wi]),
                    tenant=node_names[idx],
                    sim_time_s=float(t_ch[i]),
                    notes=[f"policy:{policy}",
                           f"node:{node_names[idx]}",
                           f"reason:{reason}",
                           f"deadline_s:{float(d_ch[i]):.1f}"]))

        if obs is not None:
            elapsed = time.perf_counter() - chunk_started
            obs.inc("fleet.dispatch.requests", m)
            obs.inc("fleet.dispatches", m)
            kind_counts = np.bincount(kind_idx, minlength=2)
            obs.inc("fleet.dispatches.desktop", int(kind_counts[0]))
            obs.inc("fleet.dispatches.tablet", int(kind_counts[1]))
            obs.inc("fleet.deadline_misses", n_missed)
            obs.set_gauge("fleet.dispatch.req_per_s",
                          m / elapsed if elapsed > 0.0 else 0.0)
            now_end = float(t_ch[-1]) if m else 0.0
            obs.set_gauge("fleet.backlog", float(np.sum(
                np.maximum(view.slot_free_at - now_end, 0.0))))
            for record in records[new_records_from:]:
                obs.decision(record)
            chunk_span.__exit__(None, None, None)
        n_chunks += 1

    energy_safe = np.where(np.isnan(energy_table), 0.0, energy_table)
    energy_total = float(np.sum(cell_counts * energy_safe))
    dispatch_counts = {"desktop": int(cell_counts[0].sum()),
                       "tablet": int(cell_counts[1].sum())}
    digest = _fold_stream_digest(fleet, trace, policy, cells, digests,
                                 n_requests)
    result = FleetStreamResult(
        fleet=fleet, trace=trace, policy=policy,
        chunk_size=chunk_size, n_chunks=n_chunks,
        n_requests=n_requests, cells=cells, cells_executed=executed,
        dispatch_counts=dispatch_counts, energy_total_j=energy_total,
        makespan_s=makespan, deadline_misses=misses_total,
        sketch=sketch, busy_s_by_node=busy_s,
        placement_records=tuple(records),
        records_matched=records_matched, sample_stride=sample_stride,
        digest=digest)
    if obs is not None:
        obs.set_gauge("fleet.nodes", n_nodes)
        obs.observe("fleet.energy_j", result.total_energy_j)
        span.__exit__(None, None, None)
    return result
