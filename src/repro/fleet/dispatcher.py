"""The global dispatcher: one event-driven loop over the arrival trace.

Two phases, both deterministic:

1. **Cell resolution.**  Every (platform class, workload) pair the
   trace could touch becomes one ``fleet-cell``
   :class:`~repro.harness.engine.RunSpec`, submitted as a single
   engine batch - parallel under ``--jobs N``, deduped by the
   content-addressed cache, byte-identical serial vs pooled (the
   engine's own guarantee).  A thousand-node fleet costs as many
   simulations as it has distinct cells.

2. **Dispatch.**  Requests replay in dispatch order - arrival order,
   or on carbon-aware fleets the instant a deferrable request is
   released from its hold window; completions (ordered
   ``(t_complete, dispatch seq)``) retire before each dispatch, so
   placement policies observe exactly the completions a real-time
   dispatcher would have seen.  Placement reads only the
   :class:`~repro.fleet.policies.FleetView`; the simulated execution
   itself is the phase-1 profile (per-node EAS stays black-box).

:func:`run_fleet` and :func:`dispatch_stream` are two consumers of the
same chunked loop: the first keeps every outcome, the second bounded
aggregates.

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
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
from repro.fleet.trace import FleetRequest, TraceSpec, trace_columns
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

#: Dispatches per chunk of the dispatch loop.  Fingerprints are
#: byte-identical at any size; it bounds per-chunk state.
DEFAULT_CHUNK_SIZE = 65536
#: dispatch_stream keeps one DecisionRecord per this many requests...
DEFAULT_SAMPLE_STRIDE = 1000
#: ...plus every anomalous (deadline-missing) request, capped here so
#: record memory stays bounded on pathological traces.  Exact match
#: counters are kept alongside (nothing is lost silently).
MAX_SAMPLED_RECORDS = 10_000

#: Fixed platform-class order used by the dispatch lookup tables
#: (index 0 = desktop, 1 = tablet, same order everywhere).
_PLATFORM_ORDER: Tuple[str, ...] = ("desktop", "tablet")


def _idle_energy_j(fleet: FleetSpec, horizon: float,
                   busy_by_node: Sequence[float]) -> float:
    """Fleet idle-floor energy over ``horizon``: every node burns its
    spec idle power whenever not executing.  Reported apart from the
    busy energy because for a fixed fleet and horizon it is
    (near-)policy-invariant - folding it into the headline number
    would only dilute the placement signal."""
    idle_power = {kind: fleet.platform_spec(kind).idle_power_w
                  for kind in _PLATFORM_ORDER}
    total = 0.0
    for node in fleet.nodes():
        total += idle_power[node.platform_kind] * max(
            0.0, horizon - busy_by_node[node.index])
    return total


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
        busy_by_node = [0.0] * self.fleet.n_nodes
        for outcome in self.outcomes:
            busy_by_node[outcome.node_index] += (outcome.t_complete_s
                                                 - outcome.t_start_s)
        return _idle_energy_j(self.fleet, self.makespan_s, busy_by_node)

    @property
    def total_carbon_g(self) -> float:
        """Carbon mass across the fleet, grams (0 on carbon-blind
        fleets, where no outcome carries a carbon figure).  Exactly
        rounded (``math.fsum``), so it is independent of order."""
        return math.fsum(o.carbon_g for o in self.outcomes
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

    def render(self) -> str:
        extra = []
        if self.fleet.carbon is not None and self.trace.deferral_fraction:
            extra.append((
                "low-carbon energy",
                f"{self.low_carbon_energy_fraction():.1%} of "
                f"deferrable energy below median intensity"))
        return _render_dispatch(
            self, "Fleet dispatch", f"{self.n_requests}",
            f"{self.latency_percentile_s(95):.2f} s", extra)


def _render_dispatch(result, title: str, requests: str, p95: str,
                     extra: List[Tuple[str, str]]) -> str:
    """One routing's summary table (either result type)."""
    kinds = result.dispatches_by_kind()
    rows = [
        ("requests", requests),
        ("nodes", f"{result.fleet.n_nodes} "
                  f"({result.fleet.desktop_fraction:.0%} desktop)"),
        ("distinct cells", f"{len(result.cells)} "
                           f"({result.cells_executed} executed, rest "
                           f"cached/deduped)"),
        ("dispatches", f"desktop={kinds['desktop']} "
                       f"tablet={kinds['tablet']}"),
        ("fleet energy (busy)", f"{result.total_energy_j:.1f} J"),
        ("idle-floor estimate", f"{result.idle_energy_estimate_j:.1f} J "
                                f"over {result.makespan_s:.1f} s"),
        ("mean latency", f"{result.mean_latency_s:.2f} s"),
        ("p95 latency", p95),
        ("deadline misses", f"{result.deadline_misses} "
                            f"({result.miss_rate:.1%})"),
    ]
    if result.fleet.carbon is not None:
        rows.append(("fleet carbon", f"{result.total_carbon_g:.2f} g CO2"))
    return "\n".join([
        heading(f"{title}: policy={result.policy}, "
                f"trace={result.trace.kind}"),
        format_table(["quantity", "value"], rows + extra),
        "",
        f"fingerprint: {result.fingerprint()}",
    ])


@dataclass
class FleetComparisonResult:
    """Several policies routing the *same* trace over the same fleet
    (:class:`FleetResult` or, from the CLI, :class:`FleetStreamResult`
    per policy: both carry the read API the table uses)."""

    fleet: FleetSpec
    trace: TraceSpec
    results: Tuple[Union[FleetResult, FleetStreamResult], ...]

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
#
# The per-request scalar loop this replaced is the test oracle
# (tests/fleet/reference_dispatch.py): both consumers reproduce its
# fingerprints byte for byte.

#: Candidate hold instants evaluated per deferrable request: evenly
#: spaced over ``[arrival, arrival + deferrable_s]``, ties earliest.
_DEFERRAL_SAMPLES = 17
#: Requests whose hold windows are priced per block, bounding the
#: (requests x samples) instant matrix.
_DEFERRAL_BLOCK = 4096


def _dispatch_times(t_arrival: np.ndarray, deadline: np.ndarray,
                    deferral_fraction: float,
                    carbon: Optional[CarbonTrace]) -> np.ndarray:
    """Each request's dispatch instant (carbon-aware temporal shifting).

    A request may be held up to ``deferral_fraction * deadline_s`` past
    its arrival; it dispatches at the earliest lowest-intensity of
    :data:`_DEFERRAL_SAMPLES` evenly spaced instants of that window.
    The decision happens *before* placement (no node, hence no region,
    is known yet), so it reads the grid-operator signal - region 0.
    Per-region pricing still happens at the serving node once placed.

    The instants are ``arrival + deferrable * k / (samples - 1)``, the
    same IEEE operations in the same order as the scalar form, so they
    match it to the bit.  Intensities come from the scalar
    :meth:`CarbonTrace.intensity`: ``np.sin`` is not bit-identical to
    ``math.sin``.  ``argmin`` keeps the first of equals (the earliest
    instant).  Without a carbon signal or deferral the dispatch
    instants are the arrivals themselves.
    """
    if carbon is None or deferral_fraction <= 0.0:
        return t_arrival
    deferrable = deferral_fraction * deadline
    k = np.arange(_DEFERRAL_SAMPLES, dtype=np.float64)
    t_dispatch = np.empty_like(t_arrival)
    for lo in range(0, len(t_arrival), _DEFERRAL_BLOCK):
        hi = min(lo + _DEFERRAL_BLOCK, len(t_arrival))
        instants = (t_arrival[lo:hi, None]
                    + deferrable[lo:hi, None] * k / (_DEFERRAL_SAMPLES - 1))
        intensity = np.fromiter(
            map(carbon.intensity, instants.ravel().tolist()),
            np.float64, instants.size).reshape(instants.shape)
        t_dispatch[lo:hi] = instants[np.arange(hi - lo),
                                     intensity.argmin(axis=1)]
    return t_dispatch


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
    at most ``n_nodes`` heads therefore replays a single
    ``(t_complete, seq)`` pending heap's pop order exactly - equal
    instants break on the dispatch sequence, seq is unique - while
    per-request cost drops from heap churn over all in-flight work to
    one deque append.
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


class _SlotHeaps:
    """Least-loaded placement over the view's class blocks, from heaps.

    Each class block keeps its idle slots (``free_at <= now``) in a heap
    of slot numbers and its busy slots in a heap of ``(free_at, slot)``;
    a busy slot moves to the idle heap once the dispatch clock passes
    its drain instant, so dispatch instants must never decrease.  The
    pick is the slice argmin's over the blocks of a span, in slot
    order: the first block with an idle slot gives its lowest one
    (backlog 0), else the lowest ``(backlog, slot)`` of the busy tops.
    Backlog is the rounded ``free_at - now``, and two different drain
    instants can round to one backlog, so a tie at the top of a busy
    heap goes to the lowest slot, not the earliest instant.
    ``free_at`` (the view's slot array) is updated with every dispatch.
    """

    def __init__(self, free_at: np.ndarray,
                 blocks: Sequence[Tuple[int, int]], now: float) -> None:
        self.free_at = free_at
        self.idle: List[List[int]] = []
        self.busy: List[List[Tuple[float, int]]] = []
        for lo, hi in blocks:
            drains = list(zip(free_at[lo:hi].tolist(), range(lo, hi)))
            self.idle.append([slot for f, slot in drains if f <= now])
            busy = [(f, slot) for f, slot in drains if f > now]
            heapq.heapify(busy)
            self.busy.append(busy)

    def route(self, times: Sequence[float],
              spans: Iterator[Tuple[int, ...]],
              services: Iterator[Sequence[float]]
              ) -> Tuple[array, array, array]:
        """Place one request per dispatch instant on the least-loaded
        slot of its span (block indices, in slot order), which then
        serves it for ``services[i][slot]`` seconds after its queue
        drains.  Returns the slots, starts and completions."""
        free, idle_heaps, busy_heaps = self.free_at, self.idle, self.busy
        heappush, heappop = heapq.heappush, heapq.heappop
        slots, starts, completes = array("q"), array("d"), array("d")
        for t, span, service in zip(times, spans, services):
            best = None
            for block in span:
                idle, busy = idle_heaps[block], busy_heaps[block]
                while busy and busy[0][0] <= t:
                    heappush(idle, heappop(busy)[1])
                if idle:
                    best = (0.0, idle[0], block, -1)
                    break
                f, slot = busy[0]
                backlog, pos = f - t, 0
                n = len(busy)
                if ((n > 1 and busy[1][0] - t == backlog)
                        or (n > 2 and busy[2][0] - t == backlog)):
                    slot, pos = _lowest_tied(busy, t, backlog)
                if best is None or backlog < best[0]:
                    best = (backlog, slot, block, pos)
            _, slot, block, pos = best
            if pos < 0:
                heappop(idle_heaps[block])
                t_start = t
            else:
                busy = busy_heaps[block]
                t_start = busy[pos][0]
                if pos:  # a tie below the top: rare
                    del busy[pos]
                    heapq.heapify(busy)
                else:
                    heappop(busy)
            t_complete = t_start + service[slot]
            free[slot] = t_complete
            if t_complete > t:
                heappush(busy_heaps[block], (t_complete, slot))
            else:
                heappush(idle_heaps[block], slot)
            slots.append(slot)
            starts.append(t_start)
            completes.append(t_complete)
        return slots, starts, completes


def _lowest_tied(busy: List[Tuple[float, int]], now: float,
                 backlog: float) -> Tuple[int, int]:
    """(slot, heap position) of the lowest slot whose rounded backlog
    equals the top's.  The rounding is monotone, so the tied entries
    form a subtree at the root of the heap."""
    slot, pos = busy[0][1], 0
    stack = [1, 2]
    while stack:
        i = stack.pop()
        if i < len(busy) and busy[i][0] - now == backlog:
            if busy[i][1] < slot:
                slot, pos = busy[i][1], i
            stack += (2 * i + 1, 2 * i + 2)
    return slot, pos


@dataclass
class _Chunk:
    """One chunk of routed requests; every column in dispatch order."""

    #: Dispatch position of the chunk's first row.
    start: int
    req_id: np.ndarray
    workload_idx: np.ndarray
    t_arrival_s: np.ndarray
    deadline_s: np.ndarray
    t_dispatch_s: np.ndarray
    node_index: np.ndarray
    #: Platform-class index of each row's node (:data:`_PLATFORM_ORDER`).
    kind_idx: np.ndarray
    t_start_s: np.ndarray
    t_complete_s: np.ndarray
    missed: np.ndarray
    #: The policy's reason per row (view-reading policies only).
    reasons: Optional[List[str]]

    def __len__(self) -> int:
        return len(self.req_id)


class _DispatchLoop:
    """The fleet's one dispatch loop.

    Construction validates the inputs and expands the trace into
    columns; :meth:`chunks` resolves the cells, routes the trace and
    yields one :class:`_Chunk` per :data:`DEFAULT_CHUNK_SIZE`
    dispatches (read at construction, so a test can patch it).  Every
    policy keeps its queue state in the :class:`FleetView`'s
    class-major slots.
    """

    def __init__(self, fleet: FleetSpec, trace: TraceSpec, policy: str,
                 engine: Optional[ExecutionEngine],
                 observer: Optional[Observer]) -> None:
        self.placer = make_policy(policy, seed=fleet.seed)  # validates
        self.fleet, self.trace, self.policy = fleet, trace, policy
        self.engine = engine if engine is not None else get_default_engine()
        self.obs = (observer if observer is not None and observer.enabled
                    else None)
        self.chunk_rows = DEFAULT_CHUNK_SIZE
        self.nodes = fleet.nodes()
        self.node_names = [n.name for n in self.nodes]
        self.node_kind = np.array(
            [_PLATFORM_ORDER.index(n.platform_kind) for n in self.nodes],
            dtype=np.int64)
        self.view = FleetView(self.nodes)
        self.node_slots = np.asarray(self.view.node_slots, dtype=np.int64)
        self.workloads = trace.workloads
        self.carbon = (fleet.carbon.trace() if fleet.carbon is not None
                       else None)
        self.columns = trace_columns(trace)
        self.n_requests = len(self.columns[0])

    def _resolve_cells(self) -> None:
        """Eligibility, the cell batch and the (class, workload) tables."""
        view, workloads = self.view, self.workloads
        w_col = self.columns[1]
        self.present = [int(wi) for wi in np.unique(w_col)]
        bad = [wi for wi in self.present
               if not view.eligible_kinds(workloads[wi])]
        if bad:
            bad_mask = np.isin(w_col, np.asarray(bad, dtype=w_col.dtype))
            first = int(np.argmax(bad_mask))
            raise HarnessError(
                f"request {first}: no node in this fleet can run "
                f"workload {workloads[int(w_col[first])]!r}")
        pairs = sorted({(kind, workloads[wi]) for wi in self.present
                        for kind in view.eligible_kinds(workloads[wi])})
        profiles, self.cells_executed = _run_cell_batch(
            self.fleet, pairs, self.engine, self.obs)
        self.cells = tuple(profiles[pair] for pair in pairs)
        # Tables indexed [class, workload index].  A name the trace
        # lists twice fills every one of its indices: the columns
        # carry its last index.  ``profile_rows`` keeps the profiles
        # themselves, whose scalars (some numpy) outcomes carry as is.
        shape = (len(_PLATFORM_ORDER), len(workloads))
        self.svc_table = np.full(shape, np.nan)
        self.energy_table = np.full(shape, np.nan)
        self.eligible_kind_mask = np.zeros(shape, dtype=bool)
        self.profile_rows: List[List[Optional[FleetCellProfile]]] = [
            [None] * len(workloads) for _ in _PLATFORM_ORDER]
        for (kind, workload), profile in profiles.items():
            k = _PLATFORM_ORDER.index(kind)
            for wi, name in enumerate(workloads):
                if name == workload:
                    self.svc_table[k, wi] = profile.time_s
                    self.energy_table[k, wi] = profile.energy_j
                    self.eligible_kind_mask[k, wi] = True
                    self.profile_rows[k][wi] = profile

    def chunks(self) -> Iterator[_Chunk]:
        obs = self.obs
        with (obs.span("fleet.run", policy=self.policy,
                       nodes=len(self.nodes), trace=self.trace.kind,
                       requests=self.n_requests)
              if obs is not None else nullcontext()):
            self._resolve_cells()
            place = self._placement()
            # Dispatch order: arrival order, or release order from the
            # carbon hold windows (ties on request id).
            t_col, w_col, d_col = self.columns
            td_col = _dispatch_times(t_col, d_col,
                                     self.trace.deferral_fraction,
                                     self.carbon)
            order = None
            if td_col is not t_col:
                order = np.lexsort((np.arange(len(td_col)), td_col))
                t_col, w_col, d_col, td_col = (t_col[order], w_col[order],
                                               d_col[order], td_col[order])
            for start in range(0, self.n_requests, self.chunk_rows):
                stop = min(start + self.chunk_rows, self.n_requests)
                t_ch, w_ch, d_ch = (t_col[start:stop], w_col[start:stop],
                                    d_col[start:stop])
                td_ch = td_col[start:stop]
                ids = (order[start:stop] if order is not None
                       else np.arange(start, stop, dtype=np.int64))
                started = time.perf_counter()
                with (obs.span("fleet.dispatch.chunk",
                               index=start // self.chunk_rows,
                               start_id=start, requests=stop - start)
                      if obs is not None else nullcontext()):
                    nodes_ch, ts_ch, tc_ch, reasons = place(
                        start, ids, t_ch, td_ch, w_ch, d_ch)
                    kind_idx = self.node_kind[nodes_ch]
                    eligible = self.eligible_kind_mask[kind_idx, w_ch]
                    if not bool(np.all(eligible)):
                        bad_i = int(np.argmin(eligible))
                        raise HarnessError(
                            f"policy {self.policy!r} placed "
                            f"{self.workloads[int(w_ch[bad_i])]!r} on "
                            f"ineligible node "
                            f"{self.node_names[int(nodes_ch[bad_i])]}")
                    missed = (tc_ch - t_ch) > d_ch
                    if obs is not None:
                        m = stop - start
                        elapsed = time.perf_counter() - started
                        kinds = np.bincount(kind_idx, minlength=2)
                        obs.inc("fleet.dispatch.requests", m)
                        obs.inc("fleet.dispatches", m)
                        obs.inc("fleet.dispatches.desktop", int(kinds[0]))
                        obs.inc("fleet.dispatches.tablet", int(kinds[1]))
                        # Every dispatched request completes; each is
                        # counted with its chunk.
                        obs.inc("fleet.completions", m)
                        obs.inc("fleet.deadline_misses",
                                int(np.count_nonzero(missed)))
                        obs.set_gauge("fleet.dispatch.req_per_s",
                                      m / elapsed if elapsed > 0.0 else 0.0)
                        obs.set_gauge("fleet.backlog", float(np.sum(
                            np.maximum(self.view.slot_free_at
                                       - float(td_ch[-1]), 0.0))))
                yield _Chunk(
                    start=start, req_id=ids, workload_idx=w_ch,
                    t_arrival_s=t_ch, deadline_s=d_ch, t_dispatch_s=td_ch,
                    node_index=nodes_ch, kind_idx=kind_idx, t_start_s=ts_ch,
                    t_complete_s=tc_ch, missed=missed, reasons=reasons)
            if obs is not None:
                obs.set_gauge("fleet.nodes", len(self.nodes))

    # -- placement ---------------------------------------------------------------
    #
    # The placement functions take one chunk's (dispatch position of
    # row 0, request ids, arrivals, dispatch instants, workload
    # indices, deadlines) and return (nodes, starts, completions,
    # reasons or None).  The dispatch instant is the fleet clock: it
    # drives view.now, retirement and the FIFO start.

    def _placement(self):
        view, present = self.view, self.present
        eligible = {wi: np.asarray(view.eligible_nodes(self.workloads[wi]),
                                   dtype=np.int64) for wi in present}
        if self.policy == "random":
            # The policy's exact randrange stream, drawn in bulk in
            # dispatch order and carried across chunks.
            self._draws = MTStream(self.fleet.seed ^ RANDOM_POLICY_SALT)
            width = max((len(v) for v in eligible.values()), default=1)
            self._eligible_matrix = np.zeros((len(self.workloads), width),
                                             dtype=np.int64)
            self._eligible_sizes = np.ones(len(self.workloads),
                                           dtype=np.int64)
            for wi, nodes in eligible.items():
                self._eligible_matrix[wi, :len(nodes)] = nodes
                self._eligible_sizes[wi] = len(nodes)
            return self._place_fifo
        if self.policy == "round_robin":
            # Cursor arithmetic holds when every node can run every
            # workload the trace contains; otherwise the cursor scans.
            self._rr_cursor = 0
            self._rr_uniform = all(len(eligible[wi]) == len(self.nodes)
                                   for wi in present)
            return self._place_fifo
        if self.policy == "least_loaded":
            self._slot_nodes = np.asarray(view.slot_nodes, dtype=np.int64)
            slot_kind = self.node_kind[self._slot_nodes]
            self._slot_service = {wi: self.svc_table[slot_kind, wi].tolist()
                                  for wi in present}
            # Class k holds slots [bounds[k], bounds[k + 1]).
            bounds = np.searchsorted(
                slot_kind, np.arange(len(_PLATFORM_ORDER) + 1)).tolist()
            self._heaps = _SlotHeaps(view.slot_free_at,
                                     list(zip(bounds, bounds[1:])), view.now)
            self._spans = {
                wi: tuple(_PLATFORM_ORDER.index(kind) for kind in
                          view.eligible_kinds(self.workloads[wi]))
                for wi in present}
            return self._place_least_loaded
        self._retirement = _BucketRetirement(len(self.nodes))
        return self._place_by_view

    def _place_fifo(self, start, ids, t_ch, td_ch, w_ch, d_ch):
        # random and round_robin read no dispatch state: pick every
        # node of the chunk, then one vectorized FIFO pass.
        m, n_nodes = len(w_ch), len(self.nodes)
        if self.policy == "random":
            nodes_ch = self._eligible_matrix[
                w_ch, self._draws.randbelow(self._eligible_sizes[w_ch])]
        elif self._rr_uniform:
            nodes_ch = (self._rr_cursor
                        + np.arange(m, dtype=np.int64)) % n_nodes
            self._rr_cursor = int((self._rr_cursor + m) % n_nodes)
        else:
            nodes_ch = np.empty(m, dtype=np.int64)
            mask, node_kind = self.eligible_kind_mask, self.node_kind
            for i, wi in enumerate(w_ch.tolist()):
                for step in range(n_nodes):
                    idx = (self._rr_cursor + step) % n_nodes
                    if mask[node_kind[idx], wi]:
                        nodes_ch[i] = idx
                        self._rr_cursor = idx + 1
                        break
        ts_ch, tc_ch = _fifo_schedule(
            td_ch, self.svc_table[self.node_kind[nodes_ch], w_ch], nodes_ch,
            self.node_slots, self.view.slot_free_at)
        return nodes_ch, ts_ch, tc_ch, None

    def _place_least_loaded(self, start, ids, t_ch, td_ch, w_ch, d_ch):
        # Sequential by nature (each dispatch moves the backlog the
        # next one reads): one heap lookup per request, in dispatch
        # order, which never goes back in time.
        w_list = w_ch.tolist()
        slots, starts, completes = self._heaps.route(
            td_ch.tolist(), map(self._spans.__getitem__, w_list),
            map(self._slot_service.__getitem__, w_list))
        if w_list:
            self.view.now = td_ch.item(-1)
        return (self._slot_nodes[np.frombuffer(slots, dtype=np.int64)],
                np.frombuffer(starts, dtype=np.float64),
                np.frombuffer(completes, dtype=np.float64), None)

    def _place_by_view(self, start, ids, t_ch, td_ch, w_ch, d_ch):
        # The view-reading policies: the real FleetView and policy
        # object per request, with bucketed retirement feeding the
        # view's completion stats in dispatch-sequence order.
        view, place = self.view, self.placer.place
        retirement, rows = self._retirement, self.profile_rows
        node_kind = self.node_kind.tolist()
        m = len(w_ch)
        nodes_ch = np.empty(m, dtype=np.int64)
        ts_ch = np.empty(m, dtype=np.float64)
        tc_ch = np.empty(m, dtype=np.float64)
        reasons: List[str] = []
        for i, (req_id, t_arrival, t, wi, deadline) in enumerate(zip(
                ids.tolist(), t_ch.tolist(), td_ch.tolist(), w_ch.tolist(),
                d_ch.tolist())):
            workload = self.workloads[wi]
            view.now = t
            for node_i, payload in retirement.pop_until(t):
                view.note_completion(node_i, *payload)
            node_index, reason = place(view, FleetRequest(
                req_id=req_id, t_arrival_s=t_arrival, workload=workload,
                deadline_s=deadline))
            profile = rows[node_kind[node_index]][wi]
            if profile is None:
                raise HarnessError(
                    f"policy {self.policy!r} placed {workload!r} on "
                    f"ineligible node {self.node_names[node_index]}")
            t_start = max(t, view.free_at(node_index))
            t_complete = t_start + profile.time_s
            view.note_dispatch(node_index, workload, t_complete)
            retirement.push(node_index, t_complete, start + i,
                            (workload, t_complete - t_start,
                             profile.energy_j))
            nodes_ch[i] = node_index
            ts_ch[i] = t_start
            tc_ch[i] = t_complete
            reasons.append(reason)
        return nodes_ch, ts_ch, tc_ch, reasons

    # -- what the consumers read -------------------------------------------------

    def record(self, chunk: _Chunk, i: int) -> DecisionRecord:
        """Row ``i``'s placement audit record."""
        node, wi = int(chunk.node_index[i]), int(chunk.workload_idx[i])
        t_arrival = float(chunk.t_arrival_s[i])
        t_dispatch = float(chunk.t_dispatch_s[i])
        if chunk.reasons is not None:
            reason = chunk.reasons[i]
        elif self.policy == "least_loaded":
            # The backlog it chose: max(0, free_at - now).
            reason = f"backlog={float(chunk.t_start_s[i]) - t_dispatch:.3f}s"
        else:
            reason = "uniform" if self.policy == "random" else "cursor"
        name = self.node_names[node]
        notes = [f"policy:{self.policy}", f"node:{name}",
                 f"reason:{reason}",
                 f"deadline_s:{float(chunk.deadline_s[i]):.1f}"]
        if t_dispatch > t_arrival:
            notes.append(f"deferred:{t_dispatch - t_arrival:.1f}s")
        profile = self.profile_rows[int(chunk.kind_idx[i])][wi]
        return DecisionRecord(
            exit_path=EXIT_FLEET_PLACEMENT, kernel=self.workloads[wi],
            alpha=profile.final_alpha or 0.0, tenant=name,
            sim_time_s=t_dispatch, notes=notes)

    def profiles(self, chunk: _Chunk) -> List[FleetCellProfile]:
        """The cell profile that served each row."""
        rows = self.profile_rows
        return [rows[k][wi] for k, wi in zip(chunk.kind_idx.tolist(),
                                             chunk.workload_idx.tolist())]

    def carbon_g(self, chunk: _Chunk) -> Optional[List[float]]:
        """Each row's carbon mass: its energy priced at the grid
        intensity of its start, in its node's region (None on
        carbon-blind fleets)."""
        if self.carbon is None:
            return None
        grams = self.carbon.grams
        return [grams(profile.energy_j, t_start, node)
                for profile, t_start, node in zip(
                    self.profiles(chunk), chunk.t_start_s.tolist(),
                    chunk.node_index.tolist())]


def run_fleet(fleet: FleetSpec, trace: TraceSpec,
              policy: str = "energy_aware",
              engine: Optional[ExecutionEngine] = None,
              observer: Optional[Observer] = None) -> FleetResult:
    """Route ``trace`` over ``fleet`` under one placement policy,
    keeping every request: one :class:`RequestOutcome` and one
    placement :class:`DecisionRecord` per request, in dispatch order.

    :func:`dispatch_stream` routes through the same loop and keeps
    bounded aggregates instead.
    """
    loop = _DispatchLoop(fleet, trace, policy, engine, observer)
    outcomes: List[RequestOutcome] = []
    records: List[DecisionRecord] = []
    for chunk in loop.chunks():
        carbon_g = loop.carbon_g(chunk)
        rows = zip(chunk.req_id.tolist(), chunk.workload_idx.tolist(),
                   chunk.node_index.tolist(), chunk.t_arrival_s.tolist(),
                   chunk.t_start_s.tolist(), chunk.deadline_s.tolist(),
                   loop.profiles(chunk),
                   carbon_g if carbon_g is not None else repeat(None))
        for req_id, wi, node, t_arrival, t_start, deadline, profile, \
                grams in rows:
            # The profile's own scalars, not the float64 tables: the
            # canonical form reprs them, and a numpy scalar reprs apart
            # from a float.  ``t_start + time_s`` repeats the loop's add,
            # so the completion time is the chunk's, bit for bit.
            outcomes.append(RequestOutcome(
                req_id=req_id, workload=loop.workloads[wi],
                node=loop.node_names[node], node_index=node,
                platform_kind=profile.platform_kind, t_arrival_s=t_arrival,
                t_start_s=t_start, t_complete_s=t_start + profile.time_s,
                deadline_s=deadline, energy_j=profile.energy_j,
                carbon_g=grams))
        for i in range(len(chunk)):
            records.append(loop.record(chunk, i))
            if loop.obs is not None:
                loop.obs.decision(records[-1])
    result = FleetResult(
        fleet=fleet, trace=trace, policy=policy,
        outcomes=tuple(outcomes), cells=loop.cells,
        placement_records=tuple(records),
        cells_executed=loop.cells_executed)
    if loop.obs is not None:
        loop.obs.observe("fleet.energy_j", result.total_energy_j)
    return result


def compare_fleet_policies(fleet: FleetSpec, trace: TraceSpec,
                           policies: Sequence[str] = PLACEMENT_POLICIES,
                           engine: Optional[ExecutionEngine] = None,
                           observer: Optional[Observer] = None
                           ) -> FleetComparisonResult:
    """Route the same trace under each policy (cells resolve once -
    the engine cache dedupes across policies)."""
    results = tuple(
        run_fleet(fleet, trace, policy=policy, engine=engine,
                  observer=observer)
        for policy in policies)
    return FleetComparisonResult(fleet=fleet, trace=trace, results=results)


# -- streaming aggregates --------------------------------------------------------

@dataclass
class FleetStreamResult:
    """A routing kept as aggregates, not outcomes.

    Mirrors the :class:`FleetResult` read API (request counts, energy,
    carbon, latency percentiles, misses, fingerprint, render) so
    comparisons and the CLI treat both uniformly - but holds O(nodes +
    sketch + sampled records) state, never O(requests).
    """

    fleet: FleetSpec
    trace: TraceSpec
    policy: str
    #: Rows per chunk (:data:`DEFAULT_CHUNK_SIZE` when it ran).
    chunk_rows: int
    n_chunks: int
    n_requests: int
    cells: Tuple[FleetCellProfile, ...]
    cells_executed: int
    dispatch_counts: Dict[str, int]
    #: Busy energy, computed exactly as sum(cell count x cell energy) -
    #: chunk-size independent.
    total_energy_j: float
    makespan_s: float
    deadline_misses: int
    sketch: LatencySketch
    busy_s_by_node: np.ndarray
    #: Sampled placement audit records: every ``sample_stride``-th
    #: dispatch plus every deadline miss, capped at
    #: :data:`MAX_SAMPLED_RECORDS`.
    placement_records: Tuple[DecisionRecord, ...]
    #: Exact count of requests that *matched* the sampling criteria
    #: (kept + dropped by the cap) - nothing is lost silently.
    records_matched: int
    sample_stride: int
    digest: str
    #: Carbon mass across the fleet, grams (0 on carbon-blind fleets);
    #: equal to :attr:`FleetResult.total_carbon_g` to the bit.
    total_carbon_g: float = 0.0

    # -- accounting (FleetResult-compatible surface) -----------------------------

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
        return _idle_energy_j(self.fleet, self.makespan_s,
                              self.busy_s_by_node.tolist())

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """The incremental column digest (chunk-size independent)."""
        return self.digest

    def render(self) -> str:
        return _render_dispatch(
            self, "Fleet dispatch (streaming)",
            f"{self.n_requests} "
            f"({self.n_chunks} chunks of <= {self.chunk_rows})",
            f"{self.latency_percentile_s(95):.2f} s "
            f"(sketch, +/-{self.sketch.rel_err:.0%})",
            [("sampled records", f"{len(self.placement_records)} kept of "
                                 f"{self.records_matched} matched "
                                 f"(stride {self.sample_stride} + misses)")])


def dispatch_stream(fleet: FleetSpec, trace: TraceSpec,
                    policy: str = "energy_aware",
                    engine: Optional[ExecutionEngine] = None,
                    observer: Optional[Observer] = None
                    ) -> FleetStreamResult:
    """Route ``trace`` over ``fleet``, keeping streaming aggregates.

    The same loop, placement decisions and timestamps as
    :func:`run_fleet`, at O(nodes + chunk) accounting state instead of
    O(requests): a latency sketch, per-column digests, and sampled
    decision records (:data:`DEFAULT_SAMPLE_STRIDE`,
    :data:`MAX_SAMPLED_RECORDS`).  On carbon-aware fleets it also keeps
    one float per request, for an exactly rounded carbon total.
    """
    loop = _DispatchLoop(fleet, trace, policy, engine, observer)
    n_workloads = len(trace.workloads)
    busy_s = np.zeros(len(loop.nodes), dtype=np.float64)
    cell_counts = np.zeros((len(_PLATFORM_ORDER), n_workloads),
                           dtype=np.int64)
    sketch = LatencySketch()
    digests = _ColumnDigests()
    carbon_g = array("d")
    makespan = 0.0
    misses_total = 0
    records: List[DecisionRecord] = []
    records_matched = 0
    n_chunks = 0
    for chunk in loop.chunks():
        misses_total += int(np.count_nonzero(chunk.missed))
        makespan = max(makespan, float(chunk.t_complete_s.max()))
        sketch.add_batch(chunk.t_complete_s - chunk.t_arrival_s)
        np.add.at(cell_counts, (chunk.kind_idx,
                                chunk.workload_idx.astype(np.int64)), 1)
        np.add.at(busy_s, chunk.node_index,
                  chunk.t_complete_s - chunk.t_start_s)
        digests.update(workload_idx=chunk.workload_idx,
                       t_arrival_s=chunk.t_arrival_s,
                       deadline_s=chunk.deadline_s,
                       node_index=chunk.node_index,
                       t_start_s=chunk.t_start_s,
                       t_complete_s=chunk.t_complete_s)
        if loop.carbon is not None:
            carbon_g.extend(loop.carbon_g(chunk))
        position = np.arange(chunk.start, chunk.start + len(chunk))
        sampled = np.flatnonzero(
            ((position % DEFAULT_SAMPLE_STRIDE) == 0) | chunk.missed)
        records_matched += len(sampled)
        for i in sampled[:max(0, MAX_SAMPLED_RECORDS - len(records))].tolist():
            records.append(loop.record(chunk, i))
            if loop.obs is not None:
                loop.obs.decision(records[-1])
        n_chunks += 1

    energy_safe = np.where(np.isnan(loop.energy_table), 0.0,
                           loop.energy_table)
    result = FleetStreamResult(
        fleet=fleet, trace=trace, policy=policy,
        chunk_rows=loop.chunk_rows, n_chunks=n_chunks,
        n_requests=loop.n_requests, cells=loop.cells,
        cells_executed=loop.cells_executed,
        dispatch_counts={"desktop": int(cell_counts[0].sum()),
                         "tablet": int(cell_counts[1].sum())},
        total_energy_j=float(np.sum(cell_counts * energy_safe)),
        makespan_s=makespan, deadline_misses=misses_total,
        sketch=sketch, busy_s_by_node=busy_s,
        placement_records=tuple(records),
        records_matched=records_matched,
        sample_stride=DEFAULT_SAMPLE_STRIDE,
        digest=_fold_stream_digest(fleet, trace, policy, loop.cells,
                                   digests, loop.n_requests),
        total_carbon_g=math.fsum(carbon_g))
    if loop.obs is not None:
        loop.obs.observe("fleet.energy_j", result.total_energy_j)
    return result
