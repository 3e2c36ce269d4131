"""Placement policies: which node gets the kernel.

The policy surface is deliberately *fleet-visible only*
(:class:`FleetView`): node platform class, per-node queue backlog, and
shared per-(class, workload) summaries accumulated from *completed*
requests - the fleet-level analogue of the paper's table G.  No policy
reads simulator internals or un-completed results; ``energy_aware``
has to learn the energy asymmetry between node classes the same way a
deployment would, by observing finished work (with one outstanding
probe per unknown class so cold-start exploration is bounded).

Five policies (:data:`PLACEMENT_POLICIES`):

* ``random`` - seeded uniform choice over eligible nodes (the
  baseline the acceptance benchmark beats);
* ``round_robin`` - cycling cursor over the node index space;
* ``least_loaded`` - minimum queue backlog, lowest index on ties;
* ``energy_aware`` - cheapest observed energy class, least-loaded
  node within it, spilling to the overall least-loaded node when the
  cheap class backs up past a few service times;
* ``deadline_aware`` - among classes predicted to make the request's
  deadline, the lowest-energy one; otherwise earliest predicted
  finish.

Every policy is deterministic given (fleet, trace, seed): ``random``
derives its stream from the fleet seed, the rest are pure functions of
the view.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HarnessError, UnknownNameError, closest_names
from repro.fleet.topology import PLATFORM_KINDS, NodeSpec
from repro.workloads.registry import workload_by_abbrev

#: The placement policies :func:`make_policy` builds.
PLACEMENT_POLICIES: Tuple[str, ...] = (
    "random", "round_robin", "least_loaded", "energy_aware",
    "deadline_aware")

#: ``energy_aware`` spills off its preferred class when that class's
#: best backlog exceeds the alternative's by this many observed mean
#: service times.
SPILL_SERVICE_FACTOR = 4.0

#: XOR salt decorrelating :class:`RandomPolicy`'s stream from the
#: trace generator's (both are seeded from the fleet seed).  Shared
#: with the streaming dispatcher, which must replay the exact same
#: draw sequence.
RANDOM_POLICY_SALT = 0x9E3779B9


@dataclass
class CellStats:
    """Fleet-visible summary of completed (class, workload) requests."""

    count: int = 0
    total_time_s: float = 0.0
    total_energy_j: float = 0.0

    @property
    def mean_time_s(self) -> float:
        # Zero-count guard: a cell with no completed requests (empty
        # trace, or every dispatch spilled elsewhere) reports zero
        # mean rather than raising ZeroDivisionError mid-dispatch.
        return self.total_time_s / self.count if self.count else 0.0

    @property
    def mean_energy_j(self) -> float:
        return self.total_energy_j / self.count if self.count else 0.0


class FleetView:
    """The signals a placement policy may read - nothing else.

    Owned and mutated by the dispatcher (clock advance, backlog
    updates, completion accounting); policies get a read-only
    protocol: eligibility, backlogs, observed summaries, in-flight
    counts.

    Dispatch state lives in **class-major slot order**: the desktop
    block, then the tablet block, ascending node index within each.
    Every eligible set is a run of whole classes in that same order,
    so each class and each eligible set is one contiguous slice of
    :attr:`slot_free_at`, and a least-loaded lookup is one argmin over
    a view.  ``argmin`` keeps the first of equals, which is exactly
    the strict-``<`` scan's tie-break in eligible order.  The dispatch
    loop's ``least_loaded`` placement answers the same lookup from
    per-class heaps over these slots and keeps :attr:`slot_free_at`
    and :attr:`now` current as it goes.
    """

    def __init__(self, nodes: Sequence[NodeSpec]) -> None:
        self.nodes: Tuple[NodeSpec, ...] = tuple(nodes)
        self.now: float = 0.0
        #: Node index held by each slot (class-major order).
        self.slot_nodes: Tuple[int, ...] = tuple(
            n.index for kind in PLATFORM_KINDS for n in self.nodes
            if n.platform_kind == kind)
        #: Slot of each node, by node index.
        self.node_slots: Tuple[int, ...] = tuple(
            np.argsort(self.slot_nodes).tolist())
        #: Fleet-clock instant each slot's queue drains.
        self.slot_free_at: np.ndarray = np.zeros(len(self.nodes))
        #: Slot range [lo, hi) of each platform class present.
        self._kind_span: Dict[str, Tuple[int, int]] = {}
        lo = 0
        for kind in PLATFORM_KINDS:
            count = sum(1 for n in self.nodes if n.platform_kind == kind)
            if count:
                self._kind_span[kind] = (lo, lo + count)
                lo += count
        self._stats: Dict[Tuple[str, str], CellStats] = {}
        self._in_flight: Dict[Tuple[str, str], int] = {}
        self._eligible_kinds: Dict[str, Tuple[str, ...]] = {}
        self._eligible_span: Dict[str, Tuple[int, int]] = {}

    # -- topology & eligibility --------------------------------------------------

    def platform_kind(self, index: int) -> str:
        return self.nodes[index].platform_kind

    def eligible_kinds(self, workload: str) -> Tuple[str, ...]:
        """Node classes (present in this fleet) that can run ``workload``."""
        cached = self._eligible_kinds.get(workload)
        if cached is None:
            spec = workload_by_abbrev(workload)
            cached = tuple(
                kind for kind in PLATFORM_KINDS
                if kind in self._kind_span
                and (kind == "desktop" or spec.tablet_supported))
            self._eligible_kinds[workload] = cached
        return cached

    def eligible_span(self, workload: str) -> Tuple[int, int]:
        """Slot range [lo, hi) of the nodes that can run ``workload``.

        The eligible classes are adjacent in slot order, so their
        blocks join into one range.
        """
        span = self._eligible_span.get(workload)
        if span is None:
            kinds = self.eligible_kinds(workload)
            span = ((self._kind_span[kinds[0]][0],
                     self._kind_span[kinds[-1]][1]) if kinds else (0, 0))
            self._eligible_span[workload] = span
        return span

    def eligible_nodes(self, workload: str) -> Tuple[int, ...]:
        lo, hi = self.eligible_span(workload)
        return self.slot_nodes[lo:hi]

    def is_eligible(self, index: int, workload: str) -> bool:
        return self.nodes[index].platform_kind in self.eligible_kinds(workload)

    # -- load --------------------------------------------------------------------

    def free_at(self, index: int) -> float:
        """Fleet-clock instant this node's queue drains."""
        return self.slot_free_at.item(self.node_slots[index])

    def backlog_s(self, index: int) -> float:
        """Queued work ahead of a new arrival on this node, seconds."""
        return max(0.0, self.free_at(index) - self.now)

    def least_loaded_slot(self, lo: int, hi: int) -> int:
        """Slot of the minimum backlog in [lo, hi); the first of equals
        wins.  ``max(0, free_at - now)`` is the same IEEE operation as
        :meth:`backlog_s`, element by element."""
        return lo + int(
            np.maximum(self.slot_free_at[lo:hi] - self.now, 0.0).argmin())

    def least_loaded(self, indices: Sequence[int]) -> int:
        """Minimum backlog; the first of equals in ``indices`` wins
        (deterministic for any fixed candidate order).  For short
        ad-hoc candidate lists; whole classes and eligible sets go
        through :meth:`least_loaded_slot`."""
        best = indices[0]
        best_backlog = self.backlog_s(best)
        for i in indices[1:]:
            backlog = self.backlog_s(i)
            if backlog < best_backlog:
                best, best_backlog = i, backlog
        return best

    def least_loaded_of_kind(self, kind: str, workload: str) -> int:
        lo, hi = self._kind_span[kind]
        return self.slot_nodes[self.least_loaded_slot(lo, hi)]

    def least_loaded_eligible(self, workload: str) -> int:
        """The least-loaded node that can run ``workload``."""
        return self.slot_nodes[
            self.least_loaded_slot(*self.eligible_span(workload))]

    # -- shared summaries (the fleet's table G) ----------------------------------

    def observed(self, kind: str, workload: str) -> Optional[CellStats]:
        """Summary of *completed* requests for this cell, or None."""
        return self._stats.get((kind, workload))

    def in_flight(self, kind: str, workload: str) -> int:
        return self._in_flight.get((kind, workload), 0)

    # -- dispatcher-side mutation ------------------------------------------------

    def note_dispatch(self, index: int, workload: str,
                      t_complete: float) -> None:
        kind = self.platform_kind(index)
        self.slot_free_at[self.node_slots[index]] = t_complete
        key = (kind, workload)
        self._in_flight[key] = self._in_flight.get(key, 0) + 1

    def note_completion(self, index: int, workload: str, time_s: float,
                        energy_j: float) -> None:
        kind = self.platform_kind(index)
        key = (kind, workload)
        self._in_flight[key] = self._in_flight.get(key, 1) - 1
        stats = self._stats.setdefault(key, CellStats())
        stats.count += 1
        stats.total_time_s += time_s
        stats.total_energy_j += energy_j


# -- the policies ----------------------------------------------------------------

class PlacementPolicy:
    """One placement strategy; ``place`` returns (node index, reason)."""

    name = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        raise NotImplementedError


class RandomPolicy(PlacementPolicy):
    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        # Decorrelated from the trace generator's stream.
        self._rng = random.Random(seed ^ RANDOM_POLICY_SALT)

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        eligible = view.eligible_nodes(request.workload)
        return eligible[self._rng.randrange(len(eligible))], "uniform"


class RoundRobinPolicy(PlacementPolicy):
    name = "round_robin"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._cursor = 0

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        n = len(view.nodes)
        for step in range(n):
            index = (self._cursor + step) % n
            if view.is_eligible(index, request.workload):
                self._cursor = index + 1
                return index, "cursor"
        raise HarnessError(
            f"no node in this fleet can run workload {request.workload!r}")


class LeastLoadedPolicy(PlacementPolicy):
    name = "least_loaded"

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        index = view.least_loaded_eligible(request.workload)
        return index, f"backlog={view.backlog_s(index):.3f}s"


class EnergyAwarePolicy(PlacementPolicy):
    name = "energy_aware"

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        workload = request.workload
        kinds = view.eligible_kinds(workload)
        known = sorted(
            (view.observed(kind, workload).mean_energy_j, kind)
            for kind in kinds if view.observed(kind, workload) is not None)
        # Bounded exploration: at most one outstanding probe per
        # unknown class, so a slow class cannot swallow a burst before
        # its first completion reports back.
        for kind in kinds:
            if (view.observed(kind, workload) is None
                    and view.in_flight(kind, workload) == 0):
                return (view.least_loaded_of_kind(kind, workload),
                        f"probe:{kind}")
        if not known:
            return view.least_loaded_eligible(workload), "cold-start"
        energy, best_kind = known[0]
        index = view.least_loaded_of_kind(best_kind, workload)
        if len(kinds) > 1:
            # Spill once the cheap class backs up past a few service
            # times: latency is traded, energy preference is not a
            # starvation policy.
            alternatives = [view.least_loaded_of_kind(kind, workload)
                            for kind in kinds if kind != best_kind]
            alt = view.least_loaded(alternatives)
            threshold = (SPILL_SERVICE_FACTOR
                         * view.observed(best_kind, workload).mean_time_s)
            if view.backlog_s(index) > view.backlog_s(alt) + threshold:
                return alt, f"spill:{view.platform_kind(alt)}"
        return index, f"energy:{best_kind}={energy:.2f}J"


class DeadlineAwarePolicy(PlacementPolicy):
    name = "deadline_aware"

    def place(self, view: FleetView, request) -> Tuple[int, str]:
        workload = request.workload
        candidates = []
        for kind in view.eligible_kinds(workload):
            index = view.least_loaded_of_kind(kind, workload)
            stats = view.observed(kind, workload)
            # Optimistic-zero for unseen cells: the first completion
            # replaces hope with a measurement.
            service = stats.mean_time_s if stats is not None else 0.0
            energy = stats.mean_energy_j if stats is not None else 0.0
            finish = view.now + view.backlog_s(index) + service
            candidates.append((finish, energy, kind, index))
        absolute_deadline = request.t_arrival_s + request.deadline_s
        feasible = [c for c in candidates if c[0] <= absolute_deadline]
        if feasible:
            finish, energy, kind, index = min(
                feasible, key=lambda c: (c[1], c[0], c[2]))
            return index, f"feasible:{kind}"
        finish, energy, kind, index = min(
            candidates, key=lambda c: (c[0], c[2]))
        return index, f"best-effort:{kind}"


_POLICY_CLASSES = {
    RandomPolicy.name: RandomPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    EnergyAwarePolicy.name: EnergyAwarePolicy,
    DeadlineAwarePolicy.name: DeadlineAwarePolicy,
}


def make_policy(name: str, seed: int = 0) -> PlacementPolicy:
    """Build a placement policy by name (did-you-mean on misses)."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown placement policy {name!r}; expected one of "
            f"{PLACEMENT_POLICIES}",
            suggestions=closest_names(name, list(PLACEMENT_POLICIES))
        ) from None
    return cls(seed=seed)
