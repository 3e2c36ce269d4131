"""Property suite for FleetView's least-loaded lookups.

FleetView keeps its dispatch state in class-major slot order (desktop
block, then tablet block, ascending node index within each) and
answers every per-class and per-eligible-set lookup with one argmin
over a slice.  The oracle here is the plain strict-``<`` scan over
nodes in eligible order, with ``max(0, free_at - now)`` backlogs in
Python floats: the first of equals wins.  Dispatch sequences are drawn
on a coarse time grid so that equal ``free_at`` values, ``free_at ==
now`` and several idle nodes come up constantly.

The dispatch loop's ``least_loaded`` placement answers the same
lookup from per-class heaps (``_SlotHeaps``); it is driven here through
nondecreasing dispatch sequences against the same scan, on drain
instants a few ulps apart, so that distinct instants rounding to one
backlog come up.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetSpec, FleetView
from repro.fleet.dispatcher import _SlotHeaps

#: CC runs on desktops only; MM runs on both classes.
WORKLOADS = ("CC", "MM")
SUPPORTS_TABLET = {"CC": False, "MM": True}

#: Coarse grids: many equal instants, many ties.
STEP_ST = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0))
SERVICE_ST = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)),
                       st.floats(0.0, 3.0, allow_nan=False))


def _oracle_least_loaded(free, now, candidates):
    best = candidates[0]
    best_backlog = max(0.0, free[best] - now)
    for i in candidates[1:]:
        backlog = max(0.0, free[i] - now)
        if backlog < best_backlog:
            best, best_backlog = i, backlog
    return best


def _oracle_order(kinds, workload):
    """Eligible nodes in eligible order: desktops, then tablets."""
    return [i for kind in ("desktop", "tablet")
            if kind != "tablet" or SUPPORTS_TABLET[workload]
            for i, k in enumerate(kinds) if k == kind]


def _check_lookups(view, kinds, free):
    assert list(view.slot_nodes) == _oracle_order(kinds, "MM")
    for kind in sorted(set(kinds)):
        members = [i for i, k in enumerate(kinds) if k == kind]
        assert (view.least_loaded_of_kind(kind, "MM")
                == _oracle_least_loaded(free, view.now, members))
    for workload in WORKLOADS:
        eligible = _oracle_order(kinds, workload)
        assert list(view.eligible_nodes(workload)) == eligible
        # The invariant the slice lookups rest on.
        assert (view.eligible_nodes(workload)
                == view.slot_nodes[:len(eligible)])
        if eligible:
            assert (view.least_loaded_eligible(workload)
                    == _oracle_least_loaded(free, view.now, eligible))


@st.composite
def fleets_and_dispatches(draw):
    fleet = FleetSpec(n_nodes=draw(st.integers(1, 200)),
                      desktop_fraction=draw(st.sampled_from(
                          (0.0, 0.3, 0.5, 1.0))))
    n = fleet.n_nodes
    steps = draw(st.lists(
        st.tuples(STEP_ST, st.integers(0, n - 1), SERVICE_ST),
        max_size=40))
    return fleet, steps


class TestLeastLoadedLookups:
    @given(case=fleets_and_dispatches())
    @settings(max_examples=150, deadline=None)
    def test_lookups_match_the_scan_oracle(self, case):
        fleet, steps = case
        view = FleetView(fleet.nodes())
        kinds = [node.platform_kind for node in fleet.nodes()]
        free = [0.0] * fleet.n_nodes
        _check_lookups(view, kinds, free)
        now = 0.0
        for step, node, service in steps:
            now += step
            view.now = now
            _check_lookups(view, kinds, free)
            t_complete = max(now, free[node]) + service
            view.note_dispatch(node, "MM", t_complete)
            free[node] = t_complete
            assert view.free_at(node) == t_complete
        view.now = now
        _check_lookups(view, kinds, free)

    @given(case=fleets_and_dispatches())
    @settings(max_examples=40, deadline=None)
    def test_scalar_reads_are_python_floats(self, case):
        fleet, steps = case
        view = FleetView(fleet.nodes())
        for step, node, service in steps:
            view.now += step
            view.note_dispatch(node, "MM", view.now + service)
        for index in range(fleet.n_nodes):
            assert type(view.free_at(index)) is float
            assert type(view.backlog_s(index)) is float


def test_rounding_ties_break_on_backlog_not_free_at():
    """Two distinct drain instants can round to one backlog; the first
    of equals in slot order must win, not the smaller ``free_at``."""
    ulp = 2.0 ** -52
    now = 2.0 ** -53
    early, late = 1.0 + 2 * ulp, 1.0 + 3 * ulp
    assert late - now == early - now  # round-half-even merges them
    view = FleetView(FleetSpec(n_nodes=2, desktop_fraction=1.0).nodes())
    view.note_dispatch(0, "MM", late)
    view.note_dispatch(1, "MM", early)
    view.now = now
    assert view.least_loaded_of_kind("desktop", "MM") == 0
    assert view.least_loaded_eligible("MM") == 0
    # An argmin over drain instants alone would pick node 1.
    assert int(np.argmin(view.slot_free_at)) == 1


#: Drain instants and services a few ulps apart around 1.0, plus
#: coarse values, so rounded-backlog ties and idle slots both occur.
ULP = 2.0 ** -52
INSTANT_ST = st.one_of(st.integers(0, 8).map(lambda k: 1.0 + k * ULP),
                       st.sampled_from((0.0, 0.5, 1.0, 2.0)))
HEAP_SERVICE_ST = st.one_of(st.integers(0, 4).map(lambda k: k * ULP),
                            st.sampled_from((0.0, 0.5, 1.0)))
#: Clock steps with low bits set: at ``now`` far below a drain instant
#: ``free_at - now`` rounds, and neighbouring instants can merge.
HEAP_STEP_ST = st.one_of(st.integers(0, 4).map(lambda k: k * 2.0 ** -53),
                         st.sampled_from((0.0, 0.5, 1.0 + ULP)))


@st.composite
def heap_cases(draw):
    n_nodes = draw(st.integers(1, 12))
    desktop_fraction = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    free = draw(st.lists(INSTANT_ST, min_size=n_nodes, max_size=n_nodes))
    now = draw(HEAP_STEP_ST)
    requests = draw(st.lists(
        st.tuples(HEAP_STEP_ST, st.sampled_from(WORKLOADS), HEAP_SERVICE_ST),
        max_size=40))
    cuts = draw(st.lists(st.integers(0, len(requests)), max_size=3))
    return n_nodes, desktop_fraction, free, now, requests, sorted(cuts)


class TestSlotHeaps:
    """``_SlotHeaps.route`` against the strict-``<`` scan, request by
    request, with its state carried across chunks."""

    # 1 + 3 * 2**-52 on slot 0 and 1 + 2**-51 on slot 1 round to one
    # backlog at now = 2**-53: the scan picks slot 0, where a plain
    # (free_at, slot) heap would pick slot 1.
    @given(case=heap_cases())
    @example(case=(2, 1.0, [1.0 + 3 * ULP, 1.0 + 2 * ULP], 2.0 ** -53,
                   [(0.0, "CC", 0.5)], []))
    @example(case=(4, 0.5, [1.0 + 3 * ULP, 1.0 + 2 * ULP, 0.0, 0.0],
                   2.0 ** -53, [(0.0, "CC", 0.5), (0.0, "MM", 0.0)], [1]))
    # A tie won below the top of a busy heap, then four more picks
    # that read the heap it leaves.
    @example(case=(8, 1.0, [1.25, 1.0 + 3 * ULP, 1.75, 2.0, 1.0 + 3 * ULP,
                            1.25, 2.0, 1.0 + 2 * ULP], 2.0 ** -53,
                   [(0.0, "CC", 0.5)] + [(0.0, "CC", 0.25)] * 4, []))
    @settings(max_examples=300, deadline=None)
    def test_route_matches_the_scan_oracle(self, case):
        n_nodes, desktop_fraction, initial, now, requests, cuts = case
        view = FleetView(FleetSpec(
            n_nodes=n_nodes, desktop_fraction=desktop_fraction).nodes())
        n_desktop = sum(1 for node in view.nodes
                        if node.platform_kind == "desktop")
        blocks = [(0, n_desktop), (n_desktop, n_nodes)]
        spans = {}
        for workload in WORKLOADS:
            span = tuple(b for b, (lo, hi) in enumerate(blocks)
                         if hi > lo and (b == 0 or SUPPORTS_TABLET[workload]))
            if span:
                assert view.eligible_span(workload) == (
                    blocks[span[0]][0], blocks[span[-1]][1])
                spans[workload] = span
        requests = [r for r in requests if r[1] in spans]
        view.slot_free_at[:] = initial
        heaps = _SlotHeaps(view.slot_free_at, blocks, now)

        free = list(initial)
        times, expected = [], []
        for step, workload, service in requests:
            now += step
            lo, hi = view.eligible_span(workload)
            slot = _oracle_least_loaded(free, now, list(range(lo, hi)))
            t_start = max(now, free[slot])
            free[slot] = t_start + service
            times.append(now)
            expected.append((slot, t_start, free[slot]))

        routed = []
        for lo, hi in zip([0] + cuts, cuts + [len(requests)]):
            chunk = requests[lo:hi]
            slots, starts, completes = heaps.route(
                times[lo:hi], (spans[w] for _, w, _ in chunk),
                ([service] * n_nodes for _, _, service in chunk))
            routed.extend(zip(slots, starts, completes))
        assert routed == expected
        assert view.slot_free_at.tolist() == free
