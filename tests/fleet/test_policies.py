"""Fleet topology and placement policies (no simulation needed)."""

import pytest

from repro.errors import HarnessError, UnknownNameError
from repro.fleet import (
    PLACEMENT_POLICIES,
    FleetRequest,
    FleetSpec,
    FleetView,
    NodeSpec,
    make_policy,
)


def _request(workload="MM", t=0.0, deadline=60.0, req_id=0):
    return FleetRequest(req_id=req_id, t_arrival_s=t, workload=workload,
                        deadline_s=deadline)


def _view(n_nodes=4, desktop_fraction=0.5):
    fleet = FleetSpec(n_nodes=n_nodes, desktop_fraction=desktop_fraction)
    return FleetView(fleet.nodes())


class TestTopology:
    def test_node_mix_matches_fraction(self):
        nodes = FleetSpec(n_nodes=1000, desktop_fraction=0.3).nodes()
        desktops = sum(1 for n in nodes if n.platform_kind == "desktop")
        assert desktops == 300

    def test_interleave_not_blocked(self):
        nodes = FleetSpec(n_nodes=10, desktop_fraction=0.5).nodes()
        kinds = [n.platform_kind for n in nodes]
        assert kinds == ["tablet", "desktop"] * 5

    def test_prefix_mix_within_one_node(self):
        nodes = FleetSpec(n_nodes=100, desktop_fraction=0.37).nodes()
        for i in range(1, 101):
            desktops = sum(1 for n in nodes[:i]
                           if n.platform_kind == "desktop")
            assert abs(desktops - 0.37 * i) <= 1.0

    def test_node_names_stable(self):
        assert NodeSpec(index=7, platform_kind="tablet").name == "tablet-0007"

    def test_validation(self):
        with pytest.raises(HarnessError):
            FleetSpec(n_nodes=0)
        with pytest.raises(HarnessError):
            FleetSpec(desktop_fraction=1.5)
        with pytest.raises(HarnessError):
            FleetSpec(tick_mode="warp")
        with pytest.raises(HarnessError):
            NodeSpec(index=0, platform_kind="mainframe")
        # bool is not an int: True would key a second one-node fleet.
        for kwargs in ({"n_nodes": 2.5}, {"n_nodes": True},
                       {"seed": 1.0}, {"seed": False}):
            with pytest.raises(HarnessError, match="must be an int"):
                FleetSpec(**kwargs)

    def test_platform_specs_carry_fleet_tick_mode(self):
        fleet = FleetSpec(n_nodes=2, tick_mode="fast")
        assert fleet.platform_spec("desktop").tick_mode == "fast"
        assert fleet.platform_spec("tablet").tick_mode == "fast"


class TestFleetView:
    def test_eligibility_tablet_unsupported_workload(self):
        view = _view()
        # CC is desktop-only in the registry.
        assert view.eligible_kinds("CC") == ("desktop",)
        assert all(view.platform_kind(i) == "desktop"
                   for i in view.eligible_nodes("CC"))
        assert view.eligible_kinds("MM") == ("desktop", "tablet")

    def test_all_tablet_fleet_cannot_run_desktop_only(self):
        view = _view(desktop_fraction=0.0)
        assert view.eligible_kinds("CC") == ()

    def test_backlog_tracks_clock(self):
        view = _view()
        view.note_dispatch(0, "MM", t_complete=5.0)
        assert view.backlog_s(0) == 5.0
        view.now = 3.0
        assert view.backlog_s(0) == 2.0
        view.now = 7.0
        assert view.backlog_s(0) == 0.0

    def test_observed_only_after_completion(self):
        view = _view()
        view.note_dispatch(1, "MM", t_complete=2.0)
        kind = view.platform_kind(1)
        assert view.observed(kind, "MM") is None
        assert view.in_flight(kind, "MM") == 1
        view.note_completion(1, "MM", time_s=2.0, energy_j=10.0)
        stats = view.observed(kind, "MM")
        assert stats.count == 1
        assert stats.mean_energy_j == 10.0
        assert view.in_flight(kind, "MM") == 0

    def test_least_loaded_ties_break_low_index(self):
        view = _view()
        assert view.least_loaded([2, 0, 1]) == 2  # first of equals wins
        view.note_dispatch(2, "MM", t_complete=1.0)
        assert view.least_loaded([2, 0, 1]) == 0


class TestPolicies:
    def test_make_policy_all_names(self):
        for name in PLACEMENT_POLICIES:
            assert make_policy(name).name == name

    def test_make_policy_did_you_mean(self):
        with pytest.raises(UnknownNameError) as err:
            make_policy("energy_awre")
        assert "energy_aware" in err.value.suggestions

    def test_random_deterministic_per_seed(self):
        view_a, view_b = _view(8), _view(8)
        a = make_policy("random", seed=5)
        b = make_policy("random", seed=5)
        picks_a = [a.place(view_a, _request(req_id=i))[0] for i in range(20)]
        picks_b = [b.place(view_b, _request(req_id=i))[0] for i in range(20)]
        assert picks_a == picks_b
        assert picks_a != [make_policy("random", seed=6).place(
            _view(8), _request(req_id=i))[0] for i in range(20)]

    def test_round_robin_cycles_eligible(self):
        view = _view(4)  # tablet, desktop, tablet, desktop
        policy = make_policy("round_robin")
        picks = [policy.place(view, _request("MM", req_id=i))[0]
                 for i in range(4)]
        assert picks == [0, 1, 2, 3]
        picks = [policy.place(view, _request("CC", req_id=i))[0]
                 for i in range(3)]
        assert picks == [1, 3, 1]  # desktop-only

    def test_round_robin_unplaceable_raises(self):
        view = _view(desktop_fraction=0.0)
        with pytest.raises(HarnessError):
            make_policy("round_robin").place(view, _request("CC"))

    def test_least_loaded_avoids_backlog(self):
        view = _view(4)
        view.note_dispatch(0, "MM", t_complete=10.0)
        index, _ = make_policy("least_loaded").place(view, _request("MM"))
        assert index == 1

    def test_energy_aware_probes_then_prefers_cheap(self):
        view = _view(4)
        policy = make_policy("energy_aware")
        # Unknown classes: the first two placements probe one node of
        # each class (in-flight bounded to one per class).
        i1, reason1 = policy.place(view, _request())
        view.note_dispatch(i1, "MM", t_complete=1.0)
        assert reason1.startswith("probe:")
        i2, reason2 = policy.place(view, _request())
        view.note_dispatch(i2, "MM", t_complete=1.0)
        assert reason2.startswith("probe:")
        assert view.platform_kind(i1) != view.platform_kind(i2)
        # Feed back: tablet completions much cheaper.
        for index in (i1, i2):
            cheap = view.platform_kind(index) == "tablet"
            view.note_completion(index, "MM", time_s=1.0,
                                 energy_j=1.0 if cheap else 50.0)
        view.now = 2.0
        index, reason = policy.place(view, _request())
        assert view.platform_kind(index) == "tablet"
        assert reason.startswith("energy:tablet")

    def test_energy_aware_spills_under_backlog(self):
        view = _view(4)
        kinds = {view.platform_kind(i) for i in range(4)}
        assert kinds == {"desktop", "tablet"}
        # Mark tablet as cheap but back its nodes way up.
        view.note_completion(0, "MM", time_s=1.0, energy_j=1.0)
        view.note_completion(1, "MM", time_s=1.0, energy_j=40.0)
        for i in range(4):
            if view.platform_kind(i) == "tablet":
                view.note_dispatch(i, "MM", t_complete=100.0)
        index, reason = make_policy("energy_aware").place(view, _request())
        assert view.platform_kind(index) == "desktop"
        assert reason.startswith("spill:")

    def test_deadline_aware_prefers_feasible_cheap(self):
        view = _view(4)
        view.note_completion(0, "MM", time_s=30.0, energy_j=1.0)
        view.note_completion(1, "MM", time_s=1.0, energy_j=40.0)
        policy = make_policy("deadline_aware")
        # Slack deadline: cheap-but-slow tablet is feasible -> chosen.
        index, reason = policy.place(view, _request(deadline=60.0))
        assert view.platform_kind(index) == "tablet"
        assert reason.startswith("feasible:")
        # Tight deadline: only the desktop makes it.
        index, reason = policy.place(view, _request(deadline=5.0))
        assert view.platform_kind(index) == "desktop"
