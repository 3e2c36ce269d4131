"""Registry, suites and Table-1 structural data."""

import pytest

from repro.errors import UnknownNameError, WorkloadError
from repro.workloads.registry import (
    DESKTOP_SUITE,
    TABLET_SUITE,
    all_workloads,
    suite_workloads,
    workload_by_abbrev,
)


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(all_workloads()) == 12

    def test_paper_table1_order(self):
        assert [w.abbrev for w in all_workloads()] == DESKTOP_SUITE

    def test_lookup_case_insensitive(self):
        assert workload_by_abbrev("bfs").abbrev == "BFS"

    def test_unknown_abbrev(self):
        with pytest.raises(WorkloadError):
            workload_by_abbrev("XYZ")

    def test_unknown_abbrev_suggests(self):
        with pytest.raises(UnknownNameError) as info:
            workload_by_abbrev("CX")
        assert "CC" in info.value.suggestions

    def test_lookup_returns_a_fresh_instance(self):
        # Callers own what they get back and may mutate it; a shared
        # instance would leak one caller's changes into the next lookup.
        assert workload_by_abbrev("CC") is not workload_by_abbrev("CC")
        assert all_workloads()[0] is not all_workloads()[0]


class TestSuites:
    def test_desktop_suite_is_full(self):
        assert len(suite_workloads(tablet=False)) == 12

    def test_tablet_suite_is_the_paper_seven(self):
        tablet = suite_workloads(tablet=True)
        assert [w.abbrev for w in tablet] == TABLET_SUITE
        assert len(tablet) == 7
        assert all(w.tablet_supported for w in tablet)

    def test_non_tablet_workloads_reject_tablet_inputs(self):
        for w in all_workloads():
            if not w.tablet_supported:
                with pytest.raises(WorkloadError):
                    w.cost_model(tablet=True)
                with pytest.raises(WorkloadError):
                    w.invocations(tablet=True)


class TestTable1Statistics:
    """The compile-time columns of the paper's Table 1."""

    EXPECTED_INVOCATIONS = {
        "BH": 1, "BFS": 1748, "CC": 2147, "FD": 132, "MB": 1, "SL": 1,
        "SP": 2577, "BS": 2000, "MM": 1, "NB": 101, "RT": 1, "SM": 100,
    }
    EXPECTED_IRREGULAR = {"BH", "BFS", "CC", "FD", "MB", "SL", "SP"}

    @pytest.mark.parametrize("abbrev,count",
                             sorted(EXPECTED_INVOCATIONS.items()))
    def test_invocation_counts_match_paper(self, abbrev, count):
        assert workload_by_abbrev(abbrev).num_invocations == count

    def test_regular_irregular_split(self):
        irregular = {w.abbrev for w in all_workloads() if not w.regular}
        assert irregular == self.EXPECTED_IRREGULAR

    def test_invocations_all_positive(self):
        for w in all_workloads():
            assert all(i.n_items > 0 for i in w.invocations())
