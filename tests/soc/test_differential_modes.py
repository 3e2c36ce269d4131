"""Differential sweep: the fast clock mode vs the exact reference.

Every case in the grid - Table-1 workload x platform x fault level
{0.0, 0.3} x tenancy {solo, 2-tenant} - runs under both clock modes.
The fast candidate is held to the tolerance contract
(:func:`repro.harness.diff.compare_outcomes`): every observable within
``FAST_TOL * max(1, |exact|)``, and the ordered DecisionRecord
exit-path sequence *identical* - fast mode may wobble numerics inside
its budget but must never flip a scheduling decision.  Exact-mode
fingerprints of the solo clean cells are additionally checked against
the committed goldens, tying this sweep to the regression lock.

The default run sweeps a reduced grid (3 desktop + 2 tablet workloads,
all fault/tenancy combinations) so the tier-1 suite stays fast; set
``REPRO_DIFF_FULL=1`` for the full Table-1 breadth (CI's scheduled job
and pre-release checks do).
"""

import json
import os
from typing import Dict

import pytest

from repro.harness.diff import (
    CaseOutcome,
    DiffCase,
    compare_outcomes,
    grid_cases,
    run_case,
)
from repro.soc.spec import TICK_MODES

FULL = os.environ.get("REPRO_DIFF_FULL", "") == "1"

#: Reduced default breadth: a regular memory-bound workload (MB), an
#: irregular one (BS), and on the desktop the many-launch CC whose
#: perpetual PCU ramp is the known worst case for fast mode.
_REDUCED = {"desktop": ("MB", "CC", "BS"), "tablet": ("MB", "BS")}

CASES = grid_cases(workloads=None if FULL else _REDUCED)

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "goldens", "exact_mode.json")

#: Exact reference outcomes, computed once per case per test session
#: (each case's reference serves the fast candidate and the golden
#: check).
_references: Dict[DiffCase, CaseOutcome] = {}


def _reference(case: DiffCase) -> CaseOutcome:
    outcome = _references.get(case)
    if outcome is None:
        outcome = run_case(case, "exact")
        _references[case] = outcome
    return outcome


def _ids(case: DiffCase) -> str:
    return case.label


@pytest.mark.parametrize("mode", [m for m in TICK_MODES if m != "exact"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_mode_within_contract(case, mode):
    report = compare_outcomes(_reference(case), run_case(case, mode))
    assert report.ok, report.describe()


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if c.tenants == 1 and c.fault_level == 0.0],
    ids=_ids)
def test_exact_fingerprint_agrees_with_goldens(case):
    """The sweep's own exact reference must be the recorded golden -
    otherwise the candidates are being compared against drifted
    semantics and the whole sweep is vacuous."""
    with open(GOLDENS_PATH) as fh:
        recorded = json.load(fh)["fingerprints"]
    entry = f"suite-eas/{case.platform}/{case.workload}"
    assert _reference(case).fingerprint == recorded[entry], (
        f"exact reference for {case.label} does not match the committed "
        f"golden {entry}; see tests/soc/test_golden_regression.py")


def test_grid_covers_fault_and_tenancy_axes():
    """The sweep above really exercises both fault levels and both
    tenancy arrangements on both platforms."""
    seen = {(c.platform, c.fault_level, c.tenants) for c in CASES}
    for platform in ("desktop", "tablet"):
        for fault in (0.0, 0.3):
            for tenants in (1, 2):
                assert (platform, fault, tenants) in seen
