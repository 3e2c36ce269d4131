"""``repro.fleet``: trace-driven dispatch over thousands of SoCs.

The paper answers "which alpha on *this* die"; this package lifts the
question one level: *which node* in a heterogeneous fleet gets the
kernel.  An open-loop arrival trace (diurnal / bursty / adversarial,
all seeded) streams kernel requests at a fleet mixing
``haswell_desktop`` and ``baytrail_tablet`` nodes; a pluggable
placement policy routes each request; per-node execution is the
existing black-box EAS stack, fanned out through the
:class:`~repro.harness.engine.ExecutionEngine` and its
content-addressed cache (identical platform-class x workload cells
dedupe across the whole fleet).  See docs/FLEET.md.

Layers:

* :mod:`repro.fleet.trace` - seeded arrival-trace generators;
* :mod:`repro.fleet.topology` - :class:`FleetSpec` / :class:`NodeSpec`;
* :mod:`repro.fleet.policies` - the placement policies and the
  fleet-visible signal surface (:class:`FleetView`);
* :mod:`repro.fleet.cells` - one node-class execution profile, run as
  a ``fleet-cell`` :class:`~repro.harness.engine.RunSpec`;
* :mod:`repro.fleet.dispatcher` - the event-driven dispatch loop and
  its two consumers: :func:`run_fleet` (every outcome, the byte-stable
  :class:`FleetResult`) and :func:`dispatch_stream` (bounded
  aggregates, :class:`FleetStreamResult`).
"""

from repro.fleet.cells import FleetCellProfile, run_fleet_cell
from repro.fleet.dispatcher import (
    FleetComparisonResult,
    FleetResult,
    FleetStreamResult,
    RequestOutcome,
    compare_fleet_policies,
    dispatch_stream,
    run_fleet,
)
from repro.fleet.policies import PLACEMENT_POLICIES, FleetView, make_policy
from repro.fleet.sketch import LatencySketch
from repro.fleet.topology import PLATFORM_KINDS, FleetSpec, NodeSpec
from repro.fleet.trace import (
    TRACE_KINDS,
    FleetRequest,
    TraceSpec,
    trace_columns,
)

__all__ = [
    "FleetCellProfile",
    "FleetComparisonResult",
    "FleetRequest",
    "FleetResult",
    "FleetSpec",
    "FleetStreamResult",
    "FleetView",
    "LatencySketch",
    "NodeSpec",
    "PLACEMENT_POLICIES",
    "PLATFORM_KINDS",
    "RequestOutcome",
    "TRACE_KINDS",
    "TraceSpec",
    "compare_fleet_policies",
    "dispatch_stream",
    "make_policy",
    "run_fleet",
    "run_fleet_cell",
    "trace_columns",
]
