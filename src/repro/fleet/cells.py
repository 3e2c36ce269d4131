"""Fleet cells: one node-class execution profile per (platform, kernel).

Every node of one platform class is the *same* simulated SoC, and the
per-node EAS run is deterministic - so "run workload W on node 731"
and "run W on node 88 of the same class" are byte-identical
simulations.  The dispatcher therefore never simulates per node: it
submits one ``fleet-cell`` :class:`~repro.harness.engine.RunSpec` per
distinct (platform class, workload) pair and the engine's
content-addressed cache dedupes the rest - a thousand-node fleet costs
as many simulations as it has distinct cells.

The profile it extracts is strictly software-visible (wall-clock of
the run, MSR-readable energy, the scheduler's own final alpha): the
fleet layer sees what a deployment agent could measure, never
simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import HarnessError
from repro.obs.observer import Observer
from repro.workloads.registry import workload_by_abbrev


@dataclass(frozen=True)
class FleetCellProfile:
    """Measured end-to-end profile of one (platform class, workload).

    It holds no per-invocation records: ``invocations`` is their
    count, and the node-local EAS decision records go to the run's
    observer, if any, not into the cached profile.  :meth:`canonical`
    returns ``canonical_text``, which :func:`run_fleet_cell` formats
    once from the run's full invocation list: fleet fingerprints keep
    that byte form, and a cached cell decodes as a few scalars and one
    string.
    """

    platform: str
    platform_kind: str
    workload: str
    tick_mode: str
    #: Wall-clock (simulated) seconds for one full request.
    time_s: float
    #: Software-visible package energy for one full request, joules.
    energy_j: float
    #: The EAS scheduler's converged GPU offload ratio.
    final_alpha: Optional[float]
    #: Invocations in one full request.
    invocations: int
    #: This cell's fingerprint line, formatted by :func:`run_fleet_cell`.
    canonical_text: str = field(repr=False)

    def canonical(self) -> str:
        return self.canonical_text


def run_fleet_cell(spec, observer: Optional[Observer] = None
                   ) -> FleetCellProfile:
    """Execute one fleet cell (the ``fleet-cell`` worker entry point).

    ``spec`` is a :class:`~repro.harness.engine.RunSpec` of kind
    ``fleet-cell``: EAS (per the spec's scheduler) running the full
    workload on the spec's platform, exactly like an application run -
    the node layer stays the paper's black-box pipeline.
    """
    from repro.harness.engine import KIND_FLEET_CELL
    from repro.harness.experiment import run_application
    from repro.harness.suite import get_characterization

    if spec.kind != KIND_FLEET_CELL:
        raise HarnessError(f"run_fleet_cell got a {spec.kind!r} spec")
    workload = workload_by_abbrev(spec.workload)
    characterization = None
    if spec.scheduler.kind == "eas":
        characterization = get_characterization(spec.platform)
    scheduler = spec.scheduler.build(characterization)
    run = run_application(spec.platform, workload, scheduler,
                          strategy_name=spec.scheduler.strategy_name,
                          tablet=spec.tablet, observer=observer)
    platform_kind = "tablet" if spec.tablet else "desktop"
    alpha = "" if run.final_alpha is None else repr(run.final_alpha)
    return FleetCellProfile(
        platform=spec.platform.name,
        platform_kind=platform_kind,
        workload=spec.workload,
        tick_mode=spec.platform.tick_mode,
        time_s=run.time_s,
        energy_j=run.energy_j,
        final_alpha=run.final_alpha,
        invocations=len(run.invocations),
        # The line embeds ``str`` of the full invocation list: the
        # pinned fleet fingerprints hash that form.
        canonical_text=(
            f"{spec.platform.name}|{platform_kind}|{spec.workload}"
            f"|{spec.platform.tick_mode}|{run.time_s!r}|{run.energy_j!r}"
            f"|{alpha}|{run.invocations}"))
