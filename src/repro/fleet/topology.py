"""Fleet topology: which simulated SoCs exist, and in what mix.

A fleet is *declared*, not built: :class:`FleetSpec` is a frozen,
canonically serializable value (node count, desktop fraction, clock
mode, per-node EAS metric, seed) and :meth:`FleetSpec.nodes` expands
it deterministically.  Platform kinds interleave evenly through the
index space (not in blocks), so index-order policies like round-robin
see a representative mix from the first few dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.metrics import metric_by_name
from repro.errors import HarnessError, require_ints
from repro.soc.carbon import CarbonSpec
from repro.soc.spec import (
    PLATFORMS,
    TICK_MODES,
    PlatformSpec,
    platform_by_name,
)

#: The node classes a fleet mixes.  Every node of a class runs the
#: same :class:`~repro.soc.spec.PlatformSpec`, which is what lets the
#: engine dedupe their cells fleet-wide.
PLATFORM_KINDS: Tuple[str, ...] = tuple(PLATFORMS)


@dataclass(frozen=True)
class NodeSpec:
    """One node of the fleet: an index plus its platform class."""

    index: int
    platform_kind: str

    def __post_init__(self) -> None:
        if self.platform_kind not in PLATFORM_KINDS:
            raise HarnessError(
                f"unknown platform kind {self.platform_kind!r}; "
                f"expected one of {PLATFORM_KINDS}")
        if self.index < 0:
            raise HarnessError("node index must be >= 0")

    @property
    def name(self) -> str:
        """Stable node id, used to tag decision records and outcomes."""
        return f"{self.platform_kind}-{self.index:04d}"


@dataclass(frozen=True)
class FleetSpec:
    """Frozen description of one heterogeneous fleet."""

    n_nodes: int = 64
    #: Fraction of nodes that are ``haswell_desktop`` class; the rest
    #: are ``baytrail_tablet`` class.
    desktop_fraction: float = 0.5
    #: Simulator clock mode every node runs under (explicit - the
    #: fleet never touches the deprecated process-global default).
    tick_mode: str = "exact"
    #: Per-node EAS objective metric (the node layer stays black-box;
    #: the fleet only picks *where*, the node picks *how*).
    metric: str = "edp"
    seed: int = 2016
    #: Grid carbon-intensity signal the fleet operates under (None =
    #: carbon-blind dispatch).  Nodes map onto the signal's regions
    #: round-robin by index.
    carbon: Optional[CarbonSpec] = None

    def __post_init__(self) -> None:
        require_ints("fleet", n_nodes=self.n_nodes, seed=self.seed)
        if self.n_nodes < 1:
            raise HarnessError("fleet needs at least one node")
        if not 0.0 <= self.desktop_fraction <= 1.0:
            raise HarnessError("desktop_fraction must be in [0, 1]")
        if self.tick_mode not in TICK_MODES:
            raise HarnessError(f"tick_mode {self.tick_mode!r} not in "
                               f"{TICK_MODES}")
        metric_by_name(self.metric)  # fail fast with did-you-mean
        if self.carbon is not None and not isinstance(self.carbon,
                                                      CarbonSpec):
            raise HarnessError("fleet carbon must be a CarbonSpec or None")

    def nodes(self) -> Tuple[NodeSpec, ...]:
        """The node roster, platform kinds evenly interleaved.

        Node ``i`` is a desktop exactly when the running desktop quota
        ``floor((i+1) * fraction)`` advances at ``i`` - the standard
        Bresenham interleave, so any prefix of the fleet holds the
        declared mix to within one node.
        """
        f = self.desktop_fraction
        return tuple(
            NodeSpec(index=i,
                     platform_kind=("desktop"
                                    if math.floor((i + 1) * f)
                                    > math.floor(i * f)
                                    else "tablet"))
            for i in range(self.n_nodes))

    def platform_spec(self, platform_kind: str) -> PlatformSpec:
        """The :class:`PlatformSpec` one node class executes on."""
        return platform_by_name(platform_kind, self.tick_mode)

    def canonical(self) -> str:
        base = (f"{self.n_nodes}|{self.desktop_fraction!r}|{self.tick_mode}"
                f"|{self.metric}|{self.seed}")
        # Appended only when set: carbon-blind fleets keep their
        # pre-existing canonical form (golden fingerprints).
        if self.carbon is not None:
            base += f"|carbon|{self.carbon.canonical()}"
        return base
