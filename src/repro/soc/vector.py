"""Cross-run vectorized-core sharing for ganged simulations.

The fast clock mode memoizes the expensive roofline/power
model evaluations (``IntegratedProcessor._rates_cached`` /
``_power_cached``).  Those memos are keyed on *every* model input and
their values are bit-identical to fresh evaluation, so two simulations
of the **same platform spec** can safely share one memo: the desktop
Table-1 suite replays the same launch/ramp transients across runs, and
a sweep's 11 alpha points re-evaluate largely overlapping
(frequency, configuration) grids.

:class:`VectorCore` is that shared store.  The harness engine installs
one per worker (see ``repro.harness.engine.execute_gang``) via the
ambient :func:`use_vector_core` context; every
:class:`~repro.soc.simulator.IntegratedProcessor` built inside the
context *adopts* the shared memo dicts for its platform instead of
starting cold.

Sharing is keyed on the platform spec **ignoring clock mode**: it
selects *how* the simulator steps, not what the models compute, so
exact and fast runs of one platform map to the same entries.  Exact-mode processors never consult the memos at
all (their tick loop calls the models directly), so adoption never
perturbs byte-stable fingerprints.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import Dict, Optional, Tuple

from repro.soc.spec import PlatformSpec

__all__ = [
    "VectorCore",
    "active_vector_core",
    "model_identity",
    "use_vector_core",
]


def model_identity(spec: PlatformSpec) -> PlatformSpec:
    """The spec fields that determine model outputs.

    The clock mode selects stepping strategy, not model values;
    normalizing it lets exact/fast siblings of one platform share
    entries.  The harness engine gangs
    :class:`~repro.harness.engine.RunSpec` batches by this identity.
    """
    return dataclasses.replace(spec, tick_mode="exact")


class VectorCore:
    """Shared rate/power model memos for one worker's gang of runs.

    Thread-compatible, not thread-safe: one core per worker process
    (or per serial engine pass), exactly how the engine installs it.
    """

    def __init__(self) -> None:
        self._memos: Dict[PlatformSpec, Tuple[dict, dict]] = {}
        #: Number of processors that adopted shared memos (diagnostic).
        self.adoptions = 0

    def adopt(self, spec: PlatformSpec) -> Tuple[dict, dict]:
        """Return ``(rates_memo, power_memo)`` shared across every
        compatible spec seen by this core."""
        key = model_identity(spec)
        memos = self._memos.get(key)
        if memos is None:
            memos = ({}, {})
            self._memos[key] = memos
        self.adoptions += 1
        return memos

    @property
    def platforms(self) -> int:
        """Distinct model identities this core is serving."""
        return len(self._memos)


_ACTIVE: contextvars.ContextVar[Optional[VectorCore]] = \
    contextvars.ContextVar("repro_vector_core", default=None)


def active_vector_core() -> Optional[VectorCore]:
    """The ambient :class:`VectorCore`, or None outside a gang."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use_vector_core(core: VectorCore):
    """Install ``core`` as the ambient vectorized core for the block.

    Every :class:`~repro.soc.simulator.IntegratedProcessor` constructed
    inside adopts the core's shared model memos for its platform.
    """
    token = _ACTIVE.set(core)
    try:
        yield core
    finally:
        _ACTIVE.reset(token)
