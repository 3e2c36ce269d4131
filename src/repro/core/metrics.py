"""Energy-related objective metrics.

The paper optimizes "any user-defined energy-related metric that can be
expressed as a function of power consumption and program execution
time".  The three named in the paper:

* total energy      E       = P * T
* energy-delay      EDP     = E * T   = P * T^2
* energy-delay^2    ED^2    = E * T^2 = P * T^3

:class:`EnergyMetric` covers the power-of-T family and accepts an
arbitrary ``f(power_w, time_s)`` for anything exotic.  Lower is always
better.

:class:`ConstrainedMetric` adds the production-side question the paper
leaves open (ROADMAP item 3): *finish by t at lowest energy/carbon*.
It is a base metric plus a per-invocation completion budget
``deadline_s``; the optimizer minimizes the base objective over the
feasible set ``{alpha : T(alpha) <= deadline_s}`` and falls back to
min-T (flagged infeasible) when that set is empty.  Constrained
metrics are addressable by name - ``"edp@2"`` is EDP with a 2-second
budget - so they flow through :func:`metric_by_name`, scheduler
specs, cache keys, and the service's JobSpec unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import SchedulingError, UnknownNameError, closest_names

MetricFn = Callable[[float, float], float]

#: Names reserved by the standard metrics below.  A ``custom_fn``
#: metric must not reuse one: the name is the cache/spec identity, and
#: a custom "edp" would silently alias the standard EDP in
#: ``SchedulerSpec.eas`` and engine cache keys.
_STANDARD_NAMES = ("energy", "edp", "ed2")


@dataclass(frozen=True)
class EnergyMetric:
    """An objective of the form ``power * time**delay_exponent`` or a
    custom function of (power, time)."""

    name: str
    delay_exponent: float = 1.0
    custom_fn: Optional[MetricFn] = None

    def __post_init__(self) -> None:
        if self.custom_fn is None and self.delay_exponent < 1.0:
            raise SchedulingError(
                "delay_exponent below 1 would not account for energy at all")
        if self.custom_fn is not None and self.name.lower() in _STANDARD_NAMES:
            raise SchedulingError(
                f"custom metric name {self.name!r} collides with the "
                f"standard metric of the same name; pick a distinct name "
                f"(standard names: {_STANDARD_NAMES})")

    def value(self, power_w: float, time_s: float) -> float:
        """Metric value; lower is better.

        ``time_s`` must be strictly positive - the same contract as
        :meth:`from_energy` (a zero-time run has no meaningful power
        reading, and accepting it here while ``from_energy`` rejects
        it made the two disagree on degenerate inputs).
        """
        if power_w < 0:
            raise SchedulingError("power must be non-negative")
        if time_s <= 0:
            raise SchedulingError("time must be positive")
        if self.custom_fn is not None:
            return self.custom_fn(power_w, time_s)
        return power_w * time_s ** self.delay_exponent

    def from_energy(self, energy_j: float, time_s: float) -> float:
        """Metric value from a measured (energy, time) pair."""
        if time_s <= 0:
            raise SchedulingError("time must be positive")
        return self.value(energy_j / time_s, time_s)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstrainedMetric(EnergyMetric):
    """A base energy metric under a per-invocation completion budget.

    Semantics: minimize the base objective over the *feasible set*
    ``{alpha : T(alpha) <= deadline_s}``; when the set is empty the
    optimizer falls back to the min-T grid point and the scheduler
    emits the ``deadline-infeasible`` exit path.  ``value`` itself is
    the base metric - the constraint lives in the feasible-set search,
    not in the objective's arithmetic.

    Built via :meth:`constrain` (or :func:`metric_by_name` with the
    ``"<base>@<deadline>"`` spelling, e.g. ``"edp@2"``); the canonical
    name embeds the deadline so the metric round-trips through every
    name-keyed surface (scheduler specs, cache keys, JobSpec).
    """

    #: Per-invocation predicted-completion budget, simulated seconds.
    deadline_s: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.custom_fn is not None:
            raise SchedulingError(
                "ConstrainedMetric requires a power-of-T base metric "
                "(custom_fn metrics have no name round-trip)")
        if not (isinstance(self.deadline_s, (int, float))
                and math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise SchedulingError(
                f"deadline_s must be positive and finite, "
                f"got {self.deadline_s!r}")

    @classmethod
    def constrain(cls, base: EnergyMetric,
                  deadline_s: float) -> "ConstrainedMetric":
        """``base`` under a ``deadline_s`` budget, canonically named."""
        if base.custom_fn is not None:
            raise SchedulingError(
                "cannot constrain a custom_fn metric "
                f"({base.name!r}): no name round-trip")
        if not (isinstance(deadline_s, (int, float))
                and math.isfinite(deadline_s) and deadline_s > 0):
            raise SchedulingError(
                f"deadline_s must be positive and finite, got {deadline_s!r}")
        base_name = base.name.split("@", 1)[0]
        return cls(name=f"{base_name}@{float(deadline_s):g}",
                   delay_exponent=base.delay_exponent,
                   deadline_s=float(deadline_s))

    @property
    def base_name(self) -> str:
        """Name of the unconstrained base metric (e.g. ``"edp"``)."""
        return self.name.split("@", 1)[0]

    def feasible(self, time_s: float) -> bool:
        """Whether a predicted completion time meets the budget."""
        return time_s <= self.deadline_s


#: Total energy use, E = P*T.
ENERGY = EnergyMetric(name="energy", delay_exponent=1.0)
#: Energy-delay product, EDP = P*T^2.
EDP = EnergyMetric(name="edp", delay_exponent=2.0)
#: Energy-delay-squared product, ED2 = P*T^3.
ED2 = EnergyMetric(name="ed2", delay_exponent=3.0)

_BY_NAME: Dict[str, EnergyMetric] = {m.name: m for m in (ENERGY, EDP, ED2)}


def metric_by_name(name: str) -> EnergyMetric:
    """Look up a metric by name: standard or deadline-constrained.

    Accepts the three standard names (``energy``/``edp``/``ed2``) and
    the constrained spelling ``"<base>@<deadline_s>"`` (e.g.
    ``"edp@2"``, ``"energy@0.5"``), which returns a
    :class:`ConstrainedMetric` over the named base.

    Raises :class:`~repro.errors.UnknownNameError` (which is also a
    :class:`~repro.errors.SchedulingError`) with did-you-mean
    suggestions on a miss.
    """
    key = name.lower()
    if "@" in key:
        base_name, _, deadline_text = key.partition("@")
        try:
            base = _BY_NAME[base_name]
        except KeyError:
            raise UnknownNameError(
                f"unknown metric {name!r}; the base of a constrained "
                f"metric must be one of {sorted(_BY_NAME)}",
                suggestions=closest_names(base_name, list(_BY_NAME)),
            ) from None
        try:
            deadline_s = float(deadline_text)
        except ValueError:
            raise SchedulingError(
                f"bad deadline {deadline_text!r} in metric name {name!r}; "
                f"expected '<base>@<seconds>' (e.g. 'edp@2')") from None
        return ConstrainedMetric.constrain(base, deadline_s)
    try:
        return _BY_NAME[key]
    except KeyError:
        raise UnknownNameError(
            f"unknown metric {name!r}; expected one of {sorted(_BY_NAME)} "
            f"or a constrained '<base>@<deadline_s>' (e.g. 'edp@2')",
            suggestions=closest_names(name, list(_BY_NAME)),
        ) from None
