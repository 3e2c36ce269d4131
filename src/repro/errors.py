"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by the
layer that raises them: the simulated SoC substrate, the parallel
runtime, the characterization/scheduling core, and the workload suite.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecError(ReproError):
    """A platform specification is inconsistent or out of range."""


class SimulationError(ReproError):
    """The SoC simulator was driven into an invalid state."""


class CounterError(ReproError):
    """A performance counter was misused (e.g. stopped before started)."""


class GpuFaultError(ReproError):
    """A GPU launch failed or hung (transient device-level fault).

    Raised by the fault-injection substrate (:mod:`repro.soc.faults`)
    in place of a completed phase.  Schedulers that talk to the GPU
    must treat this as a recoverable condition: the offloaded items
    remain in the shared pool and can be retried or drained on the CPU.
    """


class RuntimeLayerError(ReproError):
    """The parallel_for runtime layer was misused."""


class SchedulingError(ReproError):
    """The energy-aware scheduler received invalid inputs."""


class CharacterizationError(ReproError):
    """Power characterization failed (bad sweep, degenerate fit, ...)."""


class ClassificationError(ReproError):
    """Online workload classification received invalid measurements."""


class WorkloadError(ReproError):
    """A benchmark workload was configured with invalid parameters."""


class HarnessError(ReproError):
    """The experiment harness was asked for an unknown experiment."""


class ObservabilityError(ReproError):
    """The observability layer was misused or an export failed validation."""


class ServiceError(ReproError):
    """The scheduler service (daemon, job queue, durable store) failed."""


class StoreSchemaError(ServiceError):
    """A durable store file's schema version does not match this code.

    Raised instead of silently misreading the file: a store written by
    a different schema version must be migrated (or discarded), never
    reinterpreted.
    """


class UnknownNameError(HarnessError, SchedulingError, WorkloadError):
    """A by-name lookup (metric, workload, experiment id) failed.

    One exception type for every registry miss, so the CLI and harness
    can catch a single class and print its did-you-mean suggestion.
    It additionally derives from the legacy per-layer classes
    (:class:`SchedulingError` for metrics, :class:`WorkloadError` for
    workloads) so pre-existing callers keep working.
    """

    def __init__(self, message: str, suggestions: "tuple[str, ...]" = ()) -> None:
        if suggestions:
            message = f"{message} (did you mean: {', '.join(suggestions)}?)"
        super().__init__(message)
        self.suggestions = tuple(suggestions)


def closest_names(name: str, candidates: "list[str] | tuple[str, ...]",
                  limit: int = 3) -> "tuple[str, ...]":
    """Did-you-mean candidates for a failed by-name lookup.

    Case-insensitive fuzzy match over the registry's names, for
    embedding in an :class:`UnknownNameError`.
    """
    import difflib

    lowered = {c.lower(): c for c in candidates}
    matches = difflib.get_close_matches(name.lower(), list(lowered),
                                        n=limit, cutoff=0.4)
    return tuple(lowered[m] for m in matches)


def require_ints(owner: str, **values: object) -> None:
    """Raise :class:`HarnessError` unless every value is an integer.

    ``bool`` is not an integer here: ``True`` would build a spec that
    canonicalizes apart from the ``1`` it equals.
    """
    import numbers

    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise HarnessError(f"{owner} {name} must be an int, "
                               f"not {value!r}")
