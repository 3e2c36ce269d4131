"""Deterministic fan-out execution engine with content-addressed caching.

Every figure, ablation, and chaos campaign in this repo decomposes
into *independent* simulations: one application run per static alpha,
one per (workload, strategy) pair, one chaos cell per (workload, fault
level), one characterization sweep per category.  The simulator is
deterministic by construction (fresh processor per run, seeded fault
streams), so these runs can execute in any order, in any process, and
produce byte-identical results - which is exactly what this engine
exploits, and what the equivalence tests in
``tests/harness/test_engine_equivalence.py`` pin down.

Three layers (see docs/PARALLELISM.md):

* :class:`RunSpec` - a frozen, picklable description of one
  simulation: platform spec, workload id, declarative scheduler
  config (:class:`SchedulerSpec`), tablet flag, fault level, seed.
  A spec knows its own :meth:`~RunSpec.cache_key` - a SHA-256 over a
  canonical JSON serialization plus :data:`CACHE_SCHEMA_VERSION`.
* :class:`ResultCache` - a content-addressed on-disk memo store for
  run results, keyed by spec hash.  Entries are checksummed;
  corrupted or truncated files are evicted and recomputed, never
  trusted.  Rooted at ``$REPRO_CACHE_DIR/runs`` by default.
* :class:`ExecutionEngine` - executes batches of specs either
  serially in-process (``jobs=1``, the debugging path and the
  equivalence baseline) or through a ``ProcessPoolExecutor``
  (``jobs>1``), fronting both with the cache.  Worker observers
  (spans, events, decisions, metrics) are merged back into the
  parent :class:`~repro.obs.observer.Observer` so traces stay whole.

The hot paths - :func:`~repro.harness.suite.sweep_alphas`,
:func:`~repro.harness.suite.evaluate_suite`,
:func:`~repro.harness.chaos.run_chaos_campaign`,
:meth:`~repro.core.characterization.PowerCharacterizer.characterize` -
build their grids as specs and run them through this engine, with no
second execution path; inputs a spec cannot describe (custom metrics,
subclassed workloads or configs) raise :class:`HarnessError` up front
and run in-process through :func:`~repro.harness.experiment.run_application`
instead.  The CLI exposes ``--jobs N`` and ``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from multiprocessing.connection import wait as wait_for_ready
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.baselines import (
    CpuOnlyScheduler,
    GpuOnlyScheduler,
    ProfiledPerfScheduler,
    RaceToIdleScheduler,
    StaticAlphaScheduler,
)
from repro.core.characterization import (
    CharacterizationMicrobench,
    PlatformCharacterization,
    sweep_step_problem,
)
from repro.core.metrics import metric_by_name
from repro.core.scheduler import EnergyAwareScheduler, SchedulerConfig
from repro.errors import HarnessError
from repro.harness.experiment import run_application
from repro.errors import SchedulingError
from repro.obs.observer import Observer
from repro.runtime.runtime import ConcordRuntime
from repro.runtime.tenancy import TenancySpec
from repro.soc.faults import FaultConfig
from repro.soc.simulator import IntegratedProcessor
from repro.soc.spec import PlatformSpec
from repro.soc.vector import VectorCore, model_identity, use_vector_core
from repro.workloads.base import Workload
from repro.workloads.registry import workload_by_abbrev

#: Version stamp folded into every cache key.  Bump whenever the
#: semantics of a cached payload change (simulator behaviour, result
#: dataclass layout, worker dispatch) so stale entries miss instead of
#: resurfacing as wrong results.
#:
#: v4: ``RunSpec.tenancy`` became a typed :class:`TenancySpec`
#: serialized as a canonical dict (was an opaque string), and the
#: ``fleet-cell`` kind joined the dispatch table.
#:
#: v5: the ``bounded`` tick mode landed (its tolerance field joined
#: the canonical platform dict) and workers execute specs in
#: model-identity gangs sharing a :class:`~repro.soc.vector.VectorCore`.
#:
#: v6: the ``fleet-dispatch`` kind joined the dispatch table and
#: ``RunSpec`` grew ``fleet``/``trace``/``policy``/``dispatch_mode``
#: (all in the canonical payload), so reference- and streaming-mode
#: fleet results are distinct cache entries.
#:
#: v7: constrained objectives landed - :class:`SchedulerSpec` grew
#: ``deadline_s`` and the ``race`` kind (race-to-idle), constrained
#: metric names (``"edp@2"``) flow through ``SchedulerSpec.metric``,
#: and fleet specs may carry carbon/deferral fields.  The scheduler
#: dict layout changed, so every pre-v7 entry must miss.
#:
#: v8: the ``bounded`` tick mode was removed and its tolerance field
#: left the canonical platform dict.
CACHE_SCHEMA_VERSION = 8

# -- task kinds -----------------------------------------------------------------

#: One application run under one scheduler (-> ApplicationRun).
KIND_APPLICATION = "application"
#: One chaos-campaign cell: EAS on a faulty SoC (-> ChaosCell).
KIND_CHAOS_CELL = "chaos-cell"
#: Clean CPU-alone ground-truth baseline (-> (time_s, energy_j)).
KIND_CHAOS_BASELINE = "chaos-baseline"
#: One characterization alpha sweep (-> List[SweepPoint]).
KIND_CHAR_SWEEP = "char-sweep"
#: One traced micro-benchmark timeline (-> PowerTrace).
KIND_MICROBENCH_TIMELINE = "microbench-timeline"
#: One multiprogram co-scheduling run: N tenant streams on one SoC
#: under a GPU lease arbiter (-> MultiprogramResult).
KIND_MULTIPROGRAM = "multiprogram"
#: One fleet dispatch cell: EAS running one workload end to end on one
#: node *class* of a simulated fleet (-> FleetCellProfile).  The fleet
#: dispatcher fans these out; identical (platform, workload, seed)
#: cells dedupe across thousands of nodes.
KIND_FLEET_CELL = "fleet-cell"
#: One full fleet dispatch: a trace routed over a fleet under one
#: placement policy and one dispatch mode (-> FleetResult or
#: FleetStreamResult).  Carries the fleet/trace specs, the policy
#: name, and ``dispatch_mode`` in its canonical form - the two modes
#: are distinct cache entries by construction.
KIND_FLEET_DISPATCH = "fleet-dispatch"

_ALL_KINDS = (KIND_APPLICATION, KIND_CHAOS_CELL, KIND_CHAOS_BASELINE,
              KIND_CHAR_SWEEP, KIND_MICROBENCH_TIMELINE, KIND_MULTIPROGRAM,
              KIND_FLEET_CELL, KIND_FLEET_DISPATCH)

#: Kinds whose worker rebuilds ``RunSpec.workload`` from the registry.
_REGISTRY_WORKLOAD_KINDS = (KIND_APPLICATION, KIND_CHAOS_CELL,
                            KIND_CHAOS_BASELINE, KIND_FLEET_CELL)

#: Dispatch-mode names accepted on a ``fleet-dispatch`` spec (kept in
#: sync with ``repro.fleet.dispatcher.DISPATCH_MODES``; duplicated
#: here because the engine must not import the fleet layer at module
#: scope - the fleet dispatcher imports the engine).
_FLEET_DISPATCH_MODES = ("reference", "streaming")

_SCHEDULER_KINDS = ("cpu", "gpu", "perf", "static", "eas", "race")
_STRATEGY_NAMES = {"cpu": "CPU", "gpu": "GPU", "perf": "PERF", "eas": "EAS",
                   "race": "RACE"}


def config_overrides(config: Optional[SchedulerConfig]
                     ) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize a :class:`SchedulerConfig` to its non-default fields.

    The tuple-of-pairs form is hashable (for frozen specs), picklable,
    and stable under field reordering, so it can participate in cache
    keys; ``SchedulerConfig(**dict(overrides))`` reconstructs an
    equivalent config in a worker process.
    """
    if config is None:
        return ()
    defaults = SchedulerConfig()
    pairs = [(f.name, getattr(config, f.name)) for f in fields(config)
             if getattr(config, f.name) != getattr(defaults, f.name)]
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class SchedulerSpec:
    """Declarative, picklable description of one scheduler.

    Workers rebuild the actual scheduler object from this spec (plus
    the platform characterization, for EAS), so scheduler *instances*
    - which hold profiling tables and observer references - never
    cross process boundaries.
    """

    kind: str
    #: Static GPU offload ratio (``kind == "static"`` only).
    alpha: Optional[float] = None
    #: Objective metric name (``kind == "eas"`` only).  Constrained
    #: spellings (``"edp@2"``) round-trip through
    #: :func:`~repro.core.metrics.metric_by_name`, so deadline-
    #: constrained objectives key the cache like any other metric.
    metric: str = "edp"
    #: Non-default :class:`SchedulerConfig` fields, canonicalized.
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Per-invocation deadline budget the race-to-idle scheduler
    #: idles out to (``kind == "race"`` only; None = pure sprint).
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULER_KINDS:
            raise HarnessError(
                f"unknown scheduler kind {self.kind!r}; "
                f"expected one of {_SCHEDULER_KINDS}")
        if self.kind == "static" and self.alpha is None:
            raise HarnessError("static scheduler spec needs an alpha")
        if self.deadline_s is not None:
            if self.kind != "race":
                raise HarnessError(
                    "deadline_s is a race scheduler knob; constrained "
                    "EAS carries its deadline in the metric name "
                    "(e.g. metric='edp@2')")
            try:
                RaceToIdleScheduler(deadline_s=self.deadline_s)
            except SchedulingError as exc:
                raise HarnessError(str(exc)) from exc

    # -- constructors ------------------------------------------------------------

    @classmethod
    def cpu(cls) -> "SchedulerSpec":
        return cls(kind="cpu")

    @classmethod
    def gpu(cls) -> "SchedulerSpec":
        return cls(kind="gpu")

    @classmethod
    def perf(cls) -> "SchedulerSpec":
        return cls(kind="perf")

    @classmethod
    def static(cls, alpha: float) -> "SchedulerSpec":
        return cls(kind="static", alpha=alpha)

    @classmethod
    def eas(cls, metric: object = "edp",
            config: Optional[SchedulerConfig] = None) -> "SchedulerSpec":
        """EAS under ``metric`` (a name or a metric object) and ``config``.

        Workers rebuild both from the spec, so both are checked here, in
        the submitting process: a metric object must equal the registry
        metric of its name (custom objectives do not), and ``config``
        must be a plain :class:`SchedulerConfig`.  Anything else raises
        :class:`HarnessError` rather than running a different scheduler
        in a worker.
        """
        name = metric if isinstance(metric, str) else metric.name
        resolved = metric_by_name(name)  # UnknownNameError on a miss
        if not isinstance(metric, str) and resolved != metric:
            raise HarnessError(
                f"metric {metric!r} is not the registry metric {name!r}; "
                f"a custom objective runs in-process with run_application")
        if config is not None and type(config) is not SchedulerConfig:
            raise HarnessError(
                f"{type(config).__name__} is not a plain SchedulerConfig; "
                f"a SchedulerSpec can only carry SchedulerConfig fields")
        return cls(kind="eas", metric=name, overrides=config_overrides(config))

    @classmethod
    def race(cls, deadline_s: Optional[float] = None) -> "SchedulerSpec":
        return cls(kind="race", deadline_s=deadline_s)

    # -- reconstruction ----------------------------------------------------------

    @property
    def strategy_name(self) -> str:
        if self.kind == "static":
            return f"static-{self.alpha:.2f}"
        return _STRATEGY_NAMES[self.kind]

    def eas_config(self) -> SchedulerConfig:
        return SchedulerConfig(**dict(self.overrides))

    def build(self, characterization=None) -> object:
        """Instantiate the scheduler this spec describes."""
        if self.kind == "cpu":
            return CpuOnlyScheduler()
        if self.kind == "gpu":
            return GpuOnlyScheduler()
        if self.kind == "perf":
            return ProfiledPerfScheduler()
        if self.kind == "race":
            return RaceToIdleScheduler(deadline_s=self.deadline_s)
        if self.kind == "static":
            return StaticAlphaScheduler(alpha=self.alpha)
        if characterization is None:
            raise HarnessError("EAS scheduler spec needs a characterization")
        return EnergyAwareScheduler(
            characterization, metric_by_name(self.metric),
            config=self.eas_config())


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation, fully described and picklable.

    ``workload`` is a registry abbreviation for application/chaos
    kinds and a category short code for characterization kinds;
    ``params`` carries kind-specific numeric knobs (e.g. the
    micro-benchmark timeline's alpha and repetition count) as a
    canonical tuple of pairs.
    """

    platform: PlatformSpec
    workload: str = ""
    scheduler: Optional[SchedulerSpec] = None
    kind: str = KIND_APPLICATION
    tablet: bool = False
    fault_level: float = 0.0
    seed: int = 0
    #: Characterization sweep grid step (``char-sweep`` only).
    sweep_step: float = 0.0
    #: The probing micro-benchmark (``char-sweep`` only).
    microbench: Optional[CharacterizationMicrobench] = None
    #: Kind-specific numeric parameters, canonicalized.
    params: Tuple[Tuple[str, float], ...] = ()
    #: Multiprogram tenancy description (``multiprogram`` only): a
    #: typed :class:`~repro.runtime.tenancy.TenancySpec`.
    tenancy: Optional[TenancySpec] = None
    #: Collect an Observer (spans/events/decisions/metrics) in the
    #: worker and return it for merging into the parent's.
    observe: bool = False
    #: Fleet topology (``fleet-dispatch`` only): a
    #: :class:`~repro.fleet.topology.FleetSpec`.  Typed loosely so the
    #: engine never imports the fleet layer at module scope.
    fleet: Optional[Any] = None
    #: Arrival trace (``fleet-dispatch`` only): a
    #: :class:`~repro.fleet.trace.TraceSpec`.
    trace: Optional[Any] = None
    #: Placement policy name (``fleet-dispatch`` only).
    policy: str = ""
    #: Dispatch implementation (``fleet-dispatch`` only): one of
    #: ``reference`` / ``streaming``.
    dispatch_mode: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise HarnessError(f"unknown run kind {self.kind!r}; "
                               f"expected one of {_ALL_KINDS}")
        if self.kind == KIND_FLEET_DISPATCH:
            if self.fleet is None or self.trace is None:
                raise HarnessError(
                    "fleet-dispatch spec needs a FleetSpec and a TraceSpec")
            if not self.policy:
                raise HarnessError(
                    "fleet-dispatch spec needs a placement policy name")
            if self.dispatch_mode not in _FLEET_DISPATCH_MODES:
                raise HarnessError(
                    f"fleet-dispatch spec needs dispatch_mode in "
                    f"{_FLEET_DISPATCH_MODES}, got {self.dispatch_mode!r}")
        elif (self.fleet is not None or self.trace is not None
                or self.policy or self.dispatch_mode):
            raise HarnessError(
                f"{self.kind} spec must leave fleet/trace/policy/"
                f"dispatch_mode empty")
        if self.kind in _REGISTRY_WORKLOAD_KINDS:
            workload_by_abbrev(self.workload)  # UnknownNameError on a miss
        if self.kind in (KIND_APPLICATION, KIND_CHAOS_CELL,
                         KIND_MULTIPROGRAM) and self.scheduler is None:
            raise HarnessError(f"{self.kind} spec needs a scheduler")
        if self.kind == KIND_CHAR_SWEEP:
            if self.microbench is None:
                raise HarnessError("char-sweep spec needs a microbench")
            problem = sweep_step_problem(self.sweep_step)
            if problem is not None:
                raise HarnessError(f"char-sweep spec: {problem}")
        if self.tenancy is not None and not isinstance(self.tenancy,
                                                       TenancySpec):
            raise HarnessError(
                f"tenancy must be a TenancySpec, got "
                f"{type(self.tenancy).__name__}")
        if self.kind == KIND_MULTIPROGRAM and self.tenancy is None:
            raise HarnessError("multiprogram spec needs a TenancySpec")

    def param(self, name: str, default: float = 0.0) -> float:
        return dict(self.params).get(name, default)

    # -- content addressing ------------------------------------------------------

    def canonical(self) -> str:
        """Canonical JSON form: the cache key's preimage.

        Floats serialize via ``repr`` (shortest round-trip form), so
        two specs hash equal exactly when every field is bit-equal.
        """
        bench = None
        if self.microbench is not None:
            bench = {
                "category": self.microbench.category.short_code,
                "cost": asdict(self.microbench.cost),
                "cpu_target_s": self.microbench.cpu_target_s,
                "repetitions": self.microbench.repetitions,
            }
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": self.kind,
            "platform": asdict(self.platform),
            "workload": self.workload,
            "scheduler": asdict(self.scheduler) if self.scheduler else None,
            "tablet": self.tablet,
            "fault_level": self.fault_level,
            "seed": self.seed,
            "sweep_step": self.sweep_step,
            "microbench": bench,
            "params": list(list(p) for p in self.params),
            "tenancy": (self.tenancy.canonical_dict()
                        if self.tenancy is not None else None),
            "observe": self.observe,
            "fleet": (self.fleet.canonical()
                      if self.fleet is not None else None),
            "trace": (self.trace.canonical()
                      if self.trace is not None else None),
            "policy": self.policy,
            "dispatch_mode": self.dispatch_mode,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def tick_mode(self) -> str:
        """Simulator clock mode this run executes under.

        Carried by the platform spec (and therefore part of
        :meth:`canonical`): fast- and exact-mode results are distinct
        cache entries.
        """
        return self.platform.tick_mode

    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class RunResult:
    """One executed (or cache-recalled) :class:`RunSpec`."""

    key: str
    #: ApplicationRun | ChaosCell | (time_s, energy_j) | List[SweepPoint]
    #: | PowerTrace, by spec kind.
    payload: Any
    #: Worker-side observer, when the spec asked for one.  Its sim
    #: clock is unbound (clocks do not cross process boundaries).
    observer: Optional[Observer] = None
    from_cache: bool = False


# -- entry-point guard -----------------------------------------------------------

def reconstructible_workload(workload: Workload) -> bool:
    """True when a worker can rebuild ``workload`` from its registry
    abbreviation alone: exact registry class, no instance state."""
    try:
        reference = workload_by_abbrev(workload.abbrev)
    except Exception:
        return False
    return type(reference) is type(workload) and not vars(workload)


def spec_workload(workload: Workload) -> str:
    """The abbreviation a :class:`RunSpec` carries for ``workload``.

    A subclassed or mutated workload would silently run as the registry
    workload of the same name in a worker, so it raises
    :class:`HarnessError` instead; such workloads run in-process
    through :func:`~repro.harness.experiment.run_application`.
    """
    if not reconstructible_workload(workload):
        raise HarnessError(
            f"workload {workload.abbrev!r} ({type(workload).__name__}) is "
            f"not a registry workload a RunSpec can describe; run it "
            f"in-process with run_application")
    return workload.abbrev


# -- worker-side execution -------------------------------------------------------

def _characterization_for(platform: PlatformSpec):
    # Lazy import: suite imports this module at load time.
    from repro.harness.suite import get_characterization

    return get_characterization(platform)


def _run_application_spec(spec: RunSpec,
                          observer: Optional[Observer]) -> Any:
    workload = workload_by_abbrev(spec.workload)
    characterization = None
    if spec.scheduler.kind == "eas":
        characterization = _characterization_for(spec.platform)
    scheduler = spec.scheduler.build(characterization)
    fault_config = (FaultConfig.from_level(spec.fault_level, seed=spec.seed)
                    if spec.fault_level > 0.0 else None)
    return run_application(spec.platform, workload, scheduler,
                           strategy_name=spec.scheduler.strategy_name,
                           tablet=spec.tablet, observer=observer,
                           fault_config=fault_config)


def _run_chaos_cell_spec(spec: RunSpec, observer: Optional[Observer]) -> Any:
    from repro.harness.chaos import run_chaos_cell

    workload = workload_by_abbrev(spec.workload)
    characterization = _characterization_for(spec.platform)
    return run_chaos_cell(spec.platform, workload, characterization,
                          spec.fault_level, seed=spec.seed,
                          metric=metric_by_name(spec.scheduler.metric),
                          eas_config=spec.scheduler.eas_config())


def _run_chaos_baseline_spec(spec: RunSpec,
                             observer: Optional[Observer]) -> Any:
    # Ground-truth clean CPU-alone baseline, exactly as the campaign
    # measured it inline before the engine existed (byte-compatible
    # fingerprints depend on this).
    workload = workload_by_abbrev(spec.workload)
    inner = IntegratedProcessor(spec.platform)
    runtime = ConcordRuntime(inner, observer=observer)
    scheduler = CpuOnlyScheduler()
    kernel = workload.make_kernel()
    t0, e0 = inner.now, inner.msr.lifetime_joules
    for inv in workload.invocations():
        runtime.parallel_for(kernel, inv.n_items, scheduler)
    return (inner.now - t0, inner.msr.lifetime_joules - e0)


def _run_char_sweep_spec(spec: RunSpec, observer: Optional[Observer]) -> Any:
    from repro.core.characterization import PowerCharacterizer

    characterizer = PowerCharacterizer(
        microbenches=[spec.microbench], sweep_step=spec.sweep_step,
        spec=spec.platform)
    return characterizer.sweep(spec.microbench)


def _run_microbench_timeline_spec(spec: RunSpec,
                                  observer: Optional[Observer]) -> Any:
    from repro.harness.figures import (
        _items_for_duration,
        _run_microbench_partitioned,
    )

    n_items = _items_for_duration(spec.platform, spec.workload,
                                  spec.param("cpu_seconds", 1.0))
    return _run_microbench_partitioned(
        spec.platform, spec.workload,
        alpha=spec.param("alpha"), n_items=n_items,
        repetitions=int(spec.param("repetitions", 1)),
        gap_s=spec.param("gap_s", 0.05))


def _run_multiprogram_spec(spec: RunSpec,
                           observer: Optional[Observer]) -> Any:
    from repro.runtime.tenancy import run_multiprogram

    tenancy = spec.tenancy
    return run_multiprogram(
        spec=spec.platform,
        tenants=tenancy.tenants,
        policy=tenancy.policy,
        seed=spec.seed,
        metric=metric_by_name(spec.scheduler.metric),
        tablet=spec.tablet,
        fault_level=spec.fault_level,
        lease_quantum=tenancy.lease_quantum,
        eas_config=spec.scheduler.eas_config(),
        observer=observer,
        characterization=_characterization_for(spec.platform))


def _run_fleet_cell_spec(spec: RunSpec, observer: Optional[Observer]) -> Any:
    from repro.fleet.cells import run_fleet_cell

    return run_fleet_cell(spec, observer=observer)


def _run_fleet_dispatch_spec(spec: RunSpec,
                             observer: Optional[Observer]) -> Any:
    # Lazy import: the fleet dispatcher imports this module, so the
    # engine resolves fleet types only inside the worker.
    from repro.fleet.dispatcher import run_fleet

    return run_fleet(spec.fleet, spec.trace, policy=spec.policy,
                     observer=observer,
                     dispatch_mode=spec.dispatch_mode or "reference")


_DISPATCH = {
    KIND_APPLICATION: _run_application_spec,
    KIND_CHAOS_CELL: _run_chaos_cell_spec,
    KIND_CHAOS_BASELINE: _run_chaos_baseline_spec,
    KIND_CHAR_SWEEP: _run_char_sweep_spec,
    KIND_MICROBENCH_TIMELINE: _run_microbench_timeline_spec,
    KIND_MULTIPROGRAM: _run_multiprogram_spec,
    KIND_FLEET_CELL: _run_fleet_cell_spec,
    KIND_FLEET_DISPATCH: _run_fleet_dispatch_spec,
}


def execute_spec(spec: RunSpec) -> RunResult:
    """Execute one spec in the current process (the worker entry point).

    The serial executor calls this directly, so ``jobs=1`` runs the
    *same code* as the pool workers - the equivalence tests compare
    the two paths byte for byte.
    """
    observer = None
    if spec.observe:
        observer = Observer(metadata={
            "kind": spec.kind, "platform": spec.platform.name,
            "workload": spec.workload, "engine.worker": True})
    payload = _DISPATCH[spec.kind](spec, observer)
    if observer is not None:
        # Simulated-clock bindings reference the (dead) processor and
        # do not pickle; spans keep their recorded sim timestamps.
        observer.bind_sim_clock(None)
    return RunResult(key=spec.cache_key(), payload=payload, observer=observer)


@dataclass(frozen=True)
class SpecGang:
    """An ordered batch of specs that may share one vectorized core.

    A gang is the engine's unit of model-memo sharing: every member
    resolves to the same :func:`~repro.soc.vector.model_identity`
    (platform modulo tick mode and tolerance), so the rate/power memos
    one member fills are bit-valid for every other.  Specs of *mixed*
    platforms must not be ganged - their model inputs differ - and
    :meth:`of` refuses to build one.

    Construct only via :meth:`of`; the constructor performs no
    validation (it must stay cheap for pickling into pool workers).
    """

    specs: Tuple[RunSpec, ...]

    @classmethod
    def of(cls, specs: Sequence[RunSpec]) -> "SpecGang":
        specs = tuple(specs)
        if not specs:
            raise HarnessError("a SpecGang needs at least one spec")
        identities = {model_identity(spec.platform) for spec in specs}
        if len(identities) > 1:
            names = sorted({spec.platform.name for spec in specs})
            raise HarnessError(
                "cannot gang specs with mixed platform model identities: "
                + ", ".join(names))
        return cls(specs=specs)

    def __len__(self) -> int:
        return len(self.specs)


def execute_gang(gang: SpecGang) -> List[RunResult]:
    """Execute a gang's specs in order under one shared vectorized core.

    The pool submits one of these per worker chunk; the serial path
    calls it directly, so ``jobs=1`` and ``jobs>1`` run identical code.
    Sharing never changes results: the core's memos hold bit-stable
    model evaluations only (see :mod:`repro.soc.vector`), so each
    member's payload is byte-identical to an un-ganged run - the
    engine-equivalence tests pin that down.
    """
    core = VectorCore()
    with use_vector_core(core):
        return [execute_spec(spec) for spec in gang.specs]


def _gang_positions(specs: Sequence[RunSpec]) -> List[List[int]]:
    """Group spec indices by platform model identity.

    Order-preserving twice over: gangs appear in first-seen order and
    each gang lists its member indices in submission order, so results
    can be placed back positionally.
    """
    groups: Dict[PlatformSpec, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(model_identity(spec.platform), []).append(i)
    return list(groups.values())


#: What a pool worker is seeded with: a platform and its default-grid fit.
CharacterizationSeed = Tuple[PlatformSpec, PlatformCharacterization]


def _seed_worker(characterizations: List[CharacterizationSeed]) -> None:
    """Pool initializer: pre-seed platform characterizations so a
    worker's lookup is always a memo hit and never characterizes."""
    from repro.harness.suite import remember_characterization

    for platform, characterization in characterizations:
        remember_characterization(platform, characterization)


# -- content-addressed result cache ----------------------------------------------

_MAGIC = b"EAS-RUN-CACHE\n"


class ResultCache:
    """On-disk memo store: ``<root>/<key[:2]>/<key>.pkl``.

    Each entry is ``MAGIC + sha256(payload) + payload`` where payload
    is the pickled :class:`RunResult`.  ``get`` verifies the magic and
    checksum and *evicts* (deletes) any entry that fails - a corrupted
    or truncated file costs one recomputation, never a wrong result.
    An eviction is never silent: it bumps the
    ``cache.corrupt_evictions`` counter on the attached observer and
    emits a one-line :class:`RuntimeWarning` naming the evicted key.
    The schema version lives in the cache *key* (see
    :meth:`RunSpec.canonical`), so version bumps miss cleanly.
    """

    def __init__(self, root: str,
                 observer: Optional[Observer] = None) -> None:
        self.root = root
        #: Metrics sink for cache counters; the engine points this at
        #: the batch observer for the duration of a run_batch call.
        self.observer = observer
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """Cache rooted under ``$REPRO_CACHE_DIR/runs``, if set."""
        root = os.environ.get("REPRO_CACHE_DIR")
        return cls(os.path.join(root, "runs")) if root else None

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def get(self, key: str) -> Optional[RunResult]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self.misses += 1
            return None
        result = self._decode(blob)
        if result is None:
            self.evictions += 1
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            if self.observer is not None:
                self.observer.inc("cache.corrupt_evictions")
            warnings.warn(
                f"result cache: evicted corrupt entry {key} "
                f"({path}); it will be recomputed", RuntimeWarning,
                stacklevel=2)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(data).digest() + data
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    @staticmethod
    def _decode(blob: bytes) -> Optional[RunResult]:
        if not blob.startswith(_MAGIC):
            return None
        body = blob[len(_MAGIC):]
        if len(body) <= 32:
            return None
        digest, data = body[:32], body[32:]
        if hashlib.sha256(data).digest() != digest:
            return None
        try:
            result = pickle.loads(data)
        except Exception:
            return None
        if not isinstance(result, RunResult):
            return None
        result.from_cache = False
        return result


# -- the engine ------------------------------------------------------------------

class ExecutionEngine:
    """Batched spec execution: cache front, serial or pooled back.

    ``jobs=1`` executes in-process in submission order (the reference
    path); ``jobs>1`` fans uncached specs out to a process pool whose
    workers are pre-seeded with every needed platform
    characterization.  Results always return in submission order, and
    duplicate specs within one batch execute once.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        if int(jobs) < 1:
            raise HarnessError("jobs must be >= 1")
        self.jobs = int(jobs)
        self.cache = cache

    def run_batch(self, specs: Sequence[RunSpec],
                  observer: Optional[Observer] = None) -> List[RunResult]:
        specs = list(specs)
        obs = observer if observer is not None and observer.enabled else None
        if obs is not None and self.cache is not None:
            # Corruption evictions during this batch count on the
            # batch's observer (cache.corrupt_evictions).
            self.cache.observer = obs
        results: List[Optional[RunResult]] = [None] * len(specs)
        keys = [spec.cache_key() for spec in specs]
        first_for_key: Dict[str, int] = {}
        duplicate_of: Dict[int, int] = {}
        to_run: List[int] = []
        for i, key in enumerate(keys):
            if key in first_for_key:
                duplicate_of[i] = first_for_key[key]
                continue
            first_for_key[key] = i
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                cached.from_cache = True
                results[i] = cached
            else:
                to_run.append(i)

        if to_run:
            pending = [specs[i] for i in to_run]
            if self.jobs == 1 or len(pending) == 1:
                executed = self._run_serial(pending)
            else:
                executed = self._run_pool(pending)
            for i, result in zip(to_run, executed):
                results[i] = result
                if self.cache is not None:
                    self.cache.put(keys[i], result)
        for i, j in duplicate_of.items():
            results[i] = results[j]

        if obs is not None:
            self._observe_batch(obs, specs, results, executed=len(to_run))
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec,
                observer: Optional[Observer] = None) -> RunResult:
        return self.run_batch([spec], observer=observer)[0]

    # -- internals ---------------------------------------------------------------

    def _run_serial(self, specs: List[RunSpec]) -> List[RunResult]:
        executed: List[Optional[RunResult]] = [None] * len(specs)
        for positions in _gang_positions(specs):
            gang = SpecGang.of([specs[i] for i in positions])
            for i, result in zip(positions, execute_gang(gang)):
                executed[i] = result
        return executed  # type: ignore[return-value]

    def _run_pool(self, specs: List[RunSpec]) -> List[RunResult]:
        payload = self._characterization_payload(specs)
        # Chunk each model-identity gang into at most ``jobs`` pieces:
        # one big gang still saturates every worker, while each chunk
        # keeps enough siblings together to warm a shared core.
        chunks: List[List[int]] = []
        for positions in _gang_positions(specs):
            pieces = min(self.jobs, len(positions))
            size = -(-len(positions) // pieces)  # ceil division
            for start in range(0, len(positions), size):
                chunks.append(positions[start:start + size])
        workers = min(self.jobs, len(chunks))
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_seed_worker,
                                   initargs=(payload,))
        futures = []
        try:
            futures = [pool.submit(execute_gang,
                                   SpecGang.of([specs[i] for i in chunk]))
                       for chunk in chunks]
            results: List[Optional[RunResult]] = [None] * len(specs)
            for chunk, future in zip(chunks, futures):
                for i, result in zip(chunk, future.result()):
                    results[i] = result
        except BaseException:
            # KeyboardInterrupt / SIGTERM mid-batch: without this, the
            # plain `with` block would wait for every queued spec and
            # leave orphaned workers grinding on.  Cancel what has not
            # started, terminate what has, and reap every process.
            self._teardown_pool(pool, futures)
            raise
        pool.shutdown(wait=True)
        return results  # type: ignore[return-value]

    @staticmethod
    def _teardown_pool(pool: ProcessPoolExecutor, futures: List) -> None:
        for future in futures:
            future.cancel()
        # _processes and _executor_manager_thread are private but stable
        # across CPython 3.9-3.13; they are the only handles on workers
        # mid-task and on the thread that reaps them.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()
        # Wait on sentinels, not waitpid: the manager thread reaps these
        # same children, and a second waitpid caller loses with ECHILD,
        # which multiprocessing reports as "still running".
        pending = {process.sentinel: process for process in processes}
        deadline = time.monotonic() + 5.0
        while pending and time.monotonic() < deadline:
            for sentinel in wait_for_ready(
                    list(pending), timeout=deadline - time.monotonic()):
                del pending[sentinel]
        for process in pending.values():
            process.kill()
        if manager is not None:
            manager.join(timeout=5.0)
        # With the manager gone this thread is the only reaper left, so
        # the joins settle every returncode.
        for process in processes:
            process.join(timeout=1.0)

    def _characterization_payload(self, specs: List[RunSpec]
                                  ) -> List[CharacterizationSeed]:
        """Characterize (in the parent, possibly through this very
        engine) every platform the batch's EAS/chaos specs need."""
        platforms: Dict[PlatformSpec, None] = {}
        for spec in specs:
            needs = (spec.kind in (KIND_CHAOS_CELL, KIND_MULTIPROGRAM,
                                   KIND_FLEET_CELL)
                     or (spec.kind == KIND_APPLICATION
                         and spec.scheduler is not None
                         and spec.scheduler.kind == "eas"))
            if needs:
                platforms[model_identity(spec.platform)] = None
        from repro.harness.suite import get_characterization

        return [(platform, get_characterization(platform, engine=self))
                for platform in platforms]

    def _observe_batch(self, obs: Observer, specs: List[RunSpec],
                       results: List[RunResult], executed: int) -> None:
        obs.event("engine.batch", tasks=len(specs), executed=executed,
                  jobs=self.jobs)
        obs.inc("engine.tasks", len(specs))
        obs.inc("engine.executed", executed)
        obs.inc("engine.cache_hits",
                sum(1 for r in results if r.from_cache))
        obs.set_gauge("engine.jobs", self.jobs)
        merged = set()
        for result in results:
            if result.observer is None or id(result) in merged:
                continue
            merged.add(id(result))
            obs.merge_child(result.observer)


# -- default engine plumbing -----------------------------------------------------

_default_engine: Optional[ExecutionEngine] = None


def get_default_engine() -> ExecutionEngine:
    """The engine harness entry points use when not handed one.

    Serial with the ``$REPRO_CACHE_DIR`` memo store unless a CLI run
    (or a test) installed one via :func:`set_default_engine` /
    :func:`use_engine`.
    """
    if _default_engine is not None:
        return _default_engine
    return ExecutionEngine(jobs=1, cache=ResultCache.from_env())


def set_default_engine(engine: Optional[ExecutionEngine]) -> None:
    global _default_engine
    _default_engine = engine


@contextmanager
def use_engine(engine: Optional[ExecutionEngine]
               ) -> Iterator[Optional[ExecutionEngine]]:
    """Scoped :func:`set_default_engine` (the CLI wraps runs in this)."""
    previous = _default_engine
    set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
