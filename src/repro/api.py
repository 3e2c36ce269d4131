"""``repro.api``: the curated public API surface.

This module is the library's *blessed* import surface: everything a
downstream user should reach for is re-exported here (and from the
top-level :mod:`repro` package, which star-imports this module), and
``__all__`` below is the authoritative inventory.  The snapshot test
``tests/test_public_api.py`` pins this list - adding or removing a
name is an API change and must update the snapshot deliberately.

Grouped by layer:

* **errors** - the exception hierarchy callers may catch;
* **platforms & simulator** - the two simulated SoCs and their specs;
* **runtime** - ``parallel_for`` over the simulated processor;
* **schedulers** - EAS (with :class:`SchedulerConfig`), the hinted
  extension, and the comparison baselines;
* **characterization & metrics** - P(alpha) curves and objectives;
* **workloads** - the Table-1 benchmark suite;
* **harness** - application runs, sweeps, suite evaluation, figure
  regenerators, and the chaos campaign;
* **multiprogram tenancy** - N tenant kernel streams co-scheduled on
  one SoC under a GPU lease arbiter, which makes ``gpu_busy`` (and the
  scheduler's Section-5 fallback) real (see docs/ARCHITECTURE.md);
* **execution engine** - declarative run specs, the parallel batch
  executor, and the content-addressed result cache
  (see docs/PARALLELISM.md);
* **observability** - the flight recorder: observers, decision
  records, metric registries, exporters, and validators
  (see docs/OBSERVABILITY.md);
* **scheduler service** - the crash-safe persistent daemon: durable
  job queue, persisted table G, idempotent replay, and the
  kill-and-restart chaos harness (see docs/SERVICE.md);
* **fleet simulation** - trace-driven dispatch of kernel requests
  across thousands of simulated SoCs under pluggable placement
  policies, deduped through the engine cache (see docs/FLEET.md).
"""

from __future__ import annotations

from repro.core.baselines import (
    CpuOnlyScheduler,
    GpuOnlyScheduler,
    ProfiledPerfScheduler,
    RaceToIdleScheduler,
    StaticAlphaScheduler,
)
from repro.core.characterization import PlatformCharacterization
from repro.core.hinted import HintedEnergyAwareScheduler
from repro.core.metrics import (
    ED2,
    EDP,
    ENERGY,
    ConstrainedMetric,
    EnergyMetric,
    metric_by_name,
)
from repro.core.scheduler import (
    EnergyAwareScheduler,
    SchedulerConfig,
)
from repro.errors import (
    GpuFaultError,
    HarnessError,
    ObservabilityError,
    ReproError,
    SchedulingError,
    ServiceError,
    SimulationError,
    StoreSchemaError,
    UnknownNameError,
    WorkloadError,
)
from repro.harness.chaos import (
    ChaosCampaignResult,
    ChaosCell,
    MultiprogramChaosCampaignResult,
    run_chaos_campaign,
    run_multiprogram_chaos_campaign,
)
from repro.harness.diff import (
    DiffCase,
    DiffReport,
    compare_outcomes,
    diff_case,
    grid_cases,
    run_case,
)
from repro.harness.engine import (
    ExecutionEngine,
    ResultCache,
    RunResult,
    RunSpec,
    SchedulerSpec,
    get_default_engine,
    set_default_engine,
    use_engine,
)
from repro.harness.crashchaos import (
    CrashChaosCell,
    CrashChaosResult,
    run_crash_chaos,
)
from repro.fleet import (
    PLACEMENT_POLICIES,
    PLATFORM_KINDS,
    TRACE_KINDS,
    FleetCellProfile,
    FleetComparisonResult,
    FleetRequest,
    FleetResult,
    FleetSpec,
    FleetStreamResult,
    FleetView,
    LatencySketch,
    NodeSpec,
    RequestOutcome,
    TraceSpec,
    compare_fleet_policies,
    dispatch_stream,
    make_policy,
    run_fleet,
    trace_columns,
)
from repro.harness.experiment import ApplicationRun, run_application
from repro.harness.figures import REGENERATORS, experiment_id, regenerate
from repro.harness.suite import (
    evaluate_suite,
    get_characterization,
    sweep_alphas,
)
from repro.obs import (
    ALL_EXIT_PATHS,
    NULL_OBSERVER,
    DecisionRecord,
    MetricsRegistry,
    NullObserver,
    Observer,
)
from repro.obs.export import (
    TraceSection,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.validate import validate_file
from repro.runtime.kernel import Kernel
from repro.service import (
    AdmissionDecision,
    DurableStore,
    JobSpec,
    SchedulerService,
)
from repro.runtime.runtime import ConcordRuntime
from repro.runtime.tenancy import (
    ARBITER_POLICIES,
    GpuLeaseArbiter,
    MultiprogramResult,
    TenancySpec,
    TenantResult,
    TenantSpec,
    parse_tenant_specs,
    run_multiprogram,
)
from repro.soc.carbon import CarbonSpec, CarbonTrace
from repro.soc.cost_model import KernelCostModel
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor
from repro.soc.spec import (
    TICK_MODES,
    PlatformSpec,
    baytrail_tablet,
    haswell_desktop,
)
from repro.workloads.base import InvocationSpec, Workload
from repro.workloads.registry import all_workloads, workload_by_abbrev

__all__ = [
    # errors
    "ReproError", "SimulationError", "SchedulingError", "WorkloadError",
    "HarnessError", "ObservabilityError", "UnknownNameError",
    "GpuFaultError", "ServiceError", "StoreSchemaError",
    # platforms & simulator
    "PlatformSpec", "haswell_desktop", "baytrail_tablet",
    "IntegratedProcessor", "KernelCostModel", "TICK_MODES",
    # fault injection
    "FaultConfig", "FaultySoC",
    # runtime
    "Kernel", "ConcordRuntime",
    # schedulers
    "EnergyAwareScheduler", "SchedulerConfig",
    "HintedEnergyAwareScheduler", "CpuOnlyScheduler", "GpuOnlyScheduler",
    "StaticAlphaScheduler", "ProfiledPerfScheduler", "RaceToIdleScheduler",
    # characterization & metrics (see docs/OBJECTIVES.md)
    "PlatformCharacterization", "get_characterization",
    "EnergyMetric", "ENERGY", "EDP", "ED2", "metric_by_name",
    "ConstrainedMetric",
    # workloads
    "Workload", "InvocationSpec", "all_workloads", "workload_by_abbrev",
    # harness
    "ApplicationRun", "run_application", "sweep_alphas", "evaluate_suite",
    "REGENERATORS", "regenerate", "experiment_id",
    "ChaosCampaignResult", "ChaosCell", "run_chaos_campaign",
    "MultiprogramChaosCampaignResult", "run_multiprogram_chaos_campaign",
    "CrashChaosResult", "CrashChaosCell", "run_crash_chaos",
    # multiprogram tenancy (see docs/ARCHITECTURE.md)
    "ARBITER_POLICIES", "GpuLeaseArbiter", "MultiprogramResult",
    "TenancySpec", "TenantResult", "TenantSpec", "parse_tenant_specs",
    "run_multiprogram",
    # execution engine (see docs/PARALLELISM.md)
    "ExecutionEngine", "RunSpec", "RunResult", "SchedulerSpec",
    "ResultCache", "get_default_engine", "set_default_engine", "use_engine",
    # differential testing (docs/PERFORMANCE.md)
    "DiffCase", "DiffReport", "run_case", "diff_case", "grid_cases",
    "compare_outcomes",
    # observability
    "Observer", "NullObserver", "NULL_OBSERVER", "MetricsRegistry",
    "DecisionRecord", "ALL_EXIT_PATHS", "TraceSection",
    "write_chrome_trace", "write_jsonl", "write_metrics", "validate_file",
    # scheduler service (see docs/SERVICE.md)
    "SchedulerService", "JobSpec", "DurableStore",
    "AdmissionDecision",
    # fleet simulation (see docs/FLEET.md)
    "FleetSpec", "NodeSpec", "PLATFORM_KINDS",
    "TraceSpec", "FleetRequest", "TRACE_KINDS", "trace_columns",
    "PLACEMENT_POLICIES", "make_policy", "FleetView",
    "run_fleet", "FleetResult", "RequestOutcome", "FleetCellProfile",
    "compare_fleet_policies", "FleetComparisonResult",
    # streaming fleet dispatch (docs/FLEET.md, "Streaming dispatch")
    "dispatch_stream", "FleetStreamResult",
    "LatencySketch",
    # carbon-aware scheduling (docs/OBJECTIVES.md)
    "CarbonSpec", "CarbonTrace",
]
