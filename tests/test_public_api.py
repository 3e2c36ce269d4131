"""Snapshot test pinning the public API surface (``repro.api``).

The blessed import surface is a contract: names appear or disappear
only as deliberate API changes.  If this test fails, either revert the
accidental surface change or update ``EXPECTED_API`` in the same
commit that intentionally changes :mod:`repro.api`.
"""

import repro
import repro.api

#: The frozen surface, sorted.  Update deliberately, never to
#: "make the test pass".
EXPECTED_API = sorted([
    # errors
    "ReproError", "SimulationError", "SchedulingError", "WorkloadError",
    "HarnessError", "ObservabilityError", "UnknownNameError",
    "GpuFaultError", "ServiceError", "StoreSchemaError", "AdmissionError",
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
    # characterization & metrics (docs/OBJECTIVES.md)
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
    # multiprogram tenancy
    "ARBITER_POLICIES", "GpuLeaseArbiter", "MultiprogramResult",
    "TenancySpec", "TenantResult", "TenantSpec", "parse_tenant_specs",
    "run_multiprogram",
    # execution engine
    "ExecutionEngine", "RunSpec", "RunResult", "SchedulerSpec",
    "ResultCache", "get_default_engine", "set_default_engine", "use_engine",
    "SpecGang", "execute_gang",
    # vectorized-core sharing & differential testing (docs/PERFORMANCE.md)
    "VectorCore", "model_identity", "use_vector_core",
    "DiffCase", "DiffReport", "run_case", "diff_case", "grid_cases",
    "compare_outcomes",
    # observability
    "Observer", "NullObserver", "NULL_OBSERVER", "MetricsRegistry",
    "DecisionRecord", "ALL_EXIT_PATHS", "TraceSection",
    "write_chrome_trace", "write_jsonl", "write_metrics", "validate_file",
    # scheduler service (docs/SERVICE.md)
    "SchedulerService", "JobSpec", "DurableStore",
    "AdmissionPolicy", "AdmissionDecision",
    # fleet simulation (docs/FLEET.md)
    "FleetSpec", "NodeSpec", "PLATFORM_KINDS",
    "TraceSpec", "FleetRequest", "generate_trace", "TRACE_KINDS",
    "TraceChunk", "trace_columns", "iter_trace_chunks",
    "PLACEMENT_POLICIES", "make_policy", "FleetView",
    "run_fleet", "FleetResult", "RequestOutcome", "FleetCellProfile",
    "compare_fleet_policies", "FleetComparisonResult",
    # streaming fleet dispatch (docs/FLEET.md, "Streaming dispatch")
    "DISPATCH_MODES", "dispatch_stream", "FleetStreamResult",
    "LatencySketch",
    # carbon-aware scheduling (docs/OBJECTIVES.md)
    "CarbonSpec", "CarbonTrace",
])


class TestApiSnapshot:
    def test_api_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == EXPECTED_API

    def test_no_duplicates(self):
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    def test_every_name_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_top_level_reexports_everything(self):
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name), name
        assert set(repro.__all__) == {"__version__", *repro.api.__all__}

    def test_version_is_exposed(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestBackwardCompat:
    """Names the pre-facade package exported keep working."""

    def test_legacy_imports(self):
        from repro import (  # noqa: F401
            EDP,
            ConcordRuntime,
            EnergyAwareScheduler,
            IntegratedProcessor,
            ReproError,
            haswell_desktop,
            run_application,
        )
