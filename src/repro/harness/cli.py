"""Harness command line behind ``python -m repro`` (see :mod:`repro.cli`).

Examples::

    python -m repro list
    python -m repro figure 9
    python -m repro experiment table1
    python -m repro all
    python -m repro run CC --platform desktop --metric edp
    python -m repro run SL --strategies cpu,gpu,eas --metric energy
    python -m repro run CC --trace /tmp/cc.json --metrics-out /tmp/cc-metrics.json
    python -m repro run MM --strategies eas --fault-level 0.3 --seed 7
    python -m repro figure 9 --jobs 4
    python -m repro all --jobs 4 --cache-dir ~/.cache/repro
    python -m repro figure chaos --no-cache

The front door translates each subcommand into this parser's flag
(``figure 9`` -> ``--figure 9``), so :func:`main` also accepts the flag
spelling directly.

``figure`` and ``experiment`` are interchangeable: both accept a
bare number (``9``), a ``figN`` id, or a named experiment (``table1``,
``chaos``).  Unknown names fail with did-you-mean suggestions.

``--trace`` writes a Chrome trace-event JSON (load it in
``chrome://tracing`` or Perfetto) merging scheduler/runtime spans,
per-invocation decision records, and the simulated power timeline -
one trace *process* per strategy.  ``--metrics-out`` writes the
strategies' metric registries as one JSON snapshot.  Both are
schema-validated formats (``python -m repro.obs.validate FILE``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.baselines import (
    CpuOnlyScheduler,
    GpuOnlyScheduler,
    ProfiledPerfScheduler,
    RaceToIdleScheduler,
)
from repro.core.metrics import metric_by_name
from repro.core.scheduler import EnergyAwareScheduler
from repro.errors import HarnessError
from repro.harness.chaos import run_chaos_campaign
from repro.harness.engine import (
    KIND_MULTIPROGRAM,
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
    use_engine,
)
from repro.harness.experiment import run_application
from repro.harness.figures import REGENERATORS, experiment_id
from repro.harness.report import format_table, heading
from repro.harness.suite import get_characterization
from repro.obs.export import (
    SCHEMA_VERSION,
    TraceSection,
    write_chrome_trace,
)
from repro.obs.observer import Observer
from repro.soc.faults import FaultConfig
from repro.soc.spec import TICK_MODES, baytrail_tablet, haswell_desktop
from repro.workloads.registry import workload_by_abbrev


def _write_merged_metrics(path: str, observers: "Dict[str, Observer]",
                          metadata: Dict[str, Any]) -> None:
    """One metrics snapshot covering every strategy (names prefixed)."""
    merged: Dict[str, Dict[str, Any]] = {
        "counters": {}, "gauges": {}, "histograms": {}}
    for strategy, observer in observers.items():
        snapshot = observer.metrics.snapshot()
        for kind in merged:
            for name, value in snapshot[kind].items():
                merged[kind][f"{strategy}/{name}"] = value
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "metrics": merged,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_custom(args: argparse.Namespace) -> int:
    """Run one workload under selected strategies and print the table."""
    tablet = args.platform == "tablet"
    factory = baytrail_tablet if tablet else haswell_desktop
    spec = factory(tick_mode=args.tick_mode)
    workload = workload_by_abbrev(args.run)
    metric = metric_by_name(args.metric)
    wanted = [s.strip().lower() for s in args.strategies.split(",")]
    observing = bool(args.trace or args.metrics_out)
    fault_config = (FaultConfig.from_level(args.fault_level, seed=args.seed)
                    if args.fault_level > 0.0 else None)

    def make(name: str):
        if name == "cpu":
            return CpuOnlyScheduler()
        if name == "gpu":
            return GpuOnlyScheduler()
        if name == "perf":
            return ProfiledPerfScheduler()
        if name == "eas":
            return EnergyAwareScheduler(get_characterization(spec), metric)
        if name == "race":
            # Race-to-idle banks the same budget the constrained metric
            # carries (--metric edp@2 -> 2 s); unconstrained metrics
            # leave it as a pure alpha_PERF sprint.
            return RaceToIdleScheduler(
                deadline_s=getattr(metric, "deadline_s", None))
        raise HarnessError(
            f"unknown strategy {name!r}; expected cpu, gpu, perf, "
            f"race or eas")

    if args.trace_csv and len(wanted) != 1:
        raise HarnessError("--trace-csv needs exactly one strategy "
                           "(use --strategies eas, for example)")

    print(heading(f"{workload.name} ({workload.abbrev}) on {spec.name}, "
                  f"metric={metric.name}"
                  + (f", fault-level={args.fault_level}"
                     if fault_config else "")))
    rows = []
    sections: List[TraceSection] = []
    observers: Dict[str, Observer] = {}
    for name in wanted:
        observer = None
        if observing:
            observer = Observer(metadata={
                "workload": workload.abbrev, "platform": spec.name,
                "strategy": name, "metric": metric.name,
                "seed": args.seed, "fault_level": args.fault_level})
            observers[name] = observer
        run = run_application(spec, workload, make(name), name,
                              tablet=tablet,
                              trace=bool(args.trace_csv) or bool(args.trace),
                              observer=observer,
                              fault_config=fault_config)
        if observing:
            sections.append(TraceSection(name=name, observer=observer,
                                         power_trace=run.trace))
        alpha = "-" if run.final_alpha is None else f"{run.final_alpha:.2f}"
        rows.append((name.upper(), alpha, run.time_s, run.energy_j,
                     run.metric_value(metric)))
        if args.trace_csv:
            from repro.soc.trace import write_csv

            rows_written = write_csv(run.trace, args.trace_csv)
            print(f"[wrote {rows_written} trace rows to {args.trace_csv}]")
    print(format_table(
        ["strategy", "alpha", "time (s)", "energy (J)",
         f"{metric.name} value"], rows))
    best = min(rows, key=lambda r: r[4])
    print(f"\nbest {metric.name}: {best[0]}")

    metadata = {"workload": workload.abbrev, "platform": spec.name,
                "metric": metric.name, "strategies": wanted,
                "seed": args.seed, "fault_level": args.fault_level}
    if args.trace:
        count = write_chrome_trace(args.trace, sections, metadata)
        print(f"[wrote {count} trace events to {args.trace}]")
    if args.metrics_out:
        _write_merged_metrics(args.metrics_out, observers, metadata)
        print(f"[wrote metrics snapshot to {args.metrics_out}]")
    return 0


def _run_multiprogram(args: argparse.Namespace,
                      engine: ExecutionEngine) -> int:
    """Run a multiprogram co-scheduling experiment through the engine."""
    from repro.runtime.tenancy import TenancySpec, parse_tenant_specs

    if args.lease_quantum < 1:
        raise HarnessError("--lease-quantum must be >= 1")
    tenancy = TenancySpec(policy=args.arbiter,
                          lease_quantum=args.lease_quantum,
                          tenants=parse_tenant_specs(args.tenants))
    tablet = args.platform == "tablet"
    factory = baytrail_tablet if tablet else haswell_desktop
    spec = RunSpec(
        platform=factory(tick_mode=args.tick_mode),
        kind=KIND_MULTIPROGRAM,
        scheduler=SchedulerSpec.eas(metric=args.metric),
        tablet=tablet,
        fault_level=args.fault_level,
        seed=args.seed,
        tenancy=tenancy)
    result = engine.run_one(spec).payload
    print(result.render())
    return 0


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """Run-result cache per the flags: ``--no-cache`` wins; otherwise
    ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) roots the ``runs/`` memo
    store, which also holds the characterization sweeps."""
    if args.no_cache:
        return None
    if args.cache_dir:
        return ResultCache(os.path.join(args.cache_dir, "runs"))
    return ResultCache.from_env()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures, or run "
                    "custom strategy comparisons, on the simulated "
                    "platforms.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", metavar="N",
                       help="regenerate figure N (1-6, 9-12) or a named "
                            "experiment (e.g. table1, chaos)")
    group.add_argument("--experiment", metavar="ID",
                       help="alias of --figure: a number, figN id or "
                            "experiment name")
    group.add_argument("--all", action="store_true",
                       help="regenerate every table and figure")
    group.add_argument("--list", action="store_true",
                       help="list available experiment ids")
    group.add_argument("--run", metavar="WORKLOAD",
                       help="run one workload (by Table-1 abbreviation) "
                            "under selected strategies")
    group.add_argument("--tenants", metavar="SPECS",
                       help="run a multiprogram co-scheduling experiment: "
                            "comma-separated tenant specs "
                            "ABBREV[:priority[:deadline_s]] (e.g. "
                            "'BS,CC:5' or 'BS:0,CC:5:40,SP'); tenants "
                            "share one SoC under a GPU lease arbiter "
                            "(see --arbiter, docs/ARCHITECTURE.md)")
    parser.add_argument("--platform", choices=("desktop", "tablet"),
                        default="desktop",
                        help="platform for --run (default: desktop)")
    parser.add_argument("--metric", default="edp",
                        help="objective for --run: energy, edp or ed2, "
                             "optionally deadline-constrained as "
                             "NAME@SECONDS (e.g. edp@2 minimizes EDP "
                             "over alphas meeting a 2 s deadline; see "
                             "docs/OBJECTIVES.md) (default: edp)")
    parser.add_argument("--strategies", default="cpu,gpu,perf,eas",
                        help="comma-separated strategies for --run: "
                             "cpu, gpu, perf, race, eas "
                             "(default: cpu,gpu,perf,eas)")
    parser.add_argument("--cache-dir", default=None,
                        help="root of the run-result cache "
                             "(default: $REPRO_CACHE_DIR)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="seed for seeded experiments: the chaos "
                             "campaign and --fault-level injection "
                             "(default: 2016)")
    parser.add_argument("--fault-level", type=float, default=0.0,
                        metavar="P",
                        help="with --run: execute on a faulty SoC at "
                             "fault probability P (0 disables; "
                             "see docs/ROBUSTNESS.md)")
    parser.add_argument("--arbiter", choices=("fifo", "priority"),
                        default="fifo",
                        help="with --tenants: GPU lease arbitration "
                             "policy (default: fifo)")
    parser.add_argument("--lease-quantum", type=int, default=2, metavar="K",
                        help="with --tenants: kernel invocations a tenant "
                             "holds the GPU lease for before release "
                             "(default: 2)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="with --run: write a Chrome trace-event JSON "
                             "(spans + decisions + power timeline) to PATH")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="with --run: write the metrics registry "
                             "snapshot to PATH as JSON")
    parser.add_argument("--trace-csv", default=None, metavar="PATH",
                        help="with --run and a single strategy: write the "
                             "power timeline of the run to PATH as CSV")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for figure/suite "
                             "simulations (default: 1 = serial; results "
                             "are byte-identical at any N, see "
                             "docs/PARALLELISM.md)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed run-result "
                             "cache entirely (no reads, no writes)")
    parser.add_argument("--tick-mode", choices=TICK_MODES, default=None,
                        help="simulator clock mode: 'exact' (reference, "
                             "byte-stable fingerprints) or 'fast' "
                             "(event-driven fast-forward, <1e-6 relative "
                             "divergence; see docs/PERFORMANCE.md). "
                             "Default: exact, except the fleet and "
                             "crashchaos experiments which default to "
                             "fast")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        raise HarnessError("--jobs must be >= 1")
    engine = ExecutionEngine(jobs=args.jobs, cache=_make_cache(args))

    with use_engine(engine):
        if args.run is not None:
            return _run_custom(args)

        if args.tenants is not None:
            if args.trace or args.metrics_out or args.trace_csv:
                raise HarnessError(
                    "--trace/--metrics-out/--trace-csv require --run")
            return _run_multiprogram(args, engine)

        if args.trace or args.metrics_out or args.fault_level:
            raise HarnessError(
                "--trace/--metrics-out/--fault-level require --run")

        if args.list:
            for name in REGENERATORS:
                print(name)
            return 0

        names: List[str]
        if args.all:
            names = list(REGENERATORS)
        else:
            names = [experiment_id(args.figure if args.figure is not None
                                   else args.experiment)]

        for name in names:
            started = time.perf_counter()
            if name == "chaos":
                result = run_chaos_campaign(seed=args.seed, engine=engine,
                                            tick_mode=args.tick_mode)
            else:
                result = REGENERATORS[name](tick_mode=args.tick_mode)
            elapsed = time.perf_counter() - started
            print(result.render())
            print(f"\n[{name} regenerated in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
