"""Shared helpers for the ablation benchmarks.

Each ablation reruns EAS with one design knob changed and reports mean
Oracle-relative EDP efficiency over a representative workload subset
(one regular compute-bound, one short-kernel, one irregular
memory-bound) on the desktop.  Alpha sweeps are shared with the figure
benchmarks through :mod:`repro.harness.figures`' cache;
:func:`local_sweep` sweeps workloads no ``RunSpec`` can describe.
"""

from typing import Dict, Optional, Sequence

from repro.core.baselines import StaticAlphaScheduler
from repro.core.characterization import PlatformCharacterization
from repro.core.metrics import EDP, EnergyMetric
from repro.core.scheduler import SchedulerConfig, EnergyAwareScheduler
from repro.harness.experiment import run_application
from repro.harness.figures import _cached_sweep
from repro.harness.suite import (
    ORACLE_ALPHA_STEP,
    AlphaSweep,
    _sweep_grid,
    get_characterization,
)
from repro.soc.spec import PlatformSpec, haswell_desktop
from repro.workloads.base import Workload
from repro.workloads.registry import workload_by_abbrev

#: Representative subset: regular compute (NB), short-kernel regular
#: (BS), irregular memory-bound graph (CC).
ABLATION_WORKLOADS = ("NB", "BS", "CC")


def local_sweep(spec: PlatformSpec, workload: Workload) -> AlphaSweep:
    """Oracle sweep of a reseeded or synthetic workload: one in-process
    :func:`run_application` per static alpha on the 0.1 grid (the
    engine's specs carry registry workloads only)."""
    alphas = _sweep_grid(ORACLE_ALPHA_STEP)
    runs = [run_application(spec, workload, StaticAlphaScheduler(alpha=a),
                            strategy_name=f"static-{a:.2f}")
            for a in alphas]
    return AlphaSweep(platform=spec.name, workload=workload.abbrev,
                      alphas=alphas, runs=runs)


def eas_efficiency(workload_abbrev: str,
                   characterization: Optional[PlatformCharacterization] = None,
                   config: Optional[SchedulerConfig] = None,
                   metric: EnergyMetric = EDP) -> float:
    """Oracle-relative efficiency (%) of one EAS configuration."""
    spec = haswell_desktop()
    workload = workload_by_abbrev(workload_abbrev)
    sweep = _cached_sweep(spec, workload, tablet=False)
    characterization = characterization or get_characterization(spec)
    scheduler = EnergyAwareScheduler(characterization, metric,
                                     config=config or SchedulerConfig())
    run = run_application(spec, workload, scheduler, "EAS")
    oracle = sweep.oracle(metric).metric_value(metric)
    return 100.0 * oracle / run.metric_value(metric)


def mean_efficiency(characterization=None, config=None,
                    workloads: Sequence[str] = ABLATION_WORKLOADS) -> float:
    values = [eas_efficiency(w, characterization, config) for w in workloads]
    return sum(values) / len(values)


def efficiency_table(variants: Dict[str, dict]) -> Dict[str, float]:
    """Evaluate named variants ({name: kwargs for mean_efficiency})."""
    return {name: mean_efficiency(**kwargs)
            for name, kwargs in variants.items()}
