"""Evaluation harness: runs the paper's experiments end to end.

* :mod:`repro.harness.experiment` - run one (platform, workload,
  scheduler) application to completion on a fresh simulated processor;
* :mod:`repro.harness.suite` - alpha sweeps (Oracle / PERF), strategy
  comparisons, and Oracle-relative efficiency tables (Figs. 9-12);
* :mod:`repro.harness.figures` - one regenerator per paper table and
  figure;
* :mod:`repro.harness.chaos` - the robustness chaos campaign: EAS on a
  fault-injecting SoC across a swept fault level (docs/ROBUSTNESS.md);
* :mod:`repro.harness.report` - ASCII rendering of tables and series;
* :mod:`repro.harness.cli` - ``python -m repro figure N``.
"""

from repro.harness.chaos import (
    ChaosCampaignResult,
    ChaosCell,
    run_chaos_campaign,
)
from repro.harness.experiment import ApplicationRun, run_application
from repro.harness.suite import (
    AlphaSweep,
    StrategyOutcome,
    SuiteEvaluation,
    evaluate_suite,
    get_characterization,
    sweep_alphas,
)

__all__ = [
    "ApplicationRun",
    "run_application",
    "ChaosCampaignResult",
    "ChaosCell",
    "run_chaos_campaign",
    "AlphaSweep",
    "sweep_alphas",
    "StrategyOutcome",
    "SuiteEvaluation",
    "evaluate_suite",
    "get_characterization",
]
