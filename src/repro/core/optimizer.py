"""Grid search for the metric-optimal GPU offload ratio.

Step 20 of Fig. 7: evaluate the target function OBJ(alpha) =
metric(P(alpha), T(alpha)) for alpha in [0, 1] at fixed increments
(the paper uses 0.1; 0.05 is mentioned as an option) and take the
minimum.  The paper notes this evaluation takes negligible time
compared to program execution - our profiling-overhead benchmark
confirms the same holds here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.metrics import ConstrainedMetric, EnergyMetric
from repro.core.power_curve import PowerCurve
from repro.core.time_model import ExecutionTimeModel
from repro.errors import SchedulingError

#: The paper's grid increment.
DEFAULT_ALPHA_STEP = 0.1


def alpha_grid(step: float = DEFAULT_ALPHA_STEP) -> "list[float]":
    """The closed grid {0, step, 2*step, ..., 1}.

    The grid is *closed*: both endpoints are always present.  For a
    non-divisor step (e.g. 0.3) the rounded interior points stop short
    of 1.0, so the pure-GPU endpoint is appended explicitly - dropping
    it silently excluded alpha=1.0 from the search and could make
    ``best_alpha`` wrong for GPU-dominant kernels.
    """
    if not 0.0 < step <= 1.0:
        raise SchedulingError("alpha step must be in (0, 1]")
    n = int(round(1.0 / step))
    grid = [min(1.0, i * step) for i in range(n + 1)]
    if grid[-1] != 1.0:
        grid.append(1.0)
    return grid


@dataclass(frozen=True)
class AlphaEvaluation:
    """OBJ evaluated at one candidate alpha."""

    alpha: float
    predicted_time_s: float
    predicted_power_w: float
    objective: float


@dataclass(frozen=True)
class AlphaOptimizer:
    """Minimizes an energy metric over the alpha grid."""

    metric: EnergyMetric
    step: float = DEFAULT_ALPHA_STEP

    def evaluate(self, power_curve: PowerCurve,
                 time_model: ExecutionTimeModel) -> List[AlphaEvaluation]:
        """OBJ at every grid point (for reporting and Fig. 1 sweeps)."""
        evaluations = []
        for alpha in alpha_grid(self.step):
            t = time_model.total_time(alpha)
            p = power_curve.power(alpha)
            obj = self.metric.value(p, t) if np.isfinite(t) else float("inf")
            evaluations.append(AlphaEvaluation(
                alpha=alpha, predicted_time_s=t, predicted_power_w=p,
                objective=obj))
        return evaluations

    def best_alpha(self, power_curve: PowerCurve,
                   time_model: ExecutionTimeModel) -> Tuple[float, float]:
        """(alpha, objective) minimizing the metric on the grid.

        When the optimizer's metric is a
        :class:`~repro.core.metrics.ConstrainedMetric` the search is
        the feasible-set one (:meth:`best_alpha_constrained`), so
        every caller of this method honors the deadline; the
        feasibility flag is dropped here - callers that need it (the
        scheduler's ``deadline-infeasible`` exit) use
        :meth:`best_alpha_constrained` directly.
        """
        if isinstance(self.metric, ConstrainedMetric):
            alpha, objective, _ = self.best_alpha_constrained(
                power_curve, time_model, self.metric.deadline_s)
            return alpha, objective
        evaluations = self.evaluate(power_curve, time_model)
        best = min(evaluations, key=lambda e: e.objective)
        if not np.isfinite(best.objective):
            raise SchedulingError("no feasible alpha: both devices stalled")
        return best.alpha, best.objective

    def best_alpha_constrained(
            self, power_curve: PowerCurve, time_model: ExecutionTimeModel,
            deadline_s: float) -> Tuple[float, float, bool]:
        """Feasible-set grid search: min metric over {a : T(a) <= deadline}.

        Returns ``(alpha, objective, feasible)``.  A grid point whose
        predicted time lands *exactly* on the deadline is feasible
        (the budget is inclusive).  When no grid point meets the
        deadline the search falls back to the minimum-T point -
        finish as soon as possible - and reports ``feasible=False``
        so the scheduler can emit the ``deadline-infeasible`` exit.
        Ties (equal objectives, or equal times in the fallback) break
        toward the lowest alpha, matching the unconstrained search's
        first-of-equals grid order.
        """
        evaluations = self.evaluate(power_curve, time_model)
        feasible_set = [e for e in evaluations
                        if e.predicted_time_s <= deadline_s]
        if feasible_set:
            best = min(feasible_set, key=lambda e: e.objective)
            if np.isfinite(best.objective):
                return best.alpha, best.objective, True
        finite = [e for e in evaluations
                  if np.isfinite(e.predicted_time_s)]
        if not finite:
            raise SchedulingError("no feasible alpha: both devices stalled")
        best = min(finite, key=lambda e: e.predicted_time_s)
        return best.alpha, best.objective, False
