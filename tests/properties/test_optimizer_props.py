"""Properties of the grid-search minimizer (step 20 of Fig. 7).

The scheduler's alpha decision is ``argmin over the 0.1 grid of
OBJ(alpha) = metric(P(alpha), T(alpha))``.  These suites check, over
randomized curves, time models, and metrics, that the implementation
really is that argmin:

1. the returned alpha is a grid point (exactly - not merely close to
   one);
2. grid optimality: OBJ(alpha*) <= OBJ(alpha) for every grid alpha;
3. the reported objective equals OBJ evaluated at the returned alpha.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ED2, EDP, ENERGY, ConstrainedMetric
from repro.core.optimizer import AlphaOptimizer, alpha_grid
from repro.core.power_curve import fit_power_curve
from repro.core.time_model import ExecutionTimeModel

SETTINGS = settings(max_examples=200, deadline=None)

rates = st.floats(min_value=1e-3, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=1.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False)
metrics = st.sampled_from([ENERGY, EDP, ED2])
base_powers = st.floats(min_value=1.0, max_value=200.0)
slopes = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)

#: Grid membership must be exact: the scheduler hands alpha* straight
#: to work-splitting, and the Oracle sweep indexes runs by grid
#: position (see AlphaSweep._index_by_grid).
GRID_KEYS = {round(a * 1000) for a in alpha_grid(0.1)}


def _curve(base, slope):
    """A positive characterization-like curve: base + slope * alpha."""
    sample_alphas = [i / 10.0 for i in range(11)]
    sample_powers = [max(base + slope * a, 0.5) for a in sample_alphas]
    return fit_power_curve(sample_alphas, sample_powers, order=6)


class TestGridSearchOptimality:
    @SETTINGS
    @given(rc=rates, rg=rates, n=sizes, metric=metrics,
           base=base_powers, slope=slopes)
    def test_best_alpha_is_grid_argmin(self, rc, rg, n, metric,
                                       base, slope):
        curve = _curve(base, slope)
        model = ExecutionTimeModel(rc, rg, n)
        optimizer = AlphaOptimizer(metric=metric, step=0.1)
        alpha_star, obj_star = optimizer.best_alpha(curve, model)

        assert round(alpha_star * 1000) in GRID_KEYS
        assert math.isfinite(obj_star)
        assert obj_star == pytest.approx(
            metric.value(curve.power(alpha_star),
                         model.total_time(alpha_star)))
        for alpha in alpha_grid(0.1):
            obj = metric.value(curve.power(alpha), model.total_time(alpha))
            assert obj_star <= obj * (1.0 + 1e-12)

    @SETTINGS
    @given(rc=rates, n=sizes, metric=metrics, base=base_powers,
           slope=slopes)
    def test_dead_gpu_still_finds_feasible_alpha(self, rc, n, metric,
                                                 base, slope):
        """With a stalled GPU, alpha=1 is infinite but the grid still
        contains feasible points; the minimizer must skip infinities."""
        curve = _curve(base, slope)
        model = ExecutionTimeModel(rc, 0.0, n)
        optimizer = AlphaOptimizer(metric=metric, step=0.1)
        alpha_star, obj_star = optimizer.best_alpha(curve, model)
        assert alpha_star < 1.0
        assert math.isfinite(obj_star)


class TestGridClosure:
    @SETTINGS
    @given(step=st.floats(min_value=1e-3, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
    def test_grid_always_contains_both_endpoints(self, step):
        """Regression property for the non-divisor-step bug: for every
        valid step the closed grid keeps alpha=1.0 (and 0.0), sorted
        and duplicate-free."""
        grid = alpha_grid(step)
        assert grid[0] == 0.0
        assert 1.0 in grid
        assert grid == sorted(grid)
        assert len(grid) == len(set(grid))
        assert all(0.0 <= a <= 1.0 for a in grid)


class TestConstrainedSearchProperties:
    @SETTINGS
    @given(rc=rates, rg=rates, n=sizes, metric=metrics,
           base=base_powers, slope=slopes,
           deadline=st.floats(min_value=1e-6, max_value=1e9,
                              allow_nan=False, allow_infinity=False))
    def test_constrained_argmin_over_feasible_set(self, rc, rg, n,
                                                  metric, base, slope,
                                                  deadline):
        """best_alpha_constrained is the argmin over the feasible set
        when one exists, and the min-T grid point otherwise."""
        curve = _curve(base, slope)
        model = ExecutionTimeModel(rc, rg, n)
        optimizer = AlphaOptimizer(metric=metric, step=0.1)
        alpha_star, obj_star, feasible = optimizer.best_alpha_constrained(
            curve, model, deadline)
        assert round(alpha_star * 1000) in GRID_KEYS
        times = {a: model.total_time(a) for a in alpha_grid(0.1)}
        if feasible:
            assert times[alpha_star] <= deadline
            for alpha, t in times.items():
                if t <= deadline:
                    obj = metric.value(curve.power(alpha), t)
                    assert obj_star <= obj * (1.0 + 1e-12)
        else:
            finite = {a: t for a, t in times.items() if math.isfinite(t)}
            assert all(t > deadline for t in finite.values())
            assert times[alpha_star] == min(finite.values())

    @SETTINGS
    @given(rc=rates, rg=rates, n=sizes, base=base_powers, slope=slopes,
           deadline=st.floats(min_value=1e-6, max_value=1e9,
                              allow_nan=False, allow_infinity=False))
    def test_constrained_metric_optimizer_meets_deadline_when_possible(
            self, rc, rg, n, base, slope, deadline):
        """The ConstrainedMetric-carrying optimizer never returns an
        over-deadline alpha while any grid point is feasible."""
        curve = _curve(base, slope)
        model = ExecutionTimeModel(rc, rg, n)
        optimizer = AlphaOptimizer(
            metric=ConstrainedMetric.constrain(EDP, deadline), step=0.1)
        alpha_star, _ = optimizer.best_alpha(curve, model)
        any_feasible = any(model.total_time(a) <= deadline
                           for a in alpha_grid(0.1))
        if any_feasible:
            assert model.total_time(alpha_star) <= deadline
