"""The alpha grid search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import EDP, ENERGY, ConstrainedMetric
from repro.core.optimizer import (
    AlphaOptimizer,
    alpha_grid,
)
from repro.core.power_curve import PowerCurve
from repro.core.time_model import ExecutionTimeModel
from repro.errors import SchedulingError


def flat_curve(watts=40.0):
    return PowerCurve(coefficients=(watts,))


def linear_curve(at0, at1):
    return PowerCurve(coefficients=(at1 - at0, at0))


class TestGrid:
    def test_paper_grid(self):
        grid = alpha_grid(0.1)
        assert len(grid) == 11
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    def test_finer_grid(self):
        assert len(alpha_grid(0.05)) == 21

    def test_rejects_bad_step(self):
        with pytest.raises(SchedulingError):
            alpha_grid(0.0)
        with pytest.raises(SchedulingError):
            alpha_grid(1.5)

    def test_non_divisor_step_keeps_pure_gpu_endpoint(self):
        """Regression: step=0.3 rounded to {0, 0.3, 0.6, 0.9} and
        silently dropped alpha=1.0 from the search, excluding the
        pure-GPU split for GPU-dominant kernels."""
        grid = alpha_grid(0.3)
        assert grid[-1] == 1.0
        assert grid == sorted(set(grid))

    @pytest.mark.parametrize("step", [0.3, 0.7, 0.15, 1.0, 0.4])
    def test_grid_is_closed_for_awkward_steps(self, step):
        grid = alpha_grid(step)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert len(grid) == len(set(grid))


class TestBestAlpha:
    def test_flat_power_picks_alpha_perf(self):
        """With constant power, every time-monotone metric minimizes at
        the performance-optimal split (nearest grid point)."""
        model = ExecutionTimeModel(100.0, 300.0, 1e5)
        optimizer = AlphaOptimizer(metric=EDP, step=0.05)
        alpha, _ = optimizer.best_alpha(flat_curve(), model)
        assert alpha == pytest.approx(0.75, abs=0.05)

    def test_cheap_gpu_pulls_energy_toward_one(self):
        """A steep power drop toward the GPU shifts the energy optimum
        past alpha_perf - the Fig. 1 structure."""
        model = ExecutionTimeModel(100.0, 150.0, 1e5)
        steep = linear_curve(60.0, 10.0)
        optimizer = AlphaOptimizer(metric=ENERGY, step=0.1)
        alpha, _ = optimizer.best_alpha(steep, model)
        assert alpha > model.alpha_perf

    def test_expensive_gpu_pulls_energy_toward_zero(self):
        model = ExecutionTimeModel(150.0, 100.0, 1e5)
        steep = linear_curve(10.0, 60.0)
        optimizer = AlphaOptimizer(metric=ENERGY, step=0.1)
        alpha, _ = optimizer.best_alpha(steep, model)
        assert alpha < model.alpha_perf

    def test_edp_sits_between_energy_and_perf(self):
        """EDP balances the two objectives (the paper's motivation for
        reporting both)."""
        model = ExecutionTimeModel(100.0, 150.0, 1e5)
        curve = linear_curve(60.0, 10.0)
        perf_alpha = model.alpha_perf
        energy_alpha, _ = AlphaOptimizer(ENERGY, 0.05).best_alpha(curve, model)
        edp_alpha, _ = AlphaOptimizer(EDP, 0.05).best_alpha(curve, model)
        lo, hi = sorted((perf_alpha, energy_alpha))
        assert lo - 0.05 <= edp_alpha <= hi + 0.05

    def test_evaluations_cover_whole_grid(self):
        model = ExecutionTimeModel(100.0, 100.0, 1e5)
        evals = AlphaOptimizer(EDP, 0.1).evaluate(flat_curve(), model)
        assert len(evals) == 11
        assert all(e.objective > 0 for e in evals)

    @given(r_c=st.floats(1.0, 1e6), r_g=st.floats(1.0, 1e6),
           p0=st.floats(1.0, 100.0), p1=st.floats(1.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_best_alpha_is_grid_minimum_property(self, r_c, r_g, p0, p1):
        model = ExecutionTimeModel(r_c, r_g, 1e5)
        curve = linear_curve(p0, p1)
        optimizer = AlphaOptimizer(EDP, 0.1)
        alpha, objective = optimizer.best_alpha(curve, model)
        for candidate in alpha_grid(0.1):
            value = EDP.value(curve.power(candidate),
                              model.total_time(candidate))
            assert objective <= value * (1 + 1e-12)


class TestConstrainedSearch:
    """Feasible-set search: min metric over {a : T(a) <= deadline}."""

    def _setup(self):
        # alpha_perf = 0.75 with these rates; energy optimum sits at
        # a different grid point under the steep curve.
        model = ExecutionTimeModel(100.0, 300.0, 1e5)
        curve = linear_curve(30.0, 60.0)
        return AlphaOptimizer(EDP, 0.1), curve, model

    def test_loose_deadline_matches_unconstrained(self):
        optimizer, curve, model = self._setup()
        free_alpha, free_obj = optimizer.best_alpha(curve, model)
        alpha, obj, feasible = optimizer.best_alpha_constrained(
            curve, model, deadline_s=1e9)
        assert feasible
        assert (alpha, obj) == (free_alpha, free_obj)

    def test_tight_deadline_restricts_to_feasible_set(self):
        optimizer, curve, model = self._setup()
        evals = optimizer.evaluate(curve, model)
        times = sorted(e.predicted_time_s for e in evals)
        # A budget between the two fastest grid points leaves exactly
        # one feasible alpha; the search must return it.
        deadline = (times[0] + times[1]) / 2.0
        alpha, obj, feasible = optimizer.best_alpha_constrained(
            curve, model, deadline)
        assert feasible
        chosen = [e for e in evals if e.alpha == alpha]
        assert chosen[0].predicted_time_s <= deadline

    def test_deadline_exactly_on_grid_point_is_feasible(self):
        """The budget is inclusive: T(alpha) == deadline qualifies."""
        optimizer, curve, model = self._setup()
        evals = optimizer.evaluate(curve, model)
        fastest = min(evals, key=lambda e: e.predicted_time_s)
        alpha, _, feasible = optimizer.best_alpha_constrained(
            curve, model, fastest.predicted_time_s)
        assert feasible
        assert alpha == fastest.alpha

    def test_infeasible_falls_back_to_min_time(self):
        optimizer, curve, model = self._setup()
        evals = optimizer.evaluate(curve, model)
        fastest = min(evals, key=lambda e: e.predicted_time_s)
        alpha, obj, feasible = optimizer.best_alpha_constrained(
            curve, model, fastest.predicted_time_s * 0.5)
        assert not feasible
        assert alpha == fastest.alpha
        assert obj == pytest.approx(fastest.objective)

    def test_dead_gpu_with_deadline_skips_stalled_endpoint(self):
        """alpha=1 is infinitely slow on a dead GPU; neither the
        feasible search nor the min-T fallback may pick it."""
        optimizer = AlphaOptimizer(EDP, 0.1)
        curve = flat_curve()
        model = ExecutionTimeModel(100.0, 0.0, 1e5)
        alpha, obj, feasible = optimizer.best_alpha_constrained(
            curve, model, deadline_s=1e9)
        assert feasible and alpha < 1.0
        alpha, _, feasible = optimizer.best_alpha_constrained(
            curve, model, deadline_s=1e-9)
        assert not feasible and alpha < 1.0

    def test_both_devices_stalled_raises(self):
        class StalledModel:
            def total_time(self, alpha):
                return float("inf")

        optimizer = AlphaOptimizer(EDP, 0.1)
        with pytest.raises(SchedulingError):
            optimizer.best_alpha_constrained(flat_curve(), StalledModel(),
                                             1.0)

    def test_best_alpha_delegates_for_constrained_metric(self):
        """AlphaOptimizer(ConstrainedMetric).best_alpha honors the
        deadline without callers opting in."""
        _, curve, model = self._setup()
        evals = AlphaOptimizer(EDP, 0.1).evaluate(curve, model)
        fastest = min(evals, key=lambda e: e.predicted_time_s)
        deadline = fastest.predicted_time_s * 1.001
        constrained = AlphaOptimizer(
            ConstrainedMetric.constrain(EDP, deadline), 0.1)
        alpha, _ = constrained.best_alpha(curve, model)
        assert model.total_time(alpha) <= deadline
