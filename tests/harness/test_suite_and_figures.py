"""Suite evaluation and figure regenerators (cheap pieces only; the
full Figs. 9-12 runs live in benchmarks/)."""

from dataclasses import replace

import pytest

from repro.core.categories import category_from_codes
from repro.core.characterization import PowerCharacterizer
from repro.core.metrics import EDP, ENERGY
from repro.core.scheduler import EnergyAwareScheduler
from repro.errors import HarnessError
from repro.harness.engine import (
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
)
from repro.harness.experiment import run_application
from repro.harness.figures import (
    REGENERATORS,
    _measure_classification,
    regenerate,
    regenerate_figure_4,
    regenerate_table_1,
)
from repro.harness.suite import evaluate_suite, get_characterization
from repro.soc.spec import baytrail_tablet
from repro.workloads.microbench import standard_microbenches
from repro.workloads.registry import workload_by_abbrev

C_LL = category_from_codes("C-LL")


def _idle_variant(spec):
    """A same-name variant of ``spec`` that idles 1 W higher."""
    return replace(spec, idle_power_w=spec.idle_power_w + 1.0)


@pytest.fixture(scope="module")
def warm_engine(tmp_path_factory):
    """A serial engine whose result cache the variant's sweeps fill."""
    return ExecutionEngine(jobs=1, cache=ResultCache(
        str(tmp_path_factory.mktemp("runs"))))


@pytest.fixture(scope="module")
def variant_fits(warm_engine):
    """The idle variant's own characterization, fitted fresh."""
    characterizer = PowerCharacterizer(
        microbenches=standard_microbenches(),
        spec=_idle_variant(baytrail_tablet()))
    return characterizer.characterize(warm_engine)


class TestRegistry:
    def test_all_paper_experiments_present(self):
        expected = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                    "table1", "fig9", "fig10", "fig11", "fig12", "chaos",
                    "crashchaos", "fleet", "objectives"}
        assert expected == set(REGENERATORS)

    def test_unknown_experiment(self):
        with pytest.raises(HarnessError):
            regenerate("fig99")


class TestCharacterizationCache:
    def test_characterization_cached_per_platform(self, desktop):
        first = get_characterization(desktop)
        second = get_characterization(desktop)
        assert first is second

    def test_same_name_variant_gets_its_own_fits(
            self, tablet, tablet_characterization, variant_fits,
            warm_engine):
        variant = _idle_variant(tablet)
        assert variant.name == tablet.name
        fits = get_characterization(variant, engine=warm_engine)
        for category, curve in variant_fits.curves.items():
            assert fits.curve_for(category).coefficients == \
                curve.coefficients
        stock_p0 = tablet_characterization.curve_for(C_LL).power(0.0)
        assert fits.curve_for(C_LL).power(0.0) > stock_p0 + 0.5

    def test_sweep_step_keys_the_memo(self, tablet,
                                      tablet_characterization):
        coarse = get_characterization(tablet, sweep_step=0.1)
        assert coarse is not tablet_characterization
        for curve in coarse.curves.values():
            assert curve.sample_alphas == pytest.approx(
                [i / 10 for i in range(11)])
        assert get_characterization(tablet, sweep_step=0.1) is coarse

    def test_pooled_eas_on_variant_uses_its_own_fits(
            self, tablet, tablet_characterization, variant_fits,
            warm_engine, monkeypatch):
        variant = _idle_variant(tablet)
        get_characterization(variant, engine=warm_engine)

        # Every lookup from here on must hit the memo; pool workers
        # fork with this patch in place, so they may not sweep either.
        def refuse(self, engine=None):
            raise AssertionError("re-characterized a memoized platform")

        monkeypatch.setattr(PowerCharacterizer, "characterize", refuse)
        # Under the energy metric the stock fits pick other splits for
        # RT and SM than the variant's own fits do.
        specs = [RunSpec(platform=variant, workload=abbrev,
                         scheduler=SchedulerSpec.eas(ENERGY), tablet=True)
                 for abbrev in ("RT", "SM")]
        serial = ExecutionEngine(jobs=1).run_batch(specs)
        pooled = ExecutionEngine(jobs=2).run_batch(specs)
        for spec, one, two in zip(specs, serial, pooled):
            own = run_application(
                variant, workload_by_abbrev(spec.workload),
                EnergyAwareScheduler(variant_fits, ENERGY),
                strategy_name=spec.scheduler.strategy_name, tablet=True)
            assert two.payload.canonical() == one.payload.canonical()
            assert one.payload.canonical() == own.canonical()


class TestSuiteEvaluation:
    def test_single_workload_suite(self, desktop):
        """A one-workload suite exercises the full strategy matrix."""
        workload = workload_by_abbrev("NB")
        evaluation = evaluate_suite(desktop, [workload], EDP)
        assert evaluation.workloads() == ["NB"]
        for strategy in ("CPU", "GPU", "PERF", "EAS", "Oracle"):
            outcome = evaluation.outcome("NB", strategy)
            assert outcome.metric_value > 0
        # Oracle is the best by construction.
        assert evaluation.outcome("NB", "Oracle").efficiency_pct == 100.0
        for strategy in ("CPU", "GPU"):
            assert evaluation.outcome(
                "NB", strategy).efficiency_pct <= 100.0 + 1e-9
        # Averages computed over the declared strategies.
        assert evaluation.average_efficiency_pct("EAS") > 0


class TestCheapFigures:
    def test_figure4_reproduces_burst_dips(self):
        """Fig. 4's shape: steady memory-bound CPU power near 60 W,
        dips below ~40 W while the GPU bursts."""
        result = regenerate_figure_4()
        steady_note = result.notes[0]
        dip_note = result.notes[1]
        steady = float(steady_note.split(":")[1].split("W")[0])
        dip = float(dip_note.split(":")[1].split("W")[0])
        assert steady > 48.0
        assert dip < 40.0
        assert "10" in result.notes[2]
        assert result.render()

    def test_table1_classification_mostly_matches_paper(self):
        """Measured online classification agrees with the paper's
        Table 1 on boundedness for every workload."""
        result = regenerate_table_1()
        paper_bound = {"BH": "M", "BFS": "M", "CC": "M", "FD": "C",
                       "MB": "M", "SL": "M", "SP": "M", "BS": "C",
                       "MM": "C", "NB": "C", "RT": "C", "SM": "M"}
        for row in result.rows:
            abbrev, bound = row[1], row[6]
            assert bound == paper_bound[abbrev], abbrev
        assert result.render()

    def test_measured_classification_runs(self, desktop):
        category = _measure_classification(desktop, workload_by_abbrev("NB"))
        assert category.short_code.startswith("C")


class TestObjectivesFigure:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.harness.figures import regenerate_objectives

        return regenerate_objectives("fast")

    def test_constrained_eas_meets_loose_budgets(self, result):
        """Per-cell strategy triples: the loose-budget constrained run
        never exceeds the budget encoded in its label, and race-to-idle
        lands exactly on it (sprint + banked idle slack)."""
        by_cell = {}
        for platform, workload, strategy, time_s, _, _ in result.rows:
            by_cell.setdefault((platform, workload), {})[
                strategy.split("[")[0]] = (strategy, time_s)
        assert len(by_cell) == 4  # both platforms x MB, BS
        for (platform, workload), strategies in by_cell.items():
            assert set(strategies) == {"EAS", "RACE"} | {
                s for s in strategies if s.startswith("EAS")}

    def test_tight_budgets_are_infeasible(self, result):
        assert result.infeasible
        for _, _, _, n_infeasible, n_total in result.infeasible:
            assert n_infeasible == n_total > 0

    def test_carbon_shifting_reported(self, result):
        assert any("low-carbon" in key for key, _ in result.carbon_rows)
        assert len(result.fleet_fingerprints) == 2
        assert result.fleet_fingerprints[0] != result.fleet_fingerprints[1]

    def test_fingerprint_stable_and_rendered(self, result):
        from repro.harness.figures import regenerate_objectives

        assert result.render()
        assert regenerate_objectives("fast").fingerprint() == \
            result.fingerprint()
