"""Serial/parallel equivalence golden tests for the execution engine.

The simulator is deterministic and every RunSpec is an independent
simulation on a fresh processor, so the engine's contract is strong:
``jobs=1``, ``jobs=2``, ``jobs=4``, and cache-replayed execution must
all produce *byte-identical* results.  These tests pin that with
fingerprints (SHA-256 over ``repr``-serialized measured quantities)
rather than approximate comparisons - a single ULP of drift fails.
"""

import pytest

from repro.core.metrics import EDP
from repro.harness import figures
from repro.harness.chaos import run_chaos_campaign
from repro.harness.engine import (
    ExecutionEngine,
    ResultCache,
    RunSpec,
    SchedulerSpec,
    use_engine,
)
from repro.harness.suite import AlphaSweep, evaluate_suite, sweep_alphas
from repro.obs.observer import Observer
from repro.soc.spec import haswell_desktop
from repro.workloads.registry import workload_by_abbrev

#: Two structurally different workloads: MB (many short invocations)
#: and BS (fewer, larger ones).
MINI_SUITE = ("MB", "BS")


@pytest.fixture(scope="module")
def desktop():
    return haswell_desktop()


@pytest.fixture(scope="module")
def serial_suite(desktop, desktop_characterization):
    workloads = [workload_by_abbrev(a) for a in MINI_SUITE]
    return evaluate_suite(desktop, workloads, EDP,
                          engine=ExecutionEngine(jobs=1))


class TestMiniSuiteEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_suite_fingerprint_identical(self, desktop,
                                                  serial_suite, jobs):
        workloads = [workload_by_abbrev(a) for a in MINI_SUITE]
        parallel = evaluate_suite(desktop, workloads, EDP,
                                  engine=ExecutionEngine(jobs=jobs))
        assert parallel.fingerprint() == serial_suite.fingerprint()

    def test_sweep_fingerprint_identical(self, desktop,
                                         desktop_characterization):
        workload = workload_by_abbrev("MB")
        serial = sweep_alphas(desktop, workload,
                              engine=ExecutionEngine(jobs=1))
        pooled = sweep_alphas(desktop, workload,
                              engine=ExecutionEngine(jobs=2))
        assert serial.fingerprint() == pooled.fingerprint()

    def test_cache_hit_on_second_invocation(self, desktop,
                                            desktop_characterization,
                                            tmp_path):
        workloads = [workload_by_abbrev(a) for a in MINI_SUITE]
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "runs")))
        first = evaluate_suite(desktop, workloads, EDP, engine=engine)
        executed = engine.cache.writes
        assert executed > 0 and engine.cache.hits == 0
        second = evaluate_suite(desktop, workloads, EDP, engine=engine)
        assert engine.cache.hits == executed
        assert engine.cache.writes == executed  # nothing recomputed
        assert second.fingerprint() == first.fingerprint()


class TestDecisionRecordEquivalence:
    #: Everything the scheduler decides is deterministic; only the
    #: wall-clock decision_overhead_s field may differ between runs.
    DETERMINISTIC_FIELDS = (
        "exit_path", "kernel", "n_items", "alpha", "category_code",
        "from_table", "profile_rounds", "cpu_throughput",
        "gpu_throughput", "faults_observed", "fault_events",
        "fallback_reason",
    )

    def _decision_stream(self, desktop, jobs):
        observer = Observer()
        engine = ExecutionEngine(jobs=jobs)
        spec = RunSpec(platform=desktop, workload="MB",
                       scheduler=SchedulerSpec.eas(), observe=True)
        engine.run_batch([spec], observer=observer)
        return [tuple(repr(getattr(r, f)) for f in
                      self.DETERMINISTIC_FIELDS)
                for r in observer.decisions]

    def test_identical_decision_streams(self, desktop,
                                        desktop_characterization):
        serial = self._decision_stream(desktop, jobs=1)
        pooled = self._decision_stream(desktop, jobs=2)
        assert serial, "EAS run produced no decision records"
        assert serial == pooled


class TestFigure2Equivalence:
    def test_serial_vs_pooled_timeline(self):
        serial = figures.regenerate_figure_2()
        with use_engine(ExecutionEngine(jobs=2)):
            pooled = figures.regenerate_figure_2()
        assert serial.fingerprint() == pooled.fingerprint()


class TestFigure4AndTable1Equivalence:
    def test_serial_vs_pooled_figure_4(self):
        serial = figures.regenerate_figure_4()
        with use_engine(ExecutionEngine(jobs=2)):
            pooled = figures.regenerate_figure_4()
        assert serial.fingerprint() == pooled.fingerprint()
        assert serial.render() == pooled.render()

    def test_serial_vs_pooled_table_1(self):
        serial = figures.regenerate_table_1()
        with use_engine(ExecutionEngine(jobs=2)):
            pooled = figures.regenerate_table_1()
        assert serial.rows == pooled.rows
        assert serial.render() == pooled.render()


class TestChaosEquivalence:
    @pytest.fixture(scope="class")
    def chaos_kwargs(self):
        return dict(workloads=[workload_by_abbrev("MB")],
                    fault_levels=(0.4,), seed=2016)

    def test_fingerprint_unchanged_under_engine(
            self, desktop_characterization, chaos_kwargs):
        serial = run_chaos_campaign(engine=ExecutionEngine(jobs=1),
                                    **chaos_kwargs)
        pooled = run_chaos_campaign(engine=ExecutionEngine(jobs=2),
                                    **chaos_kwargs)
        assert serial.fingerprint() == pooled.fingerprint()

    def test_fingerprint_stable_through_cache(self, desktop_characterization,
                                              chaos_kwargs, tmp_path):
        engine = ExecutionEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "runs")))
        first = run_chaos_campaign(engine=engine, **chaos_kwargs)
        second = run_chaos_campaign(engine=engine, **chaos_kwargs)
        assert engine.cache.hits > 0
        assert first.fingerprint() == second.fingerprint()


class TestRunAtGridRegression:
    def test_run_at_0_3_with_step_0_05(self, desktop,
                                       desktop_characterization):
        """Regression: the old float scan compared accumulated grid
        values against 0.3 with a 1e-9 tolerance; the grid-position
        index must resolve every point of a step=0.05 sweep exactly."""
        workload = workload_by_abbrev("MB")
        sweep = sweep_alphas(desktop, workload, step=0.05)
        assert len(sweep.alphas) == 21
        run = sweep.run_at(0.3)
        assert run.strategy == "static-0.30"
        for alpha in sweep.alphas:
            assert sweep.run_at(alpha) is sweep.runs[
                sweep.alphas.index(alpha)]

    def test_oracle_and_perf_alphas_consistent(self, desktop,
                                               desktop_characterization):
        workload = workload_by_abbrev("MB")
        sweep = sweep_alphas(desktop, workload)
        oracle_alpha = sweep.oracle_alpha(EDP)
        assert sweep.run_at(oracle_alpha) is sweep.oracle(EDP)
        assert sweep.run_at(sweep.perf_alpha()) is sweep.perf()


def test_alpha_sweep_index_is_exact_for_fine_grids():
    """Pure-index regression (no simulation): every grid the harness
    can build resolves exactly, including steps the old 1e-9 float
    scan was fragile for."""
    from repro.harness.suite import _sweep_grid

    for step in (0.1, 0.05, 0.025, 0.02, 0.01):
        alphas = _sweep_grid(step)
        sweep = AlphaSweep(platform="p", workload="w",
                           alphas=alphas, runs=list(range(len(alphas))))
        for i, alpha in enumerate(alphas):
            assert sweep.run_at(alpha) == i
        # The literal 0.3 is not bit-equal to any accumulated grid
        # value (3 * 0.1 == 0.30000000000000004); the index must
        # still resolve it to the right grid position.
        assert sweep.run_at(0.3) == round(0.3 / step)
