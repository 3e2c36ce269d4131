"""Platform power characterization: sweeps, fits, caching."""

import hashlib
import json
import math

import pytest

from repro.core.categories import (
    Boundedness,
    DeviceDuration,
    WorkloadCategory,
    all_categories,
)
from repro.core import characterization as characterization_module
from repro.core.characterization import (
    CharacterizationMicrobench,
    PlatformCharacterization,
    PowerCharacterizer,
)
from repro.errors import CharacterizationError, HarnessError
from repro.harness.engine import KIND_CHAR_SWEEP, RunSpec
from repro.harness.suite import get_characterization
from repro.soc.cost_model import KernelCostModel
from repro.workloads.microbench import standard_microbenches


def one_bench():
    cost = KernelCostModel(name="probe", instructions_per_item=1000.0,
                           loadstore_fraction=0.2, l3_miss_rate=0.0)
    return CharacterizationMicrobench(
        category=WorkloadCategory(Boundedness.COMPUTE, DeviceDuration.SHORT,
                                  DeviceDuration.SHORT),
        cost=cost, cpu_target_s=0.03, repetitions=3)


class TestSweep:
    def test_sweep_covers_alpha_grid(self, desktop):
        characterizer = PowerCharacterizer(
            spec=desktop, microbenches=[one_bench()], sweep_step=0.25)
        points = characterizer.sweep(one_bench())
        assert [p.alpha for p in points] == pytest.approx([0, 0.25, 0.5, 0.75, 1])
        assert all(p.power_w > 0 for p in points)
        assert all(p.time_s > 0 for p in points)

    def test_endpoint_powers_are_single_device(self, desktop):
        """alpha=0 power looks like CPU-alone (~45 W on the desktop),
        alpha=1 like GPU-alone (~30 W)."""
        characterizer = PowerCharacterizer(
            spec=desktop, microbenches=[one_bench()], sweep_step=0.5)
        points = characterizer.sweep(one_bench())
        assert 38.0 < points[0].power_w < 52.0
        assert 25.0 < points[-1].power_w < 38.0

    def test_duplicate_categories_rejected(self, desktop):
        with pytest.raises(CharacterizationError):
            PowerCharacterizer(
                spec=desktop, microbenches=[one_bench(), one_bench()])

    def test_empty_benches_rejected(self, desktop):
        with pytest.raises(CharacterizationError):
            PowerCharacterizer(
                spec=desktop, microbenches=[])


class TestFullCharacterization:
    def test_standard_benches_cover_all_categories(self):
        cats = {b.category for b in standard_microbenches()}
        assert cats == set(all_categories())

    def test_full_characterization_is_complete(self,
                                               desktop_characterization):
        assert desktop_characterization.is_complete

    def test_desktop_memory_curves_above_compute(self,
                                                 desktop_characterization):
        """Section 2: memory-bound work draws more package power than
        compute-bound on the desktop (e.g. ~63 W vs ~55 W mid-sweep)."""
        from repro.core.categories import category_from_codes

        mem = desktop_characterization.curve_for(category_from_codes("M-LL"))
        cmp_ = desktop_characterization.curve_for(category_from_codes("C-LL"))
        assert mem.power(0.5) > cmp_.power(0.5)

    def test_tablet_memory_curves_below_compute(self,
                                                tablet_characterization):
        """The tablet's surprise: memory-bound draws *less* power."""
        from repro.core.categories import category_from_codes

        mem = tablet_characterization.curve_for(category_from_codes("M-LL"))
        cmp_ = tablet_characterization.curve_for(category_from_codes("C-LL"))
        assert mem.power(0.0) < cmp_.power(0.0)

    def test_tablet_gpu_draws_more_than_cpu(self, tablet_characterization):
        """Fig. 6: on the Bay Trail the GPU consumes more than the CPU
        (curves mostly concave, P(1) > P(0) for compute)."""
        from repro.core.categories import category_from_codes

        curve = tablet_characterization.curve_for(category_from_codes("C-LL"))
        assert curve.power(1.0) > curve.power(0.0)

    def test_desktop_gpu_draws_less_than_cpu(self, desktop_characterization):
        from repro.core.categories import category_from_codes

        curve = desktop_characterization.curve_for(category_from_codes("C-LL"))
        assert curve.power(1.0) < curve.power(0.0)

    def test_missing_category_raises(self):
        empty = PlatformCharacterization(platform_name="x")
        with pytest.raises(CharacterizationError):
            empty.curve_for(all_categories()[0])


class TestSerialization:
    def test_json_roundtrip(self, desktop_characterization):
        text = desktop_characterization.to_json()
        restored = PlatformCharacterization.from_json(text)
        assert restored.platform_name == desktop_characterization.platform_name
        assert restored.is_complete
        for category in all_categories():
            original = desktop_characterization.curve_for(category)
            loaded = restored.curve_for(category)
            assert loaded.coefficients == pytest.approx(original.coefficients)
            for alpha in (0.0, 0.3, 0.8, 1.0):
                assert loaded.power(alpha) == pytest.approx(
                    original.power(alpha))


#: Steps that cannot grid alpha in [0, 1]: not finite, outside (0, 1],
#: absurdly fine, or not dividing 1 (0.3 would fail only in the fit,
#: after all eight sweeps; 0.12 would silently never measure alpha=1).
BAD_STEPS = [math.nan, math.inf, 0.0, -0.1, 1.5, 1e-300, 0.3, 0.12]
GOOD_STEPS = [0.05, 0.1, 0.25, 0.5]


@pytest.fixture
def no_simulation(monkeypatch):
    """Any measurement fails loudly: validation must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating sweep_step")
    monkeypatch.setattr(characterization_module, "measure_power", refuse)


@pytest.mark.usefixtures("no_simulation")
class TestSweepStepValidation:
    @pytest.mark.parametrize("step", BAD_STEPS)
    def test_spec_path_rejects(self, desktop, step):
        with pytest.raises(CharacterizationError):
            PowerCharacterizer(spec=desktop,
                               microbenches=standard_microbenches(),
                               sweep_step=step)

    @pytest.mark.parametrize("step", BAD_STEPS)
    def test_get_characterization_rejects(self, desktop, step):
        with pytest.raises(CharacterizationError):
            get_characterization(desktop, sweep_step=step)

    @pytest.mark.parametrize("step", BAD_STEPS)
    def test_char_sweep_runspec_rejects(self, desktop, step):
        with pytest.raises(HarnessError):
            RunSpec(platform=desktop, kind=KIND_CHAR_SWEEP,
                    workload="C-SS", sweep_step=step,
                    microbench=one_bench())

    @pytest.mark.parametrize("step", GOOD_STEPS)
    def test_dividing_steps_accepted(self, desktop, step):
        characterizer = PowerCharacterizer(
            spec=desktop, microbenches=[one_bench()], sweep_step=step)
        alphas = characterizer._sweep_alphas()
        assert alphas[0] == 0.0 and alphas[-1] == 1.0
        RunSpec(platform=desktop, kind=KIND_CHAR_SWEEP, workload="C-SS",
                sweep_step=step, microbench=one_bench())


def _sweep_points_digest(characterization: PlatformCharacterization) -> str:
    """sha256 of every curve's measured sweep points, in category order.

    The points, not the fitted coefficients: the fit goes through the
    host's LAPACK, the measurements only through the simulator.
    """
    payload = [[category.short_code,
                list(characterization.curve_for(category).sample_alphas),
                list(characterization.curve_for(category).sample_powers)]
               for category in all_categories()]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestTableGPin:
    """Table G's measurements, bit for bit (recorded before the
    simulator's hot path was restructured; any drift is a semantics
    change of the exact clock mode)."""

    def test_desktop_sweep_points(self, desktop_characterization):
        assert _sweep_points_digest(desktop_characterization) == (
            "5021eaef9686ebedb03d24280dfc7a58de76c4c25c8952ba32c5afaed208c8f8")

    def test_tablet_sweep_points(self, tablet_characterization):
        assert _sweep_points_digest(tablet_characterization) == (
            "774e3301336e4d4acc7c03cb2808aa0ba2b374e9010b84a71e9513db79656385")
