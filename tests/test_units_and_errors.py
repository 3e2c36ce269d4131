"""Unit helpers, exception hierarchy, and the public API surface."""

import pytest

import repro
from repro import errors, units


class TestUnits:
    def test_time_conversions(self):
        assert units.ms(100.0) == pytest.approx(0.1)
        assert units.us(5.0) == pytest.approx(5e-6)

    def test_frequency_conversions(self):
        assert units.ghz(3.4) == pytest.approx(3.4e9)
        assert units.mhz(350.0) == pytest.approx(3.5e8)

    def test_data_conversions(self):
        assert units.gb_per_s(25.6) == pytest.approx(25.6e9)
        assert units.CACHELINE_BYTES == 64
        assert units.MIB == 1024 ** 2

    def test_haswell_energy_unit_value(self):
        # RAPL on Haswell-class parts: 1/2^14 J ~ 61 uJ.
        assert units.HASWELL_ENERGY_UNIT_J == pytest.approx(6.1035e-5,
                                                            rel=1e-3)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.SpecError, errors.SimulationError, errors.CounterError,
        errors.RuntimeLayerError, errors.SchedulingError,
        errors.CharacterizationError, errors.ClassificationError,
        errors.WorkloadError, errors.HarnessError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_objects_usable(self):
        assert repro.EDP.value(10.0, 2.0) == pytest.approx(40.0)
        spec = repro.haswell_desktop()
        assert spec.gpu.hardware_parallelism == 2240
        assert len(repro.all_workloads()) == 12
