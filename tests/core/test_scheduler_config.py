""":class:`SchedulerConfig` validation and the fixed resilience settings."""

from dataclasses import fields

import pytest

from repro.core import scheduler
from repro.core.scheduler import SchedulerConfig
from repro.errors import SchedulingError


class TestValidation:
    def test_defaults_are_valid(self):
        SchedulerConfig()  # __post_init__ validates

    @pytest.mark.parametrize("field,value", [
        ("alpha_step", 0.0),
        ("alpha_step", 1.5),
        ("profile_fraction", 0.0),
        ("profile_fraction", 1.1),
        ("chunk_growth", 0.5),
        ("chunk_growth", float("inf")),
        ("chunk_growth", float("nan")),
        ("convergence_tolerance", float("nan")),
        ("convergence_tolerance", float("inf")),
        ("convergence_tolerance", float("-inf")),
        ("gpu_profile_size", 0),
        ("gpu_profile_size", -1),
        ("gpu_profile_size", float("inf")),
        ("gpu_profile_size", 2.5),
        ("gpu_profile_size", True),
        # Knobs that are now module constants or deleted: an
        # out-of-range value is refused as an unknown keyword.
        ("reprofile_growth", 0.9),
        ("max_profile_retries", -1),
        ("retry_backoff_s", -0.1),
        ("fault_cooldown_s", -1.0),
        ("fault_budget", 0),
        ("max_profile_rounds", 0),
        ("gpu_busy_rechecks", -1),
        ("gpu_busy_recheck_idle_s", -1e-9),
    ])
    def test_rejects_out_of_range(self, field, value):
        settable = {f.name for f in fields(SchedulerConfig)}
        error = SchedulingError if field in settable else TypeError
        with pytest.raises(error, match=field):
            SchedulerConfig(**{field: value})

    def test_negative_convergence_tolerance_is_a_sentinel(self):
        """-1 disables convergence; it must stay constructible."""
        SchedulerConfig(convergence_tolerance=-1.0)

    def test_gpu_profile_size_none_means_platform_default(self):
        assert SchedulerConfig(gpu_profile_size=None).gpu_profile_size is None


class TestSettableSurface:
    def test_fields_are_the_ablation_knobs(self):
        """Only what the paper-shape ablations vary is settable."""
        assert {f.name for f in fields(SchedulerConfig)} == {
            "alpha_step", "profile_fraction", "chunk_growth",
            "convergence_tolerance", "always_reprofile", "gpu_profile_size"}

    def test_resilience_constants_keep_their_values(self):
        assert scheduler.REPROFILE_GROWTH == 4.0
        assert scheduler.MAX_PROFILE_RETRIES == 2
        assert scheduler.FAULT_BUDGET == 8
        assert scheduler.MAX_PROFILE_ROUNDS == 12
        assert scheduler.GPU_BUSY_RECHECKS == 1
