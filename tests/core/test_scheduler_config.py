""":class:`SchedulerConfig` validation."""

import pytest

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
        ("reprofile_growth", 0.9),
        ("gpu_profile_size", 0),
        ("gpu_profile_size", -1),
        ("max_profile_retries", -1),
        ("retry_backoff_s", -0.1),
        ("fault_cooldown_s", -1.0),
        ("fault_budget", 0),
        ("max_profile_rounds", 0),
        ("gpu_busy_rechecks", -1),
        ("gpu_busy_recheck_idle_s", -1e-9),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            SchedulerConfig(**{field: value})

    def test_negative_convergence_tolerance_is_a_sentinel(self):
        """-1 disables convergence; it must stay constructible."""
        SchedulerConfig(convergence_tolerance=-1.0)

    def test_gpu_profile_size_none_means_platform_default(self):
        assert SchedulerConfig(gpu_profile_size=None).gpu_profile_size is None
