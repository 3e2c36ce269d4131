"""TenancySpec: the typed multiprogram tenancy description."""

import pytest

from repro.errors import HarnessError, SchedulingError, SpecError
from repro.harness.engine import (
    KIND_APPLICATION,
    KIND_MULTIPROGRAM,
    RunSpec,
    SchedulerSpec,
)
from repro.runtime.tenancy import TenancySpec, TenantSpec, parse_tenant_specs
from repro.soc.spec import haswell_desktop

MIX = "BS:0,CC:5:40"


def _typed() -> TenancySpec:
    return TenancySpec(policy="priority", lease_quantum=3,
                       tenants=parse_tenant_specs(MIX))


class TestRoundTrip:
    def test_tenant_text_reconstructs(self):
        # Zero priorities are normalized away ("BS:0" -> "BS").
        assert _typed().tenant_text == "BS,CC:5:40"

    def test_tenants_coerced_to_tuple(self):
        spec = TenancySpec(tenants=list(parse_tenant_specs("BS,CC")))
        assert isinstance(spec.tenants, tuple)

    def test_defaults(self):
        spec = TenancySpec(tenants=parse_tenant_specs("BS,CC"))
        assert spec.policy == "fifo"
        assert spec.lease_quantum >= 1


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(SchedulingError):
            TenancySpec(policy="lottery",
                        tenants=parse_tenant_specs("BS,CC"))

    def test_bad_quantum(self):
        with pytest.raises(SchedulingError):
            TenancySpec(lease_quantum=0,
                        tenants=parse_tenant_specs("BS,CC"))

    def test_empty_tenants(self):
        with pytest.raises(SchedulingError):
            TenancySpec(tenants=())

    def test_non_tenantspec_entries(self):
        with pytest.raises(SchedulingError):
            TenancySpec(tenants=("BS", "CC"))


class TestDeadlineValidation:
    """Regression: the parser accepted negative/zero/NaN/inf deadlines,
    which corrupt the arbiter's earliest-deadline ordering."""

    @pytest.mark.parametrize("deadline", [-1.0, 0.0, float("nan"),
                                          float("inf"), -float("inf"),
                                          True, "40"])
    def test_tenant_spec_rejects_bad_deadline(self, deadline):
        with pytest.raises(SpecError):
            TenantSpec(name="BS-0", workload="BS", deadline_s=deadline)

    @pytest.mark.parametrize("text", ["BS:0:-1", "BS:0:0", "BS:0:nan",
                                      "BS:0:inf", "BS:0:-inf",
                                      "BS,CC:5:-40"])
    def test_parse_rejects_bad_deadline_text(self, text):
        with pytest.raises(SpecError) as excinfo:
            parse_tenant_specs(text)
        # The error names the offending entry, not just the field.
        assert "bad tenant entry" in str(excinfo.value)

    def test_spec_error_is_a_repro_error(self):
        # Catchable via the package-wide base class.
        from repro.errors import ReproError

        assert issubclass(SpecError, ReproError)

    def test_valid_deadline_round_trips(self):
        spec = TenancySpec(tenants=parse_tenant_specs("BS:0:40,CC"))
        assert spec.tenants[0].deadline_s == 40.0
        assert spec.tenants[1].deadline_s is None
        assert parse_tenant_specs(spec.tenant_text) == spec.tenants


class TestCacheKey:
    def _spec(self, tenancy) -> RunSpec:
        return RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                       scheduler=SchedulerSpec.eas("edp"), tenancy=tenancy)

    def test_cache_key_sensitive_to_tenancy_fields(self):
        base = self._spec(_typed())
        keys = {base.cache_key()}
        for variant in (
                TenancySpec(policy="fifo", lease_quantum=3,
                            tenants=parse_tenant_specs(MIX)),
                TenancySpec(policy="priority", lease_quantum=4,
                            tenants=parse_tenant_specs(MIX)),
                TenancySpec(policy="priority", lease_quantum=3,
                            tenants=parse_tenant_specs("BS:0,CC:6:40")),
                TenancySpec(policy="priority", lease_quantum=3,
                            tenants=parse_tenant_specs("BS:0,CC:5:41")),
        ):
            keys.add(self._spec(variant).cache_key())
        assert len(keys) == 5

    def test_canonical_dict_is_plain_data(self):
        import json

        payload = _typed().canonical_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestRunSpecTenancy:
    @pytest.mark.parametrize("kind, tenancy", [
        (KIND_APPLICATION, ""),
        (KIND_MULTIPROGRAM, "fifo;2;BS,CC"),
        (KIND_MULTIPROGRAM, {"policy": "fifo"}),
    ])
    def test_untyped_tenancy_rejected(self, kind, tenancy):
        with pytest.raises(HarnessError, match="TenancySpec"):
            RunSpec(platform=haswell_desktop(), kind=kind, workload="MM",
                    scheduler=SchedulerSpec.eas("edp"), tenancy=tenancy)

    def test_multiprogram_requires_tenancy(self):
        with pytest.raises(HarnessError):
            RunSpec(platform=haswell_desktop(), kind=KIND_MULTIPROGRAM,
                    scheduler=SchedulerSpec.eas("edp"))


class TestTenantSpecInterop:
    def test_tenants_are_tenant_specs(self):
        for tenant in _typed().tenants:
            assert isinstance(tenant, TenantSpec)

    def test_canonical_dict_fields(self):
        payload = _typed().canonical_dict()
        assert payload["policy"] == "priority"
        assert payload["lease_quantum"] == 3
        # Tenant names are positional: <abbrev>-<index>.
        assert [t["name"] for t in payload["tenants"]] == ["BS-0", "CC-1"]
