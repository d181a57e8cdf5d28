"""Tenant registry, quotas, token buckets, and the CLI tenant syntax."""

import pytest

from repro.service import AllocationService
from repro.service.tenants import (
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    parse_tenant_spec,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=2, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        bucket.try_take(), bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.5)  # 2/s × 0.5s = 1 token
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=3, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 3.0

    def test_zero_rate_is_a_hard_total(self):
        bucket = TokenBucket(rate_per_s=0.0, burst=1, clock=FakeClock())
        assert bucket.try_take()
        assert not bucket.try_take()


class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantConfig(name="")
        with pytest.raises(ValueError):
            TenantConfig(name="x", weight=0)
        with pytest.raises(ValueError):
            TenantConfig(name="x", max_in_flight=0)
        with pytest.raises(ValueError):
            TenantConfig(name="x", rate_per_s=-1.0)
        with pytest.raises(ValueError):
            TenantConfig(name="x", burst=0)


class TestRegistry:
    def test_auto_register_uses_default_template(self):
        registry = TenantRegistry(
            default=TenantConfig(name="default", weight=3)
        )
        state = registry.get("newcomer")
        assert state is not None
        assert state.config.name == "newcomer"
        assert state.config.weight == 3
        assert "newcomer" in registry

    def test_closed_registry_returns_none(self):
        registry = TenantRegistry(
            (TenantConfig(name="vip"),), auto_register=False
        )
        assert registry.get("vip") is not None
        assert registry.get("stranger") is None

    def test_reconfigure_keeps_counters(self):
        service = AllocationService(tenants=(TenantConfig(name="t"),))
        state = service.registry.get("t")
        state.n_queued = 2
        service.metrics.get("repro_service_requests_total").labels(
            tenant="t", outcome="admitted"
        ).inc(7)
        service.registry.register(TenantConfig(name="t", weight=9))
        again = service.registry.get("t")
        assert again is state
        assert again.config.weight == 9
        row = service.snapshot()["tenants"]["t"]
        assert (row["weight"], row["queued"], row["admitted"]) == (9, 2, 7)

    def test_rate_limited_tenant_gets_a_bucket(self):
        registry = TenantRegistry(
            (TenantConfig(name="r", rate_per_s=5.0),
             TenantConfig(name="free"))
        )
        assert registry.get("r").bucket is not None
        assert registry.get("free").bucket is None

    def test_snapshot_shape(self):
        service = AllocationService(
            tenants=(TenantConfig(name="t", weight=2),)
        )
        service.metrics.get("repro_service_rejections_total").labels(
            tenant="t", stage="rate-limit"
        ).inc()
        snap = service.snapshot()["tenants"]
        assert snap["t"]["weight"] == 2
        assert snap["t"]["rejected"] == {"rate-limit": 1}
        assert snap["t"]["n_rejected"] == 1


class TestParseTenantSpec:
    def test_bare_name(self):
        config = parse_tenant_spec("acme")
        assert config == TenantConfig(name="acme")

    def test_full_spec(self):
        config = parse_tenant_spec(
            "acme,weight=2,rate=10,burst=4,max_in_flight=3,max_queued=9"
        )
        assert config == TenantConfig(
            name="acme", weight=2, rate_per_s=10.0, burst=4,
            max_in_flight=3, max_queued=9,
        )

    def test_unknown_option_suggested(self):
        with pytest.raises(ValueError, match="did you mean 'weight'"):
            parse_tenant_spec("acme,wieght=2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_tenant_spec("acme,weight")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_tenant_spec("acme,weight=fast")


class TestAutoRegistrationCap:
    def test_cap_bounds_client_controlled_growth(self):
        registry = TenantRegistry(max_auto_tenants=2)
        assert registry.get("a") is not None
        assert registry.get("b") is not None
        assert registry.get("c") is None  # cap reached
        assert registry.get("a") is not None  # existing still resolves
        assert len(registry) == 2

    def test_explicit_registration_ignores_the_cap(self):
        registry = TenantRegistry(max_auto_tenants=1)
        registry.get("auto")
        state = registry.register(TenantConfig(name="vip"))
        assert registry.get("vip") is state
