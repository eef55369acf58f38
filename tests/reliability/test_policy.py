"""Tests for the reliability package's exports and shared breakers."""

from repro.reliability.exchange import (
    NO_RETRY,
    CircuitBreakerRegistry,
    ReliableExchange,
)


class TestPackageExports:
    def test_reexports(self):
        import repro.reliability as reliability

        for name in ("LossyControlChannel", "ReliableExchange",
                     "RetryPolicy", "NO_RETRY", "CircuitBreaker",
                     "CircuitBreakerRegistry", "BreakerState",
                     "DEGRADED_COUNTER", "note_degraded"):
            assert hasattr(reliability, name), name


def test_breaker_registry_shared_across_exchanges():
    registry = CircuitBreakerRegistry(failure_threshold=1)
    auth = ReliableExchange(NO_RETRY, registry, name="auth")
    plan = ReliableExchange(NO_RETRY, registry, name="plan")
    auth.run("shared-link", lambda _i: (False, 0.0), now_s=0.0)
    refused = plan.run("shared-link", lambda _i: (True, 0.01), now_s=1.0)
    assert refused.reason == "circuit-open"
