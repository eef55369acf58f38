"""Tests for retry policies, circuit breakers, and ReliableExchange."""

import pytest

from repro.reliability.exchange import (
    NO_RETRY,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRegistry,
    ReliableExchange,
    RetryPolicy,
    deterministic_jitter,
)


class TestJitter:
    def test_stable_across_calls(self):
        assert (deterministic_jitter("auth:a->b", 2)
                == deterministic_jitter("auth:a->b", 2))

    def test_in_unit_interval(self):
        for attempt in range(10):
            value = deterministic_jitter("key", attempt)
            assert 0.0 <= value < 1.0

    def test_varies_with_key_and_attempt(self):
        values = {deterministic_jitter(f"k{i}", j)
                  for i in range(4) for j in range(4)}
        assert len(values) == 16


class TestRetryPolicy:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_timeout(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=-1.0)

    def test_rejects_shrinking_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=100.0, jitter_fraction=0.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_backoff_capped(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=10.0,
                             backoff_max_s=3.0, jitter_fraction=0.0)
        assert policy.backoff_s(5) == pytest.approx(3.0)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=1.0,
                             jitter_fraction=0.5)
        backoff = policy.backoff_s(1, key="k")
        assert 1.0 <= backoff < 1.5

    def test_no_retry_constant(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.backoff_s(1) == 0.0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker("isl", failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 1

    def test_open_refuses_until_recovery(self):
        breaker = CircuitBreaker("isl", failure_threshold=1,
                                 recovery_time_s=60.0)
        breaker.record_failure(10.0)
        assert not breaker.allow(30.0)
        assert breaker.rejected_count == 1
        assert breaker.allow(70.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_success_recloses(self):
        breaker = CircuitBreaker("isl", failure_threshold=1,
                                 recovery_time_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(20.0)
        breaker.record_success(20.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("isl", failure_threshold=1,
                                 recovery_time_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(20.0)
        breaker.record_failure(20.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 2
        assert not breaker.allow(25.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("isl", failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)


class TestRegistry:
    def test_one_breaker_per_key(self):
        registry = CircuitBreakerRegistry()
        assert registry.breaker("a") is registry.breaker("a")
        assert registry.breaker("a") is not registry.breaker("b")
        assert len(registry) == 2

    def test_open_keys_sorted(self):
        registry = CircuitBreakerRegistry(failure_threshold=1)
        registry.breaker("zeta").record_failure(0.0)
        registry.breaker("alpha").record_failure(0.0)
        assert registry.open_keys == ("alpha", "zeta")

    def test_states_snapshot(self):
        registry = CircuitBreakerRegistry(failure_threshold=1)
        registry.breaker("a")
        registry.breaker("b").record_failure(0.0)
        assert registry.states() == {"a": BreakerState.CLOSED,
                                     "b": BreakerState.OPEN}


class TestReliableExchange:
    def test_first_attempt_success_costs_rtt_only(self):
        exchange = ReliableExchange(RetryPolicy(jitter_fraction=0.0))
        result = exchange.run("k", lambda _i: (True, 0.05))
        assert result.ok
        assert result.attempts == 1
        assert result.elapsed_s == pytest.approx(0.05)

    def test_no_retry_zero_loss_is_nominal_rtt(self):
        # The byte-identity contract: NO_RETRY + delivered first attempt
        # charges exactly the nominal RTT, nothing else.
        exchange = ReliableExchange(NO_RETRY)
        result = exchange.run("k", lambda _i: (True, 0.1234))
        assert result.elapsed_s == 0.1234

    def test_lost_attempts_cost_timeout_plus_backoff(self):
        policy = RetryPolicy(max_attempts=3, timeout_s=0.5,
                             backoff_base_s=0.1, backoff_factor=2.0,
                             jitter_fraction=0.0)
        outcomes = iter([(False, 0.0), (False, 0.0), (True, 0.05)])
        exchange = ReliableExchange(policy)
        result = exchange.run("k", lambda _i: next(outcomes))
        assert result.ok
        assert result.attempts == 3
        # 2 timeouts + backoffs (0.1 + 0.2) + final RTT.
        assert result.elapsed_s == pytest.approx(0.5 + 0.1 + 0.5 + 0.2 + 0.05)

    def test_exhaustion_fails_with_reason(self):
        policy = RetryPolicy(max_attempts=2, timeout_s=0.5,
                             backoff_base_s=0.1, jitter_fraction=0.0)
        exchange = ReliableExchange(policy)
        result = exchange.run("k", lambda _i: (False, 0.0))
        assert not result.ok
        assert result.reason == "exhausted"
        assert result.attempts == 2
        assert result.elapsed_s == pytest.approx(0.5 + 0.1 + 0.5)
        assert exchange.failure_count == 1

    def test_infinite_rtt_treated_as_lost(self):
        exchange = ReliableExchange(NO_RETRY)
        result = exchange.run("k", lambda _i: (True, float("inf")))
        assert not result.ok
        assert result.reason == "exhausted"

    def test_exhaustion_trips_breaker_then_refuses(self):
        registry = CircuitBreakerRegistry(failure_threshold=2,
                                          recovery_time_s=1000.0)
        policy = RetryPolicy(max_attempts=1, timeout_s=0.1,
                             jitter_fraction=0.0)
        exchange = ReliableExchange(policy, registry)
        for _ in range(2):
            result = exchange.run("isl", lambda _i: (False, 0.0), now_s=0.0)
            assert result.reason == "exhausted"
        refused = exchange.run("isl", lambda _i: (True, 0.01), now_s=1.0)
        assert not refused.ok
        assert refused.reason == "circuit-open"
        assert refused.attempts == 0
        assert refused.breaker_state is BreakerState.OPEN

    def test_breaker_recovers_through_half_open(self):
        registry = CircuitBreakerRegistry(failure_threshold=1,
                                          recovery_time_s=10.0)
        exchange = ReliableExchange(NO_RETRY, registry)
        exchange.run("isl", lambda _i: (False, 0.0), now_s=0.0)
        healed = exchange.run("isl", lambda _i: (True, 0.01), now_s=20.0)
        assert healed.ok
        assert healed.breaker_state is BreakerState.CLOSED

    def test_success_counts_tracked(self):
        exchange = ReliableExchange(NO_RETRY)
        exchange.run("a", lambda _i: (True, 0.01))
        exchange.run("b", lambda _i: (False, 0.0))
        assert exchange.success_count == 1
        assert exchange.failure_count == 1

    def test_attempt_index_passed_through(self):
        seen = []

        def attempt(index):
            seen.append(index)
            return index == 2, 0.01

        policy = RetryPolicy(max_attempts=4, timeout_s=0.0,
                             backoff_base_s=0.0, jitter_fraction=0.0)
        ReliableExchange(policy).run("k", attempt)
        assert seen == [0, 1, 2]
