"""Reliable request/response exchanges over lossy control channels.

:class:`ReliableExchange` is the generic primitive every control protocol
in the reproduction shares: bounded retransmission with per-attempt
timeouts, exponential backoff with *deterministic* jitter (hash-derived,
never wall-clock or global-RNG), and a per-key circuit breaker that stops
hammering a flapping ISL or an unreachable auth anchor.

The accounting convention: an attempt whose message is **delivered**
completes in its realized round-trip time; an attempt whose message is
**lost** costs the full per-attempt timeout before the next send.  With a
zero-loss channel and retries disabled, one exchange therefore costs
exactly its nominal RTT — byte-identical to the perfect-delivery code
path it replaced.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import obs as _obs


def deterministic_jitter(key: str, attempt: int) -> float:
    """A stable pseudo-random fraction in ``[0, 1)`` for backoff jitter.

    Derived from a hash of ``(key, attempt)`` so two runs of the same
    scenario back off identically — no global RNG, no wall clock.
    """
    digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission bounds and backoff shape for one exchange class.

    Attributes:
        max_attempts: Total sends allowed (1 = no retries).
        timeout_s: How long a lost attempt waits before the retransmit
            timer fires.
        backoff_base_s: Backoff before the second attempt.
        backoff_factor: Multiplier per further attempt (exponential).
        backoff_max_s: Backoff ceiling.
        jitter_fraction: Extra backoff of up to this fraction, drawn from
            :func:`deterministic_jitter` — decorrelates retry storms
            without sacrificing replayability.
    """

    max_attempts: int = 4
    timeout_s: float = 0.5
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s < 0.0:
            raise ValueError(f"timeout_s must be >= 0, got {self.timeout_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Backoff charged before retransmission number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        nominal = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        return nominal * (1.0 + self.jitter_fraction
                          * deterministic_jitter(key, attempt))


#: Retries disabled: a single attempt, no backoff — the baseline policy.
NO_RETRY = RetryPolicy(max_attempts=1, backoff_base_s=0.0,
                       jitter_fraction=0.0)


class BreakerState(enum.Enum):
    """Circuit-breaker lifecycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-link (or per-anchor) failure gate.

    Closed: traffic flows, consecutive failures are counted.  After
    ``failure_threshold`` consecutive failures the breaker **opens** and
    every exchange is refused on the spot (no attempts, no timeouts) until
    ``recovery_time_s`` of simulated time passes.  The first exchange
    after that runs **half-open**: success re-closes the breaker, failure
    re-opens it for another full recovery period.

    Args:
        key: Identity for telemetry (e.g. the link or anchor name).
        failure_threshold: Consecutive failed exchanges before opening.
        recovery_time_s: Open duration, simulated seconds.
    """

    def __init__(self, key: str, failure_threshold: int = 3,
                 recovery_time_s: float = 60.0):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_time_s < 0.0:
            raise ValueError(
                f"recovery_time_s must be >= 0, got {recovery_time_s}"
            )
        self.key = key
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: Optional[float] = None
        self.open_count = 0
        self.rejected_count = 0

    def _transition(self, state: BreakerState, now_s: float) -> None:
        if state is self.state:
            return
        previous = self.state
        self.state = state
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("reliability.breaker.transitions",
                           label=state.value)
            recorder.event("breaker.transition", now_s, subject=self.key,
                           state=state.value, previous=previous.value,
                           failures=self.consecutive_failures)

    def allow(self, now_s: float) -> bool:
        """Whether an exchange may run right now (may move OPEN→HALF_OPEN)."""
        if self.state is BreakerState.OPEN:
            if (self.opened_at_s is not None
                    and now_s - self.opened_at_s >= self.recovery_time_s):
                self._transition(BreakerState.HALF_OPEN, now_s)
                return True
            self.rejected_count += 1
            recorder = _obs.active()
            if recorder.enabled:
                recorder.count("reliability.breaker.rejected")
            return False
        return True

    def record_success(self, now_s: float) -> None:
        self.consecutive_failures = 0
        self.opened_at_s = None
        self._transition(BreakerState.CLOSED, now_s)

    def record_failure(self, now_s: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            # The trial failed: straight back to open, timer restarted.
            self.opened_at_s = now_s
            self.open_count += 1
            self._transition(BreakerState.OPEN, now_s)
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.opened_at_s = now_s
            self.open_count += 1
            self._transition(BreakerState.OPEN, now_s)


class CircuitBreakerRegistry:
    """Lazily creates one breaker per key and mirrors state into obs."""

    def __init__(self, failure_threshold: int = 3,
                 recovery_time_s: float = 60.0):
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, key: str) -> CircuitBreaker:
        found = self._breakers.get(key)
        if found is None:
            found = CircuitBreaker(
                key, failure_threshold=self.failure_threshold,
                recovery_time_s=self.recovery_time_s,
            )
            self._breakers[key] = found
        return found

    def states(self) -> Dict[str, BreakerState]:
        """Current state per key (sorted for deterministic iteration)."""
        return {key: self._breakers[key].state
                for key in sorted(self._breakers)}

    @property
    def open_keys(self) -> Tuple[str, ...]:
        return tuple(sorted(
            key for key, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        ))

    def record_gauges(self) -> None:
        """Mirror open-breaker count into the active recorder."""
        recorder = _obs.active()
        if recorder.enabled:
            recorder.gauge("reliability.breaker.open",
                           len(self.open_keys))

    def __len__(self) -> int:
        return len(self._breakers)


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of one reliable exchange.

    Attributes:
        ok: True when some attempt's request and response both landed.
        attempts: Sends performed (0 when the breaker refused outright).
        elapsed_s: Total control-plane time: realized RTTs, lost-attempt
            timeouts, and inter-attempt backoff.
        reason: ``""`` on success; ``"circuit-open"``, ``"exhausted"``,
            or ``"unreachable"`` on failure.
        breaker_state: The key's breaker state after the exchange.
    """

    ok: bool
    attempts: int
    elapsed_s: float
    reason: str = ""
    breaker_state: BreakerState = BreakerState.CLOSED


#: An attempt callable: ``fn(attempt_index) -> (delivered, round_trip_s)``.
AttemptFn = Callable[[int], Tuple[bool, float]]


class ReliableExchange:
    """Runs request/response exchanges under a retry policy and breakers.

    Args:
        policy: Retransmission policy; :data:`NO_RETRY` disables retries.
        breakers: Shared breaker registry; ``None`` disables breaking
            (every exchange is always allowed).
        name: Telemetry label distinguishing exchange classes
            ("auth", "custody", ...).
    """

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 breakers: Optional[CircuitBreakerRegistry] = None,
                 name: str = "exchange"):
        self.policy = policy or RetryPolicy()
        self.breakers = breakers
        self.name = name
        self.success_count = 0
        self.failure_count = 0

    def run(self, key: str, attempt_fn: AttemptFn,
            now_s: float = 0.0) -> ExchangeResult:
        """Execute one exchange against ``key``.

        Args:
            key: Breaker key — the control-plane resource being exercised
                (a link, an auth anchor, a successor satellite).
            attempt_fn: Performs one send; returns ``(delivered, rtt_s)``.
                A delivered attempt completes in ``rtt_s``; a lost one
                costs the policy timeout.  An infinite ``rtt_s`` on a
                delivered attempt is treated as lost (the reply never
                lands inside any timer).
            now_s: Simulated time the exchange starts (drives breaker
                recovery timers).
        """
        recorder = _obs.active()
        policy = self.policy
        breaker = (self.breakers.breaker(key)
                   if self.breakers is not None else None)
        if breaker is not None and not breaker.allow(now_s):
            self.failure_count += 1
            if recorder.enabled:
                recorder.count("reliability.exchange.failure",
                               label="circuit-open")
            return ExchangeResult(
                ok=False, attempts=0, elapsed_s=0.0, reason="circuit-open",
                breaker_state=breaker.state,
            )

        elapsed = 0.0
        attempts = 0
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                elapsed += policy.backoff_s(attempt, key=key)
                if recorder.enabled:
                    recorder.count("reliability.exchange.retries",
                                   label=self.name)
                    recorder.event("retransmission", now_s + elapsed,
                                   subject=key, attempt=attempt,
                                   exchange=self.name)
            attempts += 1
            if recorder.enabled:
                recorder.count("reliability.exchange.attempts",
                               label=self.name)
            delivered, rtt_s = attempt_fn(attempt)
            if delivered and rtt_s != float("inf"):
                elapsed += rtt_s
                if breaker is not None:
                    breaker.record_success(now_s + elapsed)
                self.success_count += 1
                if recorder.enabled:
                    recorder.count("reliability.exchange.success",
                                   label=self.name)
                    recorder.observe("reliability.exchange.latency_s",
                                     elapsed, label=self.name)
                    if attempts > 1:
                        recorder.observe("reliability.retry_latency_s",
                                         elapsed, label=self.name)
                return ExchangeResult(
                    ok=True, attempts=attempts, elapsed_s=elapsed,
                    breaker_state=(breaker.state if breaker is not None
                                   else BreakerState.CLOSED),
                )
            elapsed += policy.timeout_s

        if breaker is not None:
            breaker.record_failure(now_s + elapsed)
        self.failure_count += 1
        if recorder.enabled:
            recorder.count("reliability.exchange.failure", label="exhausted")
            recorder.observe("reliability.retry_latency_s", elapsed,
                             label=self.name)
        return ExchangeResult(
            ok=False, attempts=attempts, elapsed_s=elapsed,
            reason="exhausted",
            breaker_state=(breaker.state if breaker is not None
                           else BreakerState.CLOSED),
        )
