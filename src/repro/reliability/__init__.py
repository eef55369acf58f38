"""repro.reliability — lossy control signaling, retries, degradation.

The control-plane reliability layer: the association/authentication and
handover story of the paper's Section 2 assumes control messages cross
ISLs that PR 2's fault injector makes flap.  This package supplies the
three pieces that let those protocols survive it:

* :mod:`repro.reliability.channel` — a seeded lossy control-channel
  model deriving per-hop loss and delay from the snapshot link budgets
  and the live fault masks;
* :mod:`repro.reliability.exchange` — the :class:`ReliableExchange`
  primitive (bounded retransmission, exponential backoff with
  deterministic jitter, per-link circuit breakers);
* :mod:`repro.reliability.policy` — graceful degradation: proactive
  routing falls back to on-demand discovery, handover re-selects on the
  masked schedule, and the degraded-mode counters every policy shares.

Everything is seed-deterministic: a zero-loss channel with retries
disabled reproduces the perfect-delivery baseline byte-for-byte.
"""

from repro.reliability.channel import (
    DEFAULT_CAPACITY_KNEE_BPS,
    DeliveryAttempt,
    HopModel,
    LossyControlChannel,
)
from repro.reliability.exchange import (
    NO_RETRY,
    AttemptFn,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRegistry,
    ExchangeResult,
    ReliableExchange,
    RetryPolicy,
    deterministic_jitter,
)
from repro.reliability.policy import (
    DEGRADED_COUNTER,
    ResilientRouter,
    RouteResolution,
    note_degraded,
    reselect_timeline,
)

__all__ = [
    "DEFAULT_CAPACITY_KNEE_BPS", "DeliveryAttempt", "HopModel",
    "LossyControlChannel",
    "NO_RETRY", "AttemptFn", "BreakerState", "CircuitBreaker",
    "CircuitBreakerRegistry", "ExchangeResult", "ReliableExchange",
    "RetryPolicy", "deterministic_jitter",
    "DEGRADED_COUNTER", "ResilientRouter", "RouteResolution",
    "note_degraded", "reselect_timeline",
]
