"""repro.reliability — lossy control signaling, retries, degradation.

The control-plane reliability layer: the association/authentication
story of the paper's Section 2 forwards RADIUS exchanges over ISLs that
the fault injector (:mod:`repro.faults`) makes flap, and DTN custody
transfers cross the same links.  This package supplies the three pieces
that let both survive it:

* :mod:`repro.reliability.channel` — a seeded lossy control-channel
  model deriving per-hop loss and delay from the snapshot link budgets
  and the live fault masks;
* :mod:`repro.reliability.exchange` — the :class:`ReliableExchange`
  primitive (bounded retransmission, exponential backoff with
  deterministic jitter, per-link circuit breakers);
* :mod:`repro.reliability.policy` — the degraded-mode counter that
  association's fallback (alternate auth anchor, secondary beacon
  candidate) increments.

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
from repro.reliability.policy import DEGRADED_COUNTER, note_degraded

__all__ = [
    "DEFAULT_CAPACITY_KNEE_BPS", "DeliveryAttempt", "HopModel",
    "LossyControlChannel",
    "NO_RETRY", "AttemptFn", "BreakerState", "CircuitBreaker",
    "CircuitBreakerRegistry", "ExchangeResult", "ReliableExchange",
    "RetryPolicy", "deterministic_jitter",
    "DEGRADED_COUNTER", "note_degraded",
]
