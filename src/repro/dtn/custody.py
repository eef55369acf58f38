"""Hop-by-hop custody transfer over the lossy control channel.

DTN custody is the reliability contract that makes store-and-forward
trustworthy: a bundle moves one hop only when the next node has
*acknowledged* taking responsibility for it.  The data frame and the
custody ack ride :class:`~repro.reliability.channel.LossyControlChannel`
(one round trip per attempt), under the same
:class:`~repro.reliability.exchange.ReliableExchange` machinery the auth
plane uses — bounded retransmission, exponential backoff with
deterministic jitter, optional per-link circuit breakers.  When the
retry budget runs out the sender *keeps* custody and the scheduler
re-queues the bundle: a lost hop costs time, never data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs as _obs
from repro.faults.model import link_target
from repro.obs.events import CUSTODY_ACCEPT, CUSTODY_TIMEOUT
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import (
    CircuitBreakerRegistry,
    ReliableExchange,
    RetryPolicy,
)


@dataclass(frozen=True)
class CustodyResult:
    """Outcome of one custody-transfer attempt sequence.

    Attributes:
        ok: True when the next hop acknowledged custody.
        attempts: Sends performed (retransmissions = attempts - 1).
        elapsed_s: Control-plane time consumed: realized RTTs plus
            lost-attempt timeouts and backoff.
        reason: ``""`` on success; the exchange failure reason otherwise.
    """

    ok: bool
    attempts: int
    elapsed_s: float
    reason: str = ""

    @property
    def retransmissions(self) -> int:
        return max(0, self.attempts - 1)


class CustodyTransfer:
    """Moves bundles one hop at a time with acknowledged custody.

    Args:
        channel: The seeded lossy channel delivery draws come from; its
            ``fault_epoch`` doubles as the scheduler's replan signal.
        policy: Retry bounds; default is the standard 4-attempt policy.
        breakers: Optional shared breaker registry (a flapping ISL stops
            being hammered after repeated custody failures).
    """

    def __init__(self, channel: LossyControlChannel,
                 policy: Optional[RetryPolicy] = None,
                 breakers: Optional[CircuitBreakerRegistry] = None):
        self.channel = channel
        self.exchange = ReliableExchange(policy or RetryPolicy(), breakers,
                                         name="custody")
        self.transfer_count = 0
        self.failure_count = 0
        self.retransmission_count = 0

    def transfer(self, snap, bundle, from_node: str, to_node: str,
                 now_s: float = 0.0) -> CustodyResult:
        """Attempt to hand one bundle to the next hop.

        Args:
            snap: The :class:`~repro.core.network.NetworkSnapshot` the
                hop was planned over (the channel still consults the
                *live* fault masks, so a hop severed after planning fails
                here).
            bundle: The bundle changing custody.
            from_node: Current custodian.
            to_node: Prospective next custodian.
            now_s: Simulated time the transfer starts.

        Returns:
            The custody outcome; on failure the caller keeps custody.
        """
        key = link_target(from_node, to_node)

        def attempt(_index: int):
            outcome = self.channel.attempt_round_trip(
                snap, [from_node, to_node]
            )
            return outcome.delivered, outcome.round_trip_s

        result = self.exchange.run(key, attempt, now_s=now_s)
        retransmissions = max(0, result.attempts - 1)
        self.retransmission_count += retransmissions
        recorder = _obs.active()
        if result.ok:
            self.transfer_count += 1
            if recorder.enabled:
                recorder.count("dtn.custody.transfers")
                if retransmissions:
                    recorder.count("dtn.custody.retransmissions",
                                   retransmissions)
                recorder.event(
                    CUSTODY_ACCEPT, now_s + result.elapsed_s,
                    subject=bundle.bundle_id, sender=from_node,
                    receiver=to_node, attempts=result.attempts,
                )
        else:
            self.failure_count += 1
            if recorder.enabled:
                recorder.count("dtn.custody.failures", label=result.reason)
                if retransmissions:
                    recorder.count("dtn.custody.retransmissions",
                                   retransmissions)
                recorder.event(
                    CUSTODY_TIMEOUT, now_s + result.elapsed_s,
                    subject=bundle.bundle_id, sender=from_node,
                    receiver=to_node, attempts=result.attempts,
                    reason=result.reason,
                )
        return CustodyResult(
            ok=result.ok, attempts=result.attempts,
            elapsed_s=result.elapsed_s, reason=result.reason,
        )
