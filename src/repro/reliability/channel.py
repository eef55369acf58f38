"""Seeded lossy control-channel model.

Control signaling (RADIUS forwarding, successor notifications,
contact-plan dissemination) rides the same ISLs and ground links the data
plane uses, so its delivery odds come from the same place: the per-edge
``capacity_bps`` attribute that the phy link budgets produced when the
snapshot was built, plus the injector-driven fault masks.  A hop on a
thin, barely-closing RF ISL loses control frames far more often than a
fat laser hop; a hop through a masked element loses everything.

Losses are drawn from a private seeded generator, so a run's delivery
pattern is a pure function of ``(seed, draw order)`` — two runs of the
same seeded scenario deliver and drop exactly the same messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import math

import numpy as np

from repro import obs as _obs

#: Capacity at which the capacity-derived hop loss falls to ``1/e`` of
#: ``loss_scale`` — roughly the boundary between "thin RF ISL" and
#: "comfortable link" in the reference fleet's budgets.
DEFAULT_CAPACITY_KNEE_BPS = 20e6


@dataclass(frozen=True)
class HopModel:
    """Loss and delay of one control-plane hop.

    Attributes:
        loss_probability: Chance one message transiting the hop is lost.
        delay_s: One-way latency contribution of the hop.
    """

    loss_probability: float
    delay_s: float


@dataclass(frozen=True)
class DeliveryAttempt:
    """Outcome of one request/response attempt over a path.

    Attributes:
        delivered: True when both directions survived.
        forward_delivered: Whether the request reached the far end.
        round_trip_s: Realized RTT when delivered (propagation + per-hop
            processing, both directions); meaningless otherwise.
    """

    delivered: bool
    forward_delivered: bool
    round_trip_s: float


class LossyControlChannel:
    """Derives per-hop control-message loss and delay from a snapshot.

    Args:
        loss_scale: Peak capacity-derived loss probability — a hop of
            vanishing capacity loses control frames with this probability;
            ``0.0`` restores perfect delivery (the baseline).
        base_loss: Floor loss probability applied to every hop (weather,
            pointing jitter) regardless of capacity.
        capacity_knee_bps: Capacity scale of the loss falloff; hops far
            above it are nearly lossless.
        per_hop_processing_s: Forwarding/queueing delay added per hop in
            each direction.
        seed: Seed for the private delivery-draw generator.
        network: Optional :class:`~repro.core.network.OpenSpaceNetwork`;
            when given, hops touching its *current* fault masks lose
            everything even if the graph being routed over predates the
            fault (stale contact plans meet live outages here).
    """

    def __init__(self, loss_scale: float = 0.0, base_loss: float = 0.0,
                 capacity_knee_bps: float = DEFAULT_CAPACITY_KNEE_BPS,
                 per_hop_processing_s: float = 0.0,
                 seed: int = 0,
                 network=None):
        if not 0.0 <= loss_scale <= 1.0:
            raise ValueError(f"loss_scale must be in [0, 1], got {loss_scale}")
        if not 0.0 <= base_loss <= 1.0:
            raise ValueError(f"base_loss must be in [0, 1], got {base_loss}")
        if capacity_knee_bps <= 0.0:
            raise ValueError(
                f"capacity_knee_bps must be positive, got {capacity_knee_bps}"
            )
        self.loss_scale = loss_scale
        self.base_loss = base_loss
        self.capacity_knee_bps = capacity_knee_bps
        self.per_hop_processing_s = per_hop_processing_s
        self.network = network
        self._rng = np.random.default_rng(seed)
        #: Bumped by the fault injector on every fault-state change; path
        #: models cached by consumers are stale once this moves.
        self.fault_epoch = 0
        self.messages_sent = 0
        self.messages_lost = 0

    # -- fault-mask integration -----------------------------------------

    def on_fault_state_changed(self) -> None:
        """Injector callback: the network's fault masks just changed."""
        self.fault_epoch += 1
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("reliability.channel.fault_epochs")

    def _hop_masked(self, node_a: str, node_b: str) -> bool:
        """Whether the current fault masks sever this hop."""
        if self.network is None:
            return False
        failed_nodes = (self.network.failed_satellites
                        | self.network.failed_stations)
        if node_a in failed_nodes or node_b in failed_nodes:
            return True
        return tuple(sorted((node_a, node_b))) in self.network.failed_links

    # -- models ----------------------------------------------------------

    def hop_model(self, graph, node_a: str, node_b: str) -> HopModel:
        """Loss/delay of one hop from the snapshot edge + fault masks."""
        if self._hop_masked(node_a, node_b):
            return HopModel(loss_probability=1.0, delay_s=float("inf"))
        if not graph.has_edge(node_a, node_b):
            return HopModel(loss_probability=1.0, delay_s=float("inf"))
        data = graph[node_a][node_b]
        capacity = float(data.get("capacity_bps", float("inf")))
        loss = self.base_loss
        if self.loss_scale > 0.0:
            if math.isinf(capacity):
                capacity_loss = 0.0
            else:
                capacity_loss = self.loss_scale * math.exp(
                    -capacity / self.capacity_knee_bps
                )
            loss = min(1.0, loss + capacity_loss)
        delay = (float(data.get("delay_s", 0.0))
                 + float(data.get("queue_delay_s", 0.0))
                 + self.per_hop_processing_s)
        return HopModel(loss_probability=loss, delay_s=delay)

    def path_model(self, graph, path: Sequence[str]) -> Tuple[float, float]:
        """Delivery probability and one-way delay of a multi-hop path.

        Args:
            graph: The snapshot graph the path was computed over.
            path: Node ids, source first.

        Returns:
            ``(delivery_probability, one_way_delay_s)``; a severed path
            yields ``(0.0, inf)``.
        """
        if len(path) < 2:
            return 1.0, 0.0
        probability = 1.0
        delay = 0.0
        for node_a, node_b in zip(path[:-1], path[1:]):
            hop = self.hop_model(graph, node_a, node_b)
            probability *= 1.0 - hop.loss_probability
            delay += hop.delay_s
            if probability == 0.0:
                return 0.0, float("inf")
        return probability, delay

    # -- delivery draws ---------------------------------------------------

    def _deliver(self, probability: float) -> bool:
        """One seeded delivery draw.

        Loss-free probabilities short-circuit without consuming a draw, so
        a zero-loss channel replays byte-identically to no channel at all.
        """
        self.messages_sent += 1
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            self.messages_lost += 1
            return False
        delivered = bool(self._rng.random() < probability)
        if not delivered:
            self.messages_lost += 1
        return delivered

    def attempt_round_trip(self, graph, path: Sequence[str],
                           server_processing_s: float = 0.0) -> DeliveryAttempt:
        """One request/response attempt over a path.

        The request and the response each independently survive every hop
        or die; the realized RTT is twice the one-way delay plus the far
        end's processing time.
        """
        probability, one_way_s = self.path_model(graph, path)
        forward = self._deliver(probability)
        reply = self._deliver(probability) if forward else False
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("reliability.channel.messages",
                           2 if forward else 1)
            if not forward or not reply:
                recorder.count("reliability.channel.losses")
        return DeliveryAttempt(
            delivered=forward and reply,
            forward_delivered=forward,
            round_trip_s=2.0 * one_way_s + server_processing_s,
        )

    def attempt_one_way(self, graph, path: Sequence[str]) -> DeliveryAttempt:
        """One unacknowledged (fire-and-forget) delivery over a path."""
        probability, one_way_s = self.path_model(graph, path)
        delivered = self._deliver(probability)
        recorder = _obs.active()
        if recorder.enabled:
            recorder.count("reliability.channel.messages")
            if not delivered:
                recorder.count("reliability.channel.losses")
        return DeliveryAttempt(
            delivered=delivered,
            forward_delivered=delivered,
            round_trip_s=one_way_s,
        )

    @property
    def loss_rate(self) -> float:
        """Observed fraction of sent control messages lost so far."""
        if self.messages_sent == 0:
            return 0.0
        return self.messages_lost / self.messages_sent
