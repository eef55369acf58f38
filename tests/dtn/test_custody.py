"""Tests for the custody-transfer protocol."""

import networkx as nx
import pytest

from repro import obs
from repro.dtn import Bundle, CustodyTransfer
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import (
    NO_RETRY,
    CircuitBreakerRegistry,
    RetryPolicy,
)
from tests.fixtures import perfect_channel
from tests.routing.oracle import GraphSnapshot


@pytest.fixture
def hop_graph():
    """One a-b hop as a snapshot."""
    g = nx.Graph()
    g.add_edge("a", "b", delay_s=0.01, capacity_bps=1e9)
    return GraphSnapshot(g)


def _bundle():
    return Bundle(bundle_id="b-0", source="a", destination="g",
                  size_bytes=256)


class TestCustodyTransfer:
    def test_perfect_channel_single_attempt(self, hop_graph):
        custody = CustodyTransfer(perfect_channel())
        result = custody.transfer(hop_graph, _bundle(), "a", "b", now_s=5.0)
        assert result.ok
        assert result.attempts == 1
        assert result.retransmissions == 0
        assert result.elapsed_s == pytest.approx(0.02)
        assert custody.transfer_count == 1
        assert custody.retransmission_count == 0

    def test_missing_edge_fails_without_silently_dropping(self, hop_graph):
        custody = CustodyTransfer(perfect_channel(), policy=NO_RETRY)
        result = custody.transfer(hop_graph, _bundle(), "a", "ghost")
        assert not result.ok
        assert result.reason == "exhausted"
        assert custody.failure_count == 1

    def test_lossy_channel_retries_and_counts(self, hop_graph):
        channel = LossyControlChannel(loss_scale=0.6, base_loss=0.6, seed=3)
        custody = CustodyTransfer(
            channel, policy=RetryPolicy(max_attempts=6, timeout_s=0.1),
        )
        outcomes = [
            custody.transfer(hop_graph, _bundle(), "a", "b", now_s=float(i))
            for i in range(20)
        ]
        retried = [o for o in outcomes if o.ok and o.attempts > 1]
        assert retried, "a 60% lossy hop must force some retransmissions"
        assert custody.retransmission_count == sum(
            o.retransmissions for o in outcomes
        )

    def test_same_seed_same_outcomes(self, hop_graph):
        def run():
            channel = LossyControlChannel(loss_scale=0.5, base_loss=0.5,
                                          seed=9)
            custody = CustodyTransfer(
                channel, policy=RetryPolicy(max_attempts=3, timeout_s=0.1),
            )
            return [
                (r.ok, r.attempts) for r in (
                    custody.transfer(hop_graph, _bundle(), "a", "b",
                                     now_s=float(i))
                    for i in range(12)
                )
            ]

        assert run() == run()

    def test_events_emitted(self, hop_graph):
        recorder = obs.Recorder()
        with obs.use(recorder):
            custody = CustodyTransfer(perfect_channel(), policy=NO_RETRY)
            custody.transfer(hop_graph, _bundle(), "a", "b", now_s=1.0)
            custody.transfer(hop_graph, _bundle(), "a", "ghost", now_s=2.0)
        kinds = [event.kind for event in recorder.events.events]
        assert "custody.accept" in kinds
        assert "custody.timeout" in kinds
        accept = next(e for e in recorder.events.events
                      if e.kind == "custody.accept")
        attrs = dict(accept.attrs)
        assert attrs["sender"] == "a" and attrs["receiver"] == "b"

    def test_breakers_stop_hammering_dead_hop(self, hop_graph):
        breakers = CircuitBreakerRegistry(failure_threshold=2,
                                          recovery_time_s=1e6)
        custody = CustodyTransfer(perfect_channel(), policy=NO_RETRY,
                                  breakers=breakers)
        for i in range(5):
            custody.transfer(hop_graph, _bundle(), "a", "ghost",
                             now_s=float(i))
        last = custody.transfer(hop_graph, _bundle(), "a", "ghost",
                                now_s=10.0)
        assert not last.ok
        assert last.reason == "circuit-open"
        assert last.attempts == 0
