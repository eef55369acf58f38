"""Tests for the seeded lossy control-channel model."""

import math

import networkx as nx
import pytest

from repro.reliability.channel import (
    DEFAULT_CAPACITY_KNEE_BPS,
    HopModel,
    LossyControlChannel,
)
from tests.fixtures import perfect_channel
from tests.routing.oracle import GraphSnapshot


def little_graph(capacity_bps=1e9, delay_s=0.01, queue_delay_s=0.0):
    """The path a-b-c as a snapshot, both hops alike."""
    graph = nx.Graph()
    graph.add_edge("a", "b", capacity_bps=capacity_bps, delay_s=delay_s,
                   queue_delay_s=queue_delay_s)
    graph.add_edge("b", "c", capacity_bps=capacity_bps, delay_s=delay_s,
                   queue_delay_s=queue_delay_s)
    return GraphSnapshot(graph)


class FakeFaultyNetwork:
    def __init__(self):
        self.failed_satellites = frozenset()
        self.failed_stations = frozenset()
        self.failed_links = frozenset()


class TestValidation:
    def test_rejects_bad_loss_scale(self):
        with pytest.raises(ValueError):
            LossyControlChannel(loss_scale=1.5)

    def test_rejects_bad_base_loss(self):
        with pytest.raises(ValueError):
            LossyControlChannel(base_loss=-0.1)

    def test_rejects_bad_knee(self):
        with pytest.raises(ValueError):
            LossyControlChannel(capacity_knee_bps=0.0)


class TestHopModel:
    def test_fat_link_nearly_lossless(self):
        channel = LossyControlChannel(loss_scale=0.5)
        hop = channel.hop_model(little_graph(capacity_bps=1e9), "a", "b")
        assert hop.loss_probability < 1e-6
        assert hop.delay_s == pytest.approx(0.01)

    def test_thin_link_lossier_than_fat_link(self):
        channel = LossyControlChannel(loss_scale=0.5)
        thin = channel.hop_model(little_graph(capacity_bps=1e6), "a", "b")
        fat = channel.hop_model(little_graph(capacity_bps=1e9), "a", "b")
        assert thin.loss_probability > fat.loss_probability

    def test_knee_capacity_gives_one_over_e(self):
        channel = LossyControlChannel(loss_scale=0.5)
        hop = channel.hop_model(
            little_graph(capacity_bps=DEFAULT_CAPACITY_KNEE_BPS), "a", "b")
        assert hop.loss_probability == pytest.approx(0.5 / math.e)

    def test_base_loss_applies_everywhere(self):
        channel = LossyControlChannel(base_loss=0.1)
        hop = channel.hop_model(little_graph(capacity_bps=1e12), "a", "b")
        assert hop.loss_probability == pytest.approx(0.1)

    def test_queue_delay_included(self):
        channel = LossyControlChannel()
        hop = channel.hop_model(
            little_graph(delay_s=0.01, queue_delay_s=0.005), "a", "b")
        assert hop.delay_s == pytest.approx(0.015)

    def test_missing_edge_is_severed(self):
        channel = LossyControlChannel()
        hop = channel.hop_model(little_graph(), "a", "c")
        assert hop == HopModel(loss_probability=1.0, delay_s=float("inf"))

    def test_fault_mask_severs_hop(self):
        network = FakeFaultyNetwork()
        channel = LossyControlChannel(network=network)
        graph = little_graph()
        assert channel.hop_model(graph, "a", "b").loss_probability < 1.0
        network.failed_links = frozenset({("a", "b")})
        assert channel.hop_model(graph, "a", "b").loss_probability == 1.0

    def test_failed_node_severs_all_its_hops(self):
        network = FakeFaultyNetwork()
        network.failed_satellites = frozenset({"b"})
        channel = LossyControlChannel(network=network)
        graph = little_graph()
        assert channel.hop_model(graph, "a", "b").loss_probability == 1.0
        assert channel.hop_model(graph, "b", "c").loss_probability == 1.0


class TestPathModel:
    def test_multiplies_hop_survival(self):
        channel = LossyControlChannel(base_loss=0.1)
        probability, delay = channel.path_model(little_graph(),
                                                ["a", "b", "c"])
        assert probability == pytest.approx(0.9 * 0.9)
        assert delay == pytest.approx(0.02)

    def test_trivial_path_is_free(self):
        channel = LossyControlChannel(base_loss=0.5)
        assert channel.path_model(little_graph(), ["a"]) == (1.0, 0.0)

    def test_severed_path_zero_probability(self):
        channel = LossyControlChannel()
        probability, delay = channel.path_model(little_graph(),
                                                ["a", "b", "missing"])
        assert probability == 0.0
        assert delay == float("inf")


class TestDelivery:
    def test_zero_loss_consumes_no_rng(self):
        channel = perfect_channel()
        reference = LossyControlChannel(seed=0)
        graph = little_graph()
        for _ in range(20):
            attempt = channel.attempt_round_trip(graph, ["a", "b", "c"])
            assert attempt.delivered
        # The private generator was never advanced: its next draw matches
        # a fresh generator's first draw.
        assert channel._rng.random() == reference._rng.random()

    def test_zero_loss_rtt_matches_nominal(self):
        channel = perfect_channel()
        attempt = channel.attempt_round_trip(little_graph(), ["a", "b", "c"],
                                             server_processing_s=0.01)
        assert attempt.round_trip_s == pytest.approx(2 * 0.02 + 0.01)

    def test_same_seed_same_delivery_pattern(self):
        graph = little_graph()
        patterns = []
        for _ in range(2):
            channel = LossyControlChannel(base_loss=0.4, seed=99)
            patterns.append([
                channel.attempt_round_trip(graph, ["a", "b", "c"]).delivered
                for _ in range(50)
            ])
        assert patterns[0] == patterns[1]
        assert not all(patterns[0])  # 40% hop loss must drop something

    def test_loss_rate_tracks_observed_losses(self):
        channel = LossyControlChannel(base_loss=1.0, seed=1)
        graph = little_graph()
        for _ in range(5):
            assert not channel.attempt_round_trip(graph, ["a", "b"]).delivered
        assert channel.loss_rate == 1.0
        assert channel.messages_sent == 5


class TestFaultEpoch:
    def test_injector_callback_bumps_epoch(self):
        channel = LossyControlChannel()
        assert channel.fault_epoch == 0
        channel.on_fault_state_changed()
        channel.on_fault_state_changed()
        assert channel.fault_epoch == 2
