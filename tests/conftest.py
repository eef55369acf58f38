"""Shared fixtures for the test suite."""

import networkx as nx
import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import iridium_like


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def iridium():
    """The paper's Iridium-like reference constellation."""
    return iridium_like()


@pytest.fixture(scope="session")
def medium_fleet(iridium):
    """A single-owner MEDIUM fleet over the reference constellation."""
    return build_fleet(iridium, "acme", SizeClass.MEDIUM)


@pytest.fixture(scope="session")
def network(medium_fleet):
    """A full OpenSpace network: reference fleet + default ground segment."""
    return OpenSpaceNetwork(medium_fleet, default_station_network())


@pytest.fixture(scope="session")
def network_snapshot(network):
    """The network graph at epoch (no users)."""
    return network.snapshot(0.0)


@pytest.fixture
def graph_constructions(monkeypatch):
    """The type of every networkx graph built while the test runs."""
    constructed = []
    original = nx.Graph.__init__

    def counting_init(graph, *args, **kwargs):
        constructed.append(type(graph))
        original(graph, *args, **kwargs)

    monkeypatch.setattr(nx.Graph, "__init__", counting_init)
    return constructed
