"""Tests for congestion wiring: health and settlement."""

import networkx as nx
import pytest

from repro import obs as _obs
from repro.demand.congestion import peak_statistics, settle_demand
from repro.demand.fluid import run_fluid
from tests.demand.tables import edge_table
from tests.routing.oracle import GraphSnapshot

#: Node -> (kind, owner).
NODES = {
    "cell-00000": ("user", "op-a"),
    "sat-short": ("satellite", "fleet"),
    "sat-long": ("satellite", "fleet"),
    "gw": ("ground_station", "gs-op"),
}
OWNERS = {node: owner for node, (_, owner) in NODES.items()}
#: Two parallel satellite routes; the short one will congest.
ROWS = [
    ("cell-00000", "sat-short", 0.004, 200e6),
    ("cell-00000", "sat-long", 0.009, 200e6),
    ("sat-short", "gw", 0.003, 40e6),
    ("sat-long", "gw", 0.008, 200e6),
]


def loaded_graph():
    """The same network as a snapshot, for the health plane."""
    g = nx.Graph()
    for node, (kind, owner) in NODES.items():
        g.add_node(node, kind=kind, owner=owner)
    for u, v, delay, capacity in ROWS:
        g.add_edge(u, v, delay_s=delay, capacity_bps=capacity)
    return GraphSnapshot(g)


def congested_result():
    adjacency, edges = edge_table(list(NODES), ROWS)
    return run_fluid(adjacency, edges, ["gw"], ["cell-00000"], [120e6])


class TestCongestionState:
    def test_utilization_and_loads(self):
        result = congested_result()
        # The fluid plane picked the short route and filled its 40 Mbps
        # gateway link; the long route carries nothing.
        assert result.utilization == {
            ("cell-00000", "sat-short"): pytest.approx(40e6 / 200e6),
            ("gw", "sat-short"): pytest.approx(1.0),
        }

    def test_peak_statistics(self):
        result = congested_result()
        stats = peak_statistics(result)
        assert stats["peak_utilization"] == pytest.approx(1.0)
        assert 0.0 < stats["mean_utilization"] <= 1.0
        assert 0.0 <= stats["hot_link_share"] <= 1.0


class TestHealthIntegration:
    def test_utilization_lands_in_health_plane(self):
        recorder = _obs.Recorder()
        with _obs.use(recorder):
            recorder.sample_health(0.0, loaded_graph(),
                                   utilization=congested_result().utilization,
                                   reset=True)
        rows = recorder.health.rows()
        links = next(row for row in rows
                     if row["type"] == "health_links")
        slot = links["ids"].index("gw--sat-short")
        samples = [util for link, util in zip(links["link"],
                                              links["utilization"])
                   if link == slot]
        assert samples == [pytest.approx(1.0)]


class TestSettlement:
    def test_cross_operator_transit_is_billed(self):
        settlement = settle_demand(congested_result(), OWNERS,
                                   duration_s=3600.0)
        assert settlement.carried_gb == pytest.approx(
            40e6 * 3600.0 / 8.0 / 1e9 * 2)  # fleet + gateway segments
        assert settlement.revenue_usd > 0.0
        payers = {invoice.customer for invoice in settlement.invoices}
        assert payers == {"op-a"}
        carriers = {invoice.carrier for invoice in settlement.invoices}
        assert carriers == {"fleet", "gs-op"}

    def test_net_positions_balance(self):
        settlement = settle_demand(congested_result(), OWNERS,
                                   duration_s=600.0)
        assert sum(settlement.net_positions.values()) == pytest.approx(0.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            settle_demand(congested_result(), OWNERS, duration_s=0.0)

    def test_deterministic(self):
        result = congested_result()
        a = settle_demand(result, OWNERS, duration_s=3600.0)
        b = settle_demand(result, OWNERS, duration_s=3600.0)
        assert a.invoices == b.invoices
