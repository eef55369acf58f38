"""Tests for congestion wiring: health and settlement."""

import networkx as nx
import pytest

import repro.experiments.demand as demand_module
from repro import obs as _obs
from repro.demand.congestion import peak_statistics, settle_demand
from repro.demand.fluid import run_fluid
from repro.experiments.demand import demand_sweep
from tests.demand import oracle
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


@pytest.fixture(scope="module")
def demand_points():
    """``(result, owners, duration_s, time_s)`` of four real demand-sweep
    points (66 and 264 satellites at 04:00 and 20:00 UTC, 1.2 M users on
    the 36x72 grid, as the ``diurnal_demand`` benchmark loads them),
    captured from the sweep's own settlement call."""
    captured = []
    real = demand_module.settle_demand

    def capture(result, owners, duration_s, time_s):
        captured.append((result, owners, duration_s, time_s))
        return real(result, owners, duration_s=duration_s, time_s=time_s)

    patch = pytest.MonkeyPatch()
    patch.setattr(demand_module, "settle_demand", capture)
    try:
        demand_sweep(satellite_counts=(66, 264), hours_utc=(4.0, 20.0),
                     total_users=1_200_000, bands=36, equator_columns=72,
                     jobs=1)
    finally:
        patch.undo()
    assert len(captured) == 4
    return captured


def _settlement_bits(settlement):
    return (
        settlement.revenue_usd.hex(), settlement.carried_gb.hex(),
        [(i.carrier, i.customer, i.gigabytes.hex(), i.amount_usd.hex())
         for i in settlement.invoices],
        [(isp, value.hex()) for isp, value in settlement.net_positions.items()],
    )


class TestAgainstOracle:
    """The columnar ledger and the array statistics give the record
    ledger's and the utilization dict's numbers, bit for bit."""

    def test_settlement_equals_the_record_ledger(self, demand_points):
        for result, owners, duration_s, time_s in demand_points:
            settled = settle_demand(result, owners, duration_s=duration_s,
                                    time_s=time_s)
            assert settled.invoices
            assert _settlement_bits(settled) == _settlement_bits(
                oracle.settle_demand(result, owners, duration_s, time_s))

    def test_peak_statistics_equal_the_dict_form(self, demand_points):
        # An uncapped access hop is a route slot at utilization 0, which
        # the statistics leave out.
        adjacency, edges = edge_table(
            ["cell-00000", "sat-short", "gw"],
            [("cell-00000", "sat-short", 0.004, float("inf")),
             ("sat-short", "gw", 0.003, 40e6)])
        uncapped = run_fluid(adjacency, edges, ["gw"], ["cell-00000"],
                             [120e6])
        assert 0.0 in uncapped.utilization.values()
        results = [congested_result(), uncapped] + [
            point[0] for point in demand_points]
        for result in results:
            stats = peak_statistics(result)
            expected = oracle.peak_statistics(result)
            assert list(stats) == list(expected)
            assert [value.hex() for value in stats.values()] == [
                value.hex() for value in expected.values()]
