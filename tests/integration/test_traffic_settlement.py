"""Integration: flow simulation -> ledger -> settlement, end to end.

Runs a QoS-routed workload through the flow simulator on a live federated
snapshot, files every completed flow's carrier path in the traffic
ledger, and settles — verifying the whole §2 + §3 pipeline composes:
routed paths produce billable carrier sequences, honest accounting never
mismatches, and money is conserved.
"""

import numpy as np
import pytest

from repro.core.interop import SizeClass
from repro.economics.ledger import TrafficLedger
from repro.economics.settlement import RateCard, SettlementEngine
from repro.routing.adaptive import LoadAdaptiveRouter
from repro.routing.metrics import path_metrics
from repro.simulation.flowsim import FlowSimulator
from repro.simulation.scenario import Scenario
from repro.simulation.traffic import PoissonFlowGenerator

OPERATORS = ("orbit-a", "orbit-b", "orbit-c")


@pytest.fixture(scope="module")
def workload_outcome():
    scenario = Scenario(
        name="settlement-integration", satellite_count=66,
        operator_names=OPERATORS, size_mix=(SizeClass.MEDIUM,),
        user_count=10, seed=47,
    )
    network = scenario.build_network()
    population = scenario.build_population()
    snap = network.snapshot(0.0, users=population.users)
    rng = np.random.default_rng(47)
    generator = PoissonFlowGenerator(
        population, arrival_rate_per_s=1.0, rng=rng, mean_flow_mb=5.0,
    )
    flows = generator.generate(30.0)
    result = FlowSimulator(snap, LoadAdaptiveRouter(snap)).run(flows)
    return snap, result


class TestFlowToLedgerPipeline:
    def test_workload_mostly_served(self, workload_outcome):
        _snap, result = workload_outcome
        assert result.acceptance_ratio > 0.5
        assert result.completed

    def test_paths_yield_operator_sequences(self, workload_outcome):
        snap, result = workload_outcome
        for record in result.completed:
            metrics = path_metrics(snap, list(record.path))
            assert metrics.operators, "route must traverse owned assets"

    def test_ledger_settlement_composes(self, workload_outcome):
        snap, result = workload_outcome
        ledger = TrafficLedger()
        user_home = {node: snap.owners[snap.index[node]]
                     for node in snap.nodes_of_kind("user")}
        for index, record in enumerate(result.completed):
            metrics = path_metrics(snap, list(record.path))
            source = user_home[record.spec.user_id]
            ledger.file_path_transfer(
                f"t{index}", source, metrics.operators,
                record.spec.size_bytes / 1e9, record.finish_s,
            )
        # Honest accounting never mismatches.
        assert ledger.cross_verify() == []
        engine = SettlementEngine(rate_cards={
            name: RateCard(carrier=name) for name in OPERATORS
        })
        invoices = engine.invoices_from_ledger(ledger)
        positions = engine.net_positions(invoices)
        # Money conserved; every invoice positive and between distinct
        # parties.
        assert sum(positions.values()) == pytest.approx(0.0, abs=1e-9)
        for invoice in invoices:
            assert invoice.amount_usd >= 0.0
            assert invoice.carrier != invoice.customer

    def test_roaming_produces_cross_operator_billing(self, workload_outcome):
        snap, result = workload_outcome
        ledger = TrafficLedger()
        user_home = {node: snap.owners[snap.index[node]]
                     for node in snap.nodes_of_kind("user")}
        for index, record in enumerate(result.completed):
            metrics = path_metrics(snap, list(record.path))
            ledger.file_path_transfer(
                f"t{index}", user_home[record.spec.user_id],
                metrics.operators, record.spec.size_bytes / 1e9, record.finish_s,
            )
        matrix = ledger.carried_matrix()
        # With interleaved fleets, roaming is rampant: at least one
        # (source, carrier) pair with source != carrier must exist.
        cross = [(s, c) for (s, c) in matrix if s != c]
        assert cross
