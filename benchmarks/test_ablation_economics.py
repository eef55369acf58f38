"""Ablation (paper §3): ledger settlement, fraud detection, peering.

Paper claims: per-path volumes "tracked by all parties involved ...
create an easily cross-verifiable account"; symmetric interdependence
leads providers to peer; the BGP provider/customer hierarchy cannot
express the meshed paths OpenSpace produces.  Discussion Q4: under an
all-or-nothing business model, Shapley revenue sharing makes
collaboration pay for every operator.
"""

from conftest import print_table

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.economics.bgp import AsRelationship, BgpEconomy, RelationshipKind
from repro.economics.incentives import revenue_sharing, viable_service_utility
from repro.experiments.ablations import ablation_economics
from repro.orbits.walker import iridium_like


def test_ledger_settlement_and_peering(benchmark):
    result = benchmark.pedantic(
        ablation_economics,
        kwargs={"transfer_count": 300, "seed": 3},
        rounds=1, iterations=1,
    )
    rows = [
        {"isp": isp, "net_usd": value}
        for isp, value in sorted(result["net_positions"].items())
    ]
    print_table("Ledger settlement: net positions", rows, ["isp", "net_usd"])
    print(f"fraud injected: {result['fraud_injected']}, "
          f"mismatches caught: {result['mismatches_caught']}, "
          f"peering recommended: {result['peering_recommended']}")

    # Cross-verification catches every fraudulent segment.
    assert result["mismatches_caught"] == result["fraud_injected"]
    assert result["fraud_injected"] > 0
    # Money is conserved across the settlement.
    assert abs(sum(result["net_positions"].values())) < 1e-9
    # The symmetric pair is recommended to peer.
    assert ("isp-a", "isp-b") in result["peering_recommended"]


def test_bgp_model_misfit(benchmark):
    """Quantify how badly valley-free BGP fits meshed satellite paths."""
    rng = np.random.default_rng(17)
    economy = BgpEconomy()
    isps = ["isp-a", "isp-b", "isp-c"]
    economy.add_relationship(AsRelationship(
        "isp-a", "isp-b", RelationshipKind.CUSTOMER_PROVIDER, 0.03))
    economy.add_relationship(AsRelationship(
        "isp-b", "isp-c", RelationshipKind.PEER))
    economy.add_relationship(AsRelationship(
        "isp-a", "isp-c", RelationshipKind.CUSTOMER_PROVIDER, 0.03))

    def meshed_paths():
        # Satellite paths weave between owners as the paper describes:
        # uniformly random owner sequences of length 3-6.
        paths = []
        for _ in range(400):
            length = int(rng.integers(3, 7))
            path = [isps[int(rng.integers(0, 3))]]
            while len(path) < length:
                nxt = isps[int(rng.integers(0, 3))]
                if nxt != path[-1]:
                    path.append(nxt)
            paths.append(path)
        return economy.valley_free_fraction(paths)

    fraction = benchmark.pedantic(meshed_paths, rounds=1, iterations=1)
    print(f"\nvalley-free fraction of meshed satellite paths: {fraction:.2f}")
    # The paper's misfit argument: most meshed paths violate the
    # hierarchical model.
    assert fraction < 0.5


def test_all_or_nothing_makes_collaboration_pay(benchmark):
    """Paper Q4: under the all-or-nothing model everyone gains."""
    fleet = build_fleet(iridium_like(), "x", SizeClass.SMALL)
    fleets = {"big": fleet[:40], "small1": fleet[40:53], "small2": fleet[53:]}

    def share():
        utility = viable_service_utility(fleets, viability_threshold=0.95)
        return revenue_sharing(list(fleets), utility, 1000.0)

    report = benchmark.pedantic(share, rounds=1, iterations=1)
    print_table("Q4: Shapley revenue sharing (all-or-nothing, 95% viability)",
                [{"operator": name, "payment_usd": report.payments[name]}
                 for name in fleets],
                ["operator", "payment_usd"])
    assert report.all_gain
    assert all(v > 0.0 for v in report.payments.values())
    # The big operator is paid more than either small one.
    assert report.payments["big"] > report.payments["small1"]
    assert report.payments["big"] > report.payments["small2"]
