#!/usr/bin/env python3
"""The economics of collaboration (paper Sections 3 and 4).

Three small firms that individually cannot afford a global constellation
pool their fleets.  The example:

1. prices a go-it-alone constellation vs a one-third share of the shared
   fleet (the entry-barrier argument);
2. runs a day of synthetic traffic through the federated network, filing
   every transfer in the cross-verifiable ledger — including a fraudulent
   operator that over-reports carried volume;
3. settles the ledger, shows the fraud being caught, and lets the peering
   advisor find the symmetric pair that should peer.

Run:
    python examples/federation_economics.py
"""

import numpy as np

from repro.core.interop import SizeClass, build_fleet
from repro.economics.capex import constellation_budget, entry_cost_comparison
from repro.economics.ledger import TrafficLedger
from repro.economics.peering import PeeringAdvisor
from repro.economics.settlement import RateCard, SettlementEngine
from repro.orbits.walker import iridium_like
from repro.simulation.scenario import Scenario
from repro.simulation.traffic import uniform_land_users

OPERATORS = ("nimbus", "aurora", "zephyr")


def entry_barrier():
    constellation = iridium_like()
    full_fleet = build_fleet(constellation, "solo", SizeClass.MEDIUM)
    comparison = entry_cost_comparison(full_fleet, full_fleet,
                                       participant_count=len(OPERATORS))
    budget = constellation_budget(full_fleet)
    print("=== Entry barrier (paper Section 3) ===")
    print(f"Global 66-satellite fleet: ${budget.total_usd / 1e6:.0f}M "
          f"(hardware ${budget.hardware_usd / 1e6:.0f}M, launch "
          f"${budget.launch_usd / 1e6:.0f}M, licensing "
          f"${budget.licensing_usd / 1e6:.2f}M)")
    print(f"Going alone:              ${comparison['solo_usd'] / 1e6:.0f}M")
    print(f"One third of a shared fleet: "
          f"${comparison['per_participant_usd'] / 1e6:.0f}M "
          f"({comparison['savings_factor']:.1f}x lower barrier)\n")


def traffic_day():
    scenario = Scenario(
        name="economics", satellite_count=66, operator_names=OPERATORS,
        seed=11,
    )
    network = scenario.build_network()
    rng = np.random.default_rng(11)
    population = uniform_land_users(30, rng, list(OPERATORS))

    ledger = TrafficLedger()
    fraud_injected = 0
    transfer_index = 0
    for time_s in (0.0, 1500.0, 3000.0, 4500.0):
        snapshot = network.snapshot(time_s, users=population.users)
        for user in population.users:
            metrics = snapshot.nearest_ground_station_route(user.user_id)
            if metrics is None:
                continue
            gigabytes = float(rng.uniform(0.2, 2.0))
            misreport = None
            # zephyr pads its carried-volume reports 30% of the time.
            if "zephyr" in metrics.operators and (
                    user.home_provider != "zephyr" and rng.random() < 0.3):
                misreport = {"zephyr": gigabytes * 1.4}
                fraud_injected += 1
            ledger.file_path_transfer(
                f"t{transfer_index}", user.home_provider, metrics.operators,
                gigabytes, time_s, misreport,
            )
            transfer_index += 1

    print("=== A day of federated traffic ===")
    print(f"{transfer_index} transfers filed, "
          f"{ledger.record_count} ledger records")
    mismatches = ledger.cross_verify()
    print(f"Fraud: {fraud_injected} padded reports injected, "
          f"{len(mismatches)} caught by cross-verification")
    for mismatch in mismatches[:3]:
        reported = ", ".join(f"{r}={v:.2f}GB" for r, v in mismatch.reported)
        print(f"  disputed {mismatch.transfer_id}/{mismatch.carrier_isp}: "
              f"{reported}")

    engine = SettlementEngine(rate_cards={
        name: RateCard(carrier=name) for name in OPERATORS
    })
    invoices = engine.invoices_from_ledger(ledger)
    positions = engine.net_positions(invoices)
    print("\nNet settlement positions (disputed segments excluded):")
    for name in sorted(positions):
        print(f"  {name:>8}: ${positions[name]:+.2f}")

    print("\nPeering analysis:")
    advisor = PeeringAdvisor(min_mutual_gb=5.0, min_symmetry=0.4)
    for rec in advisor.recommendations(ledger):
        verdict = "PEER" if rec.recommended else "transit"
        print(f"  {rec.isp_a} <-> {rec.isp_b}: {verdict} — {rec.rationale}")


def main():
    entry_barrier()
    traffic_day()


if __name__ == "__main__":
    main()
