#!/usr/bin/env python3
"""Quickstart: build an OpenSpace network and route a user to the Internet.

Builds the paper's Iridium-like reference constellation, splits it across
three operators, attaches the shared ground-station network, and walks one
user through the full OpenSpace lifecycle: beacon selection, association
with RADIUS authentication over ISLs, end-to-end routing, and a look at
what each hop would cost.

Run:
    python examples/quickstart.py
"""

from repro.core.association import AssociationProtocol
from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.federation import Federation, Operator
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.economics.ledger import TrafficLedger
from repro.economics.settlement import SettlementEngine
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.security.auth import RadiusServer


def build_federation():
    """Three operators, each owning a third of the reference fleet."""
    constellation = iridium_like()
    stations = default_station_network()
    federation = Federation()
    for index, name in enumerate(("alpha-sat", "beta-orbital", "gamma-link")):
        fleet = [
            spec for i, spec in enumerate(
                build_fleet(constellation, name, SizeClass.MEDIUM)
            ) if i % 3 == index
        ]
        federation.admit(Operator(
            name,
            satellites=fleet,
            ground_stations=stations[index * 5:(index + 1) * 5],
        ))
    return federation


def main():
    federation = build_federation()
    print(f"Federation: {federation.member_names}, "
          f"{federation.total_satellite_count} satellites, "
          f"{len(federation.all_ground_stations())} ground stations")

    network = OpenSpaceNetwork.from_federation(federation)

    # A user in rural Kenya subscribed to beta-orbital.
    user = UserTerminal("wanjiru", GeodeticPoint(-1.29, 36.82),
                        home_provider="beta-orbital", min_elevation_deg=10.0)

    # The home ISP runs a RADIUS server anchored at one of its gateways.
    beta = federation.operator("beta-orbital")
    server = RadiusServer("beta-orbital", b"beta-secret",
                          authority=beta.authority)
    server.enroll("wanjiru", b"correct-horse")
    protocol = AssociationProtocol(
        radius_servers={"beta-orbital": server},
        auth_anchors={"beta-orbital": beta.ground_stations[0].station_id},
    )

    # The user hears beacons from every overhead satellite.
    evaluator = BeaconEvaluator(min_elevation_deg=10.0)
    for spec in network.satellites:
        evaluator.receive(Beacon.from_spec(spec, timestamp_s=0.0))

    snapshot = network.snapshot(0.0, users=[user])
    result = protocol.associate(user, snapshot, evaluator, 0.0,
                                b"correct-horse")
    print(f"\nAssociation: serving satellite {result.satellite_id}, "
          f"authenticated={result.authenticated}, "
          f"auth RTT {result.auth_round_trip_s * 1000:.1f} ms over "
          f"{result.auth_path_hops} ISL hops")

    # End-to-end route to the nearest Internet gateway.
    metrics = snapshot.nearest_ground_station_route(user.user_id)
    print(f"\nRoute to Internet: {' -> '.join(metrics.path)}")
    print(f"  one-way latency {metrics.total_delay_ms:.1f} ms, "
          f"bottleneck {metrics.bottleneck_capacity_bps / 1e6:.0f} Mbps, "
          f"operators {metrics.operators}")

    # What the path costs: file the transfer in the shared ledger and
    # settle it against every carrier's rate card.
    ledger = TrafficLedger()
    ledger.file_path_transfer("demo-transfer", user.home_provider,
                              metrics.operators, gigabytes=1.0, time_s=0.0)
    invoices = SettlementEngine().invoices_from_ledger(ledger)
    print("\nSettlement for 1 GB:")
    for invoice in invoices:
        print(f"  {invoice.customer} pays {invoice.carrier} "
              f"${invoice.amount_usd:.3f}")
    if not invoices:
        print("  (entire path stayed on the home provider's infrastructure)")


if __name__ == "__main__":
    main()
