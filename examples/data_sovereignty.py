#!/usr/bin/env python3
"""Regulation and data sovereignty (paper Discussion, Q3).

"The ability to use satellites located in some regions as relays for user
traffic can also be impeded by diverse user data privacy regulations ...
how to maintain a user's data privacy requirements when their traffic is
routed to a groundstation outside their region."

This example routes users from several regions with and without their
region's data-residency constraint and reports the latency cost of
compliance — the concrete trade regulators and operators would negotiate.

Run:
    python examples/data_sovereignty.py
"""

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.core.policy import PolicyRegistry, policy_adjacency
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.routing.metrics import DELAY_ONLY, path_metrics

USERS = [
    ("paris", GeodeticPoint(48.86, 2.35)),
    ("warsaw", GeodeticPoint(52.23, 21.01)),
    ("dublin", GeodeticPoint(53.35, -6.26)),
    ("nairobi", GeodeticPoint(-1.29, 36.82)),
    ("mumbai", GeodeticPoint(19.08, 72.88)),
]


def main():
    fleet = build_fleet(iridium_like(), "openspace", SizeClass.MEDIUM)
    stations = default_station_network()
    network = OpenSpaceNetwork(fleet, stations)
    registry = PolicyRegistry()

    print(f"{'user':>8} | {'region':>14} | {'resid.':>6} | "
          f"{'free ms':>8} | {'compliant ms':>12} | {'exit gateway':>14}")
    print("-" * 78)
    for name, location in USERS:
        user = UserTerminal(name, location, "openspace",
                            min_elevation_deg=10.0)
        region = registry.region_of(location)
        snap = network.snapshot(0.0, users=[user])
        free = snap.nearest_ground_station_route(name)
        allowed = registry.compliant_gateways(location, stations)
        adjacency = policy_adjacency(snap, allowed, DELAY_ONLY)
        compliant = None
        for gateway in sorted(allowed):
            path = adjacency.shortest_path(name, gateway)
            if path is None:
                continue
            metrics = path_metrics(snap, path)
            if compliant is None or (metrics.total_delay_s
                                     < compliant.total_delay_s):
                compliant = metrics
        print(f"{name:>8} | {region.name if region else 'open-seas':>14} | "
              f"{'yes' if region and region.data_residency else 'no':>6} | "
              f"{free.total_delay_ms if free else float('nan'):>8.1f} | "
              f"{compliant.total_delay_ms if compliant else float('nan'):>12.1f} | "
              f"{compliant.path[-1] if compliant else '--':>14}")

    print(
        "\nEU users (data_residency=True in the default policy table) must"
        "\nexit through EU gateways; everyone else may use the nearest one."
        "\nThe 'compliant ms' column is the price of sovereignty — zero when"
        "\nthe nearest gateway already sits in-region."
    )


if __name__ == "__main__":
    main()
