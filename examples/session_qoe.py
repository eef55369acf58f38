#!/usr/bin/env python3
"""A subscriber's session trace: latency, handovers, availability.

Replays 45 minutes of a Nairobi subscriber's session against the live
three-operator federation, charged under both handover schemes from one
walk, and prints the QoE dashboard a provider would show: per-epoch
serving satellite and latency, handover markers, and summary statistics.

Run:
    python examples/session_qoe.py
"""

from repro.core.handover import HandoverScheme
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.simulation.sessionsim import SessionSimulator

DURATION_S = 2700.0
EPOCH_S = 90.0


def main():
    constellation = iridium_like()
    fleet = []
    for index, spec in enumerate(
        build_fleet(constellation, "placeholder", SizeClass.MEDIUM)
    ):
        # Re-own round-robin across three operators.
        owner = ("alpha", "beta", "gamma")[index % 3]
        spec.owner = owner
        spec.satellite_id = f"sat-{owner}-{index}"
        fleet.append(spec)
    network = OpenSpaceNetwork(fleet, default_station_network())

    user = UserTerminal("subscriber", GeodeticPoint(-1.29, 36.82),
                        "beta", min_elevation_deg=10.0)
    traces = SessionSimulator(network).run(user, 0.0, DURATION_S,
                                           epoch_s=EPOCH_S)
    trace = traces[HandoverScheme.PREDICTIVE]

    print(f"{'t (min)':>8} | {'serving satellite':>18} | "
          f"{'gateway':>14} | {'ms':>6} | {'Mbps':>7} | note")
    print("-" * 72)
    for sample in trace.samples:
        if sample.serving_satellite is None:
            print(f"{sample.time_s / 60:>8.1f} | {'-- no coverage --':>18} |"
                  f" {'':>14} | {'':>6} | {'':>7} |")
            continue
        note = "HANDOVER" if sample.handover else ""
        print(f"{sample.time_s / 60:>8.1f} | {sample.serving_satellite:>18} |"
              f" {sample.gateway:>14} | {sample.latency_ms:>6.1f} |"
              f" {sample.bottleneck_mbps:>7.0f} | {note}")

    stats = trace.latency_stats_ms()
    print(f"\nSession summary ({trace.scheme.value} handover):")
    print(f"  availability {trace.availability:.4f}, "
          f"{trace.handover_count} handovers, "
          f"outage {trace.total_outage_s:.2f} s")
    print(f"  latency mean {stats['mean']:.1f} ms, p50 {stats['p50']:.1f}, "
          f"p95 {stats['p95']:.1f}")

    reauth = traces[HandoverScheme.REAUTHENTICATE]
    print(f"\nSame session re-authenticating on every handover: outage "
          f"{reauth.total_outage_s:.2f} s "
          f"({reauth.total_outage_s / max(1e-9, trace.total_outage_s):.1f}x "
          "the predictive scheme)")


if __name__ == "__main__":
    main()
