#!/usr/bin/env python3
"""Satellite handover study (paper Section 2.2).

Computes the real contact schedule an equatorial user sees from the
Iridium-like constellation, then replays it under the two handover
schemes: OpenSpace's predictive successor handover (certificate presented,
no re-authentication) and the naive baseline that re-runs association and
RADIUS authentication on every switch.  Finishes with the Starlink-cadence
extrapolation (handover every 15 s).

Run:
    python examples/handover_study.py
"""

from repro.core.handover import (
    HandoverScheme,
    HandoverSimulator,
    STARLINK_HANDOVER_INTERVAL_S,
)
from repro.orbits.contact import contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like

DURATION_S = 7200.0  # two hours, ~1.2 orbits


def main():
    site = GeodeticPoint(-1.29, 36.82, 0.0)  # Nairobi
    constellation = iridium_like()
    print(f"Computing contact windows for {len(constellation)} satellites "
          f"over {DURATION_S / 3600:.0f} h...")
    windows = contact_windows(
        site, constellation, 0.0, DURATION_S,
        step_s=15.0, min_elevation_deg=25.0,
    )
    print(f"{len(windows)} visibility windows; mean duration "
          f"{sum(w.duration_s for w in windows) / len(windows):.0f} s")

    simulator = HandoverSimulator(
        link_setup_s=0.020,       # new-session establishment
        auth_round_trip_s=0.180,  # RADIUS over multi-hop ISLs
        successor_notice_s=5.0,   # advance successor announcement
    )
    timelines = simulator.compare_schemes(windows, 0.0, DURATION_S)

    print(f"\n{'scheme':>16} | {'handover':>8} | {'outage s':>9} | "
          f"{'mean ms':>8} | {'avail':>7}")
    print("-" * 62)
    for name, timeline in timelines.items():
        print(f"{name:>16} | {timeline.handover_count:>8} | "
              f"{timeline.total_interruption_s:>9.3f} | "
              f"{timeline.mean_interruption_s * 1000:>8.1f} | "
              f"{timeline.availability:>7.5f}")

    predictive = timelines[HandoverScheme.PREDICTIVE.value]
    reauth = timelines[HandoverScheme.REAUTHENTICATE.value]
    ratio = (reauth.total_interruption_s
             / max(1e-9, predictive.total_interruption_s))
    print(f"\nPredictive handover cuts outage {ratio:.1f}x by carrying the "
          "roaming certificate across satellites.")

    # Starlink-cadence extrapolation.
    per_handover_reauth = (reauth.total_interruption_s
                           / max(1, len(reauth.events)))
    per_handover_pred = (predictive.total_interruption_s
                         / max(1, len(predictive.events)))
    per_hour = 3600.0 / STARLINK_HANDOVER_INTERVAL_S
    print(f"\nAt Starlink's observed cadence (one handover every "
          f"{STARLINK_HANDOVER_INTERVAL_S:.0f} s = {per_hour:.0f}/hour):")
    print(f"  re-authenticating: {per_handover_reauth * per_hour:.1f} s "
          "of outage per hour")
    print(f"  predictive:        {per_handover_pred * per_hour:.2f} s "
          "of outage per hour")


if __name__ == "__main__":
    main()
