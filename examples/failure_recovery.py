#!/usr/bin/env python3
"""Failure injection and recovery (paper Section 4, Figure 2(c) caption).

Builds the 66-satellite reference constellation, then stresses it three
ways in simulated time through the discrete-event engine:

1. independent per-satellite MTBF/MTTR failures — how much churn does the
   redundancy margin absorb before users notice?
2. a correlated whole-plane loss (launch-dispenser failure mode) — the
   worst case a Walker constellation is shaped to resist;
3. the handover view: masking a failed satellite out of a user's contact
   schedule and re-running handover selection on the survivors.

Run:
    python examples/failure_recovery.py
"""

from repro.core.handover import (
    HandoverScheme,
    HandoverSimulator,
    mask_contact_windows,
)
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.resilience_dynamic import run_fault_scenario
from repro.faults.model import FaultSchedule
from repro.faults.schedule import (
    plane_loss_event,
    plane_members,
    satellite_mtbf_schedule,
)
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.contact import contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like

HORIZON_S = 3600.0  # one hour of simulated churn
SEED = 43


def print_summary(result):
    print(f"  faults: {result['faults_injected']} injected, "
          f"{result['faults_absorbed']} absorbed with no user impact")
    print(f"  flows:  {result['flows_rerouted']} rerouted, "
          f"{result['flows_dropped']} dropped, "
          f"{result['flows_unrecovered']} never recovered")
    print(f"  availability: {result['mean_availability']:.4f}, "
          f"mean time-to-reroute {result['mean_time_to_reroute_s']:.1f} s")


def main():
    stations = default_station_network()
    fleet = build_fleet(iridium_like(), "openspace", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    users = [
        UserTerminal("u-nairobi", GeodeticPoint(-1.29, 36.82), "openspace",
                     min_elevation_deg=10.0),
        UserTerminal("u-reykjavik", GeodeticPoint(64.15, -21.94), "openspace",
                     min_elevation_deg=10.0),
    ]
    satellite_ids = [spec.satellite_id for spec in fleet]

    # 1. Random churn: every satellite fails with MTBF 3 h, repairs in
    #    ~15 min.  The 66-satellite fleet carries enough redundancy that
    #    most failures are absorbed silently.
    print(f"[1] random churn: MTBF 3 h, MTTR 15 min, "
          f"{HORIZON_S / 3600:.0f} h horizon")
    churn = satellite_mtbf_schedule(satellite_ids, HORIZON_S,
                                    mtbf_s=3 * 3600.0, mttr_s=900.0,
                                    seed=SEED)
    result = run_fault_scenario(network, churn, users,
                                horizon_s=HORIZON_S, epochs=8)
    print_summary(result)

    # 2. Correlated loss: one whole orbital plane (11 satellites) gone for
    #    30 minutes.  Correlated failures hit harder than the same number
    #    of independent ones — this is what constellations are shaped
    #    against.
    planes = plane_members(fleet)
    print(f"\n[2] plane loss: {len(planes)} planes of "
          f"{len(next(iter(planes.values())))}; plane 0 down 30 min")
    plane_schedule = FaultSchedule(
        events=[plane_loss_event(fleet, 0, start_s=600.0,
                                 duration_s=1800.0)],
        horizon_s=HORIZON_S,
    )
    result = run_fault_scenario(network, plane_schedule, users,
                                horizon_s=HORIZON_S, epochs=8)
    print_summary(result)

    # 3. The handover view: knock out the satellite actually serving a
    #    Nairobi user mid-pass, mask it out of the contact schedule, and
    #    re-run handover selection on the survivors.
    print("\n[3] handover re-selection on the masked contact schedule")
    site = GeodeticPoint(-1.29, 36.82, 0.0)
    constellation = iridium_like()
    windows = contact_windows(site, constellation, 0.0,
                              HORIZON_S, step_s=15.0,
                              min_elevation_deg=10.0)
    longest = max(windows, key=lambda w: w.end_s - w.start_s)
    midpoint = (longest.start_s + longest.end_s) / 2.0
    outages = [(longest.satellite_index, midpoint, HORIZON_S)]
    masked = mask_contact_windows(windows, outages)
    simulator = HandoverSimulator()
    before = simulator.run(windows, HandoverScheme.PREDICTIVE, 0.0,
                           HORIZON_S)
    after = simulator.run(masked, HandoverScheme.PREDICTIVE, 0.0,
                          HORIZON_S)
    print(f"  satellite {longest.satellite_index} fails at "
          f"t={midpoint:.0f} s, mid-pass")
    print(f"  handovers: {before.handover_count} -> "
          f"{after.handover_count}")
    print(f"  coverage gap: {before.coverage_gap_s:.0f} s -> "
          f"{after.coverage_gap_s:.0f} s of "
          f"{HORIZON_S:.0f} s")
    print("\nThe redundancy margin absorbs most independent failures "
          "silently; correlated and mid-pass losses are the ones users "
          "feel, and recovery is a reroute, not a truck roll.")


if __name__ == "__main__":
    main()
