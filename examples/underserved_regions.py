#!/usr/bin/env python3
"""Serving the regions the paper's introduction motivates.

Places user clusters in eight underserved regions (remote communities,
disaster-prone and politically unstable areas — the populations for whom
satellite Internet "is often the only connectivity option"), then
measures, over one orbital period:

* service reachability and latency per region;
* how often users roam onto satellites owned by a non-home operator
  ("'roaming' may be quite rampant");
* how much each region depends on each operator's infrastructure.

Run:
    python examples/underserved_regions.py
"""

from collections import Counter, defaultdict

import numpy as np

from repro.core.interop import SizeClass
from repro.simulation.scenario import Scenario
from repro.simulation.traffic import (
    UNDERSERVED_REGIONS,
    underserved_region_users,
)

OPERATORS = ("kenya-sat", "andes-net", "pacific-orbital")


def main():
    rng = np.random.default_rng(7)
    population = underserved_region_users(4, rng, list(OPERATORS))
    for user in population.users:
        user.min_elevation_deg = 10.0

    scenario = Scenario(
        name="underserved",
        satellite_count=66,
        operator_names=OPERATORS,
        size_mix=(SizeClass.MEDIUM, SizeClass.SMALL),
        seed=7,
    )
    network = scenario.build_network()
    sample_times = np.linspace(0.0, 6000.0, 5)

    per_region_latency = defaultdict(list)
    per_region_unreached = Counter()
    roaming = Counter()
    operator_dependence = defaultdict(Counter)

    for time_s in sample_times:
        snapshot = network.snapshot(float(time_s), users=population.users)
        for user in population.users:
            region = user.user_id.split("-", 1)[1].rsplit("-", 1)[0]
            metrics = snapshot.nearest_ground_station_route(user.user_id)
            if metrics is None:
                per_region_unreached[region] += 1
                continue
            per_region_latency[region].append(metrics.total_delay_ms)
            serving_sat = metrics.path[1]
            serving_owner = snapshot.graph.nodes[serving_sat]["owner"]
            roaming["roamed" if serving_owner != user.home_provider
                    else "home"] += 1
            for operator in metrics.operators:
                operator_dependence[region][operator] += 1

    print(f"{'region':>22} | {'mean ms':>8} | {'p95 ms':>8} | {'missed':>6}")
    print("-" * 56)
    for region, _lat, _lon in UNDERSERVED_REGIONS:
        samples = per_region_latency.get(region, [])
        if samples:
            print(f"{region:>22} | {np.mean(samples):>8.1f} | "
                  f"{np.percentile(samples, 95):>8.1f} | "
                  f"{per_region_unreached[region]:>6}")
        else:
            print(f"{region:>22} | {'--':>8} | {'--':>8} | "
                  f"{per_region_unreached[region]:>6}")

    total = roaming["home"] + roaming["roamed"]
    if total:
        print(f"\nRoaming is rampant, as the paper predicts: "
              f"{roaming['roamed'] / total:.0%} of served samples rode a "
              f"non-home operator's satellite first.")

    print("\nOperator dependence by region (distinct path appearances):")
    for region, counts in sorted(operator_dependence.items()):
        mix = ", ".join(f"{op}: {n}" for op, n in counts.most_common())
        print(f"  {region:>22}: {mix}")


if __name__ == "__main__":
    main()
