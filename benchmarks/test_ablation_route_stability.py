"""Ablation (paper §1/§2.2): routing in a rapidly changing topology.

Paper framing: interoperable routing must cope with "a rapidly changing
network topology", and OpenSpace's answer is precomputation from public
orbital data.  Precomputed tables age: this sweep measures route churn
between snapshots as the refresh epoch lengthens, giving the refresh
cadence an operator must budget for (and the handover signalling the
fleet generates).
"""

from conftest import print_table

from repro.core.interop import SizeClass, SpacecraftSpec
from repro.core.network import OpenSpaceNetwork
from repro.orbits.walker import iridium_like
from repro.phy.rf import standard_sband_isl_terminal
from repro.routing.stability import route_churn

EPOCH_LENGTHS_S = (15.0, 30.0, 60.0, 120.0, 300.0, 600.0)
PAIRS = [("s0", "s33"), ("s5", "s40"), ("s11", "s50"), ("s20", "s60"),
         ("s2", "s47"), ("s8", "s29")]


def _sweep():
    # An ISL-only network: S-band relays, four ISLs each, no ground.
    network = OpenSpaceNetwork([
        SpacecraftSpec(f"s{i}", "bench", SizeClass.SMALL, elements,
                       isl_terminals=[standard_sband_isl_terminal()],
                       max_concurrent_isls=4)
        for i, elements in enumerate(iridium_like().elements)
    ])
    rows = []
    for epoch_s in EPOCH_LENGTHS_S:
        snapshots = [network.snapshot(t)
                     for t in (0.0, epoch_s, 2 * epoch_s, 3 * epoch_s)]
        report = route_churn(snapshots, PAIRS)
        rows.append({
            "epoch_s": epoch_s,
            "mean_churn": report.mean_churn,
            "worst_churn": report.worst_churn,
            "refresh_per_orbit": report.refresh_budget_per_orbit(),
            "mean_latency_delta_ms": sum(
                e.mean_latency_delta_ms for e in report.epochs
            ) / len(report.epochs),
        })
    return rows


def test_route_stability_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table(
        "Proactive-route churn vs refresh epoch (66-sat reference fleet)",
        rows,
        ["epoch_s", "mean_churn", "worst_churn", "refresh_per_orbit",
         "mean_latency_delta_ms"],
    )

    by_epoch = {row["epoch_s"]: row for row in rows}
    # Short epochs keep the tables nearly fresh.
    assert by_epoch[15.0]["mean_churn"] < 0.5
    # Long epochs churn most routes — precomputation must refresh at
    # least every few minutes at LEO dynamics.
    assert by_epoch[600.0]["mean_churn"] >= by_epoch[15.0]["mean_churn"]
    assert by_epoch[600.0]["mean_churn"] > 0.3
    # The trade is monotone-ish: churn never falls by much as the epoch
    # stretches.
    churns = [row["mean_churn"] for row in rows]
    assert churns[-1] >= churns[0]
