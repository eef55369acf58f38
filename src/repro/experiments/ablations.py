"""Ablation experiments for the design axes the paper discusses.

Each function sweeps one design choice and returns plain rows the
benchmark harness prints:

* :func:`ablation_isl_mix` — RF-only vs mixed vs all-laser fleets (§2.1's
  capability/cost trade).
* :func:`ablation_mac` — CSMA/CA vs TDMA overhead and delay (§2.1's MAC
  discussion).
* :func:`ablation_handover` — predictive successor handover vs
  re-authentication (§2.2).
* :func:`ablation_economics` — ledger cross-verification, settlement, and
  peering emergence (§3).
* :func:`ablation_federation` — many small operators vs one monolith at
  fixed fleet size (§4/§5's diversity question).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.handover import HandoverScheme, HandoverSimulator
from repro.core.interop import SizeClass
from repro.economics.capex import constellation_budget
from repro.economics.ledger import TrafficLedger
from repro.economics.peering import PeeringAdvisor
from repro.economics.settlement import RateCard, SettlementEngine
from repro.ground.station import default_station_network
from repro.mac.aloha import AlohaConfig, SlottedAlohaSimulator
from repro.mac.csma import CsmaCaConfig, CsmaCaSimulator
from repro.mac.tdma import TdmaConfig, TdmaSimulator
from repro.orbits.contact import contact_windows
from repro.orbits.coordinates import GeodeticPoint
from repro.orbits.walker import iridium_like
from repro.routing.qos import QosRequirement, QosRouter
from repro.simulation.scenario import Scenario


def _traced(span_name: str):
    """Wrap an ablation driver in a named span (no-op when obs is off)."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with _obs.span(span_name):
                return fn(*args, **kwargs)
        return inner
    return wrap


@_traced("experiment.ablation.isl_mix")
def ablation_isl_mix(laser_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
                     satellite_count: int = 66,
                     seed: int = 7) -> List[Dict]:
    """Fleet capability mix: fraction of laser-equipped satellites.

    For each mix, measures premium-class (50 Mbps bottleneck) admission
    rate between random satellite pairs, best-effort latency, and fleet
    capex — quantifying §2.1's finding that laser terminals buy QoS
    capacity at ~$500k per terminal.

    Returns:
        Rows of ``{"laser_fraction", "premium_admission", "mean_latency_ms",
        "fleet_capex_musd"}``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for fraction in laser_fractions:
        size_mix = _size_mix_for_fraction(fraction)
        scenario = Scenario(
            name=f"isl-mix-{fraction:.2f}",
            satellite_count=satellite_count,
            operator_names=("op-a", "op-b", "op-c"),
            size_mix=size_mix,
            seed=seed,
            sample_times_s=(0.0,),
        )
        network = scenario.build_network()
        snap = network.snapshot(0.0)
        router = QosRouter()
        sat_ids = [s.satellite_id for s in network.satellites]
        premium = QosRequirement(min_bandwidth_bps=50e6)
        admitted = 0
        latencies = []
        pair_count = 40
        for _ in range(pair_count):
            src, dst = rng.choice(sat_ids, size=2, replace=False)
            result = router.route(snap, str(src), str(dst), premium)
            if result.admitted:
                admitted += 1
            best_effort = router.route(
                snap, str(src), str(dst), QosRequirement()
            )
            if best_effort.admitted:
                latencies.append(best_effort.metrics.total_delay_ms)
        budget = constellation_budget(network.satellites)
        rows.append({
            "laser_fraction": fraction,
            "premium_admission": admitted / pair_count,
            "mean_latency_ms": float(np.mean(latencies)) if latencies else float("nan"),
            "fleet_capex_musd": budget.total_usd / 1e6,
        })
    return rows


def _size_mix_for_fraction(fraction: float) -> List[SizeClass]:
    """A size-class cycle approximating a laser-equipped fraction.

    SMALL craft are RF-only; MEDIUM and LARGE carry lasers.  A cycle of
    length 4 gives quarter-step granularity.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    laser_slots = round(fraction * 4)
    mix = [SizeClass.MEDIUM] * laser_slots + [SizeClass.SMALL] * (4 - laser_slots)
    return mix or [SizeClass.SMALL]


@_traced("experiment.ablation.mac")
def ablation_mac(station_counts: Sequence[int] = (2, 4, 8, 16),
                 arrival_rate_fps: float = 0.4,
                 duration_s: float = 400.0,
                 seed: int = 11) -> List[Dict]:
    """CSMA/CA vs TDMA vs slotted ALOHA under rising contention (§2.1).

    Returns:
        Rows of ``{"stations", "csma_delay_ms", "csma_delivery",
        "csma_goodput", "tdma_delay_ms", "tdma_delivery", "tdma_goodput",
        "aloha_delivery", "aloha_goodput"}``.
    """
    rows = []
    for count in station_counts:
        csma = CsmaCaSimulator(
            count, CsmaCaConfig(), arrival_rate_fps,
            np.random.default_rng(seed),
        ).run(duration_s)
        tdma = TdmaSimulator(
            count, TdmaConfig(), arrival_rate_fps,
            np.random.default_rng(seed),
        ).run(duration_s)
        aloha = SlottedAlohaSimulator(
            count, AlohaConfig(), arrival_rate_fps,
            np.random.default_rng(seed),
        ).run(duration_s)
        rows.append({
            "stations": count,
            "csma_delay_ms": csma.mean_delay_s * 1000.0,
            "csma_delivery": csma.delivery_ratio,
            "csma_goodput": csma.goodput_efficiency,
            "tdma_delay_ms": tdma.mean_delay_s * 1000.0,
            "tdma_delivery": tdma.delivery_ratio,
            "tdma_goodput": tdma.goodput_efficiency,
            "aloha_delivery": aloha.delivery_ratio,
            "aloha_goodput": aloha.goodput_efficiency,
        })
    return rows


@_traced("experiment.ablation.handover")
def ablation_handover(duration_s: float = 5400.0,
                      user_site: GeodeticPoint = GeodeticPoint(-1.29, 36.82),
                      auth_round_trip_s: float = 0.180) -> Dict:
    """Predictive vs re-authenticating handover over a real pass schedule.

    Contact windows come from the Iridium-like constellation over one and
    a half orbits; both schemes replay the same schedule.

    Returns:
        ``{"handover_count", "predictive": {...}, "reauthenticate": {...},
        "interruption_ratio"}`` where each scheme dict holds
        ``total_interruption_s``, ``availability`` and
        ``mean_interruption_ms``.
    """
    constellation = iridium_like()
    windows = contact_windows(
        user_site, constellation.propagators(), 0.0, duration_s,
        step_s=10.0, min_elevation_deg=25.0,
    )
    simulator = HandoverSimulator(auth_round_trip_s=auth_round_trip_s)
    timelines = simulator.compare_schemes(windows, 0.0, duration_s)
    predictive = timelines[HandoverScheme.PREDICTIVE.value]
    reauth = timelines[HandoverScheme.REAUTHENTICATE.value]
    ratio = (
        reauth.total_interruption_s / predictive.total_interruption_s
        if predictive.total_interruption_s > 0.0 else float("inf")
    )
    return {
        "handover_count": predictive.handover_count,
        "predictive": _timeline_row(predictive),
        "reauthenticate": _timeline_row(reauth),
        "interruption_ratio": ratio,
    }


def _timeline_row(timeline) -> Dict:
    return {
        "total_interruption_s": timeline.total_interruption_s,
        "availability": timeline.availability,
        "mean_interruption_ms": timeline.mean_interruption_s * 1000.0,
    }


@_traced("experiment.ablation.economics")
def ablation_economics(transfer_count: int = 200, seed: int = 3) -> Dict:
    """Ledger settlement and peering emergence over synthetic traffic (§3).

    Three ISPs exchange transit traffic with one fraudulent over-reporter;
    the ledger must (1) catch every fraudulent segment, (2) settle the
    honest matrix, and (3) recommend peering for the symmetric pair.

    Returns:
        ``{"mismatches_caught", "fraud_injected", "invoices",
        "net_positions", "peering_recommended"}``.
    """
    rng = np.random.default_rng(seed)
    ledger = TrafficLedger()
    isps = ["isp-a", "isp-b", "isp-c"]
    fraud_injected = 0
    for index in range(transfer_count):
        source = isps[index % 3]
        carriers = [isp for isp in isps if isp != source]
        # isp-a and isp-b exchange symmetric volumes; isp-c mostly sources.
        if source == "isp-c":
            path = [str(rng.choice(carriers))]
        else:
            path = [carriers[0]] if rng.random() < 0.8 else carriers
        gigabytes = float(rng.uniform(0.5, 3.0))
        misreport = None
        if "isp-c" in path and rng.random() < 0.10:
            misreport = {"isp-c": gigabytes * 1.5}  # fraudulent inflation
            fraud_injected += 1
        ledger.file_path_transfer(
            f"t{index}", source, path, gigabytes, float(index), misreport
        )
    mismatches = ledger.cross_verify()
    engine = SettlementEngine(rate_cards={
        isp: RateCard(carrier=isp) for isp in isps
    })
    invoices = engine.invoices_from_ledger(ledger)
    advisor = PeeringAdvisor(min_mutual_gb=20.0)
    recommendations = advisor.recommendations(ledger)
    return {
        "mismatches_caught": len(mismatches),
        "fraud_injected": fraud_injected,
        "invoices": len(invoices),
        "net_positions": engine.net_positions(invoices),
        "peering_recommended": [
            (r.isp_a, r.isp_b) for r in recommendations if r.recommended
        ],
    }


@_traced("experiment.ablation.federation")
def ablation_federation(operator_counts: Sequence[int] = (1, 2, 3, 6),
                        satellite_count: int = 66,
                        seed: int = 19) -> List[Dict]:
    """Many small collaborating operators vs one monolith (§4/§5).

    The fleet size is fixed; only ownership fragmentation varies.  With
    interoperability the fragmented fleet performs like the monolith —
    that equivalence *is* the OpenSpace thesis.  Without collaboration,
    each operator only uses its own satellites, and reachability
    collapses; both regimes are reported.

    Returns:
        Rows of ``{"operators", "federated_reachability",
        "federated_latency_ms", "solo_reachability", "per_operator_capex_musd"}``.
    """
    rows = []
    for count in operator_counts:
        names = tuple(f"op-{i}" for i in range(count))
        scenario = Scenario(
            name=f"federation-{count}",
            satellite_count=satellite_count,
            operator_names=names,
            size_mix=(SizeClass.MEDIUM,),
            user_count=16,
            seed=seed,
            sample_times_s=(0.0, 1800.0),
        )
        federated = scenario.run()
        solo = _solo_reachability(scenario)
        budget = constellation_budget(scenario.build_fleet())
        row = {
            "operators": count,
            "federated_reachability": federated.latency.reachability,
            "solo_reachability": solo,
            "per_operator_capex_musd": budget.total_usd / 1e6 / count,
        }
        if federated.latency.samples_s:
            row["federated_latency_ms"] = federated.latency.summary_ms().mean
        rows.append(row)
    return rows


#: Every design-axis ablation, in display order.  Each runs with its
#: default (seeded) arguments, so the set is safe to fan out.
ABLATION_NAMES = ("isl_mix", "mac", "handover", "economics", "federation")


def run_ablation(name: str):
    """Run one named ablation with default arguments (picklable entry).

    Args:
        name: One of :data:`ABLATION_NAMES`.

    Raises:
        KeyError: For unknown ablation names.
    """
    runners = {
        "isl_mix": ablation_isl_mix,
        "mac": ablation_mac,
        "handover": ablation_handover,
        "economics": ablation_economics,
        "federation": ablation_federation,
    }
    return runners[name]()


def run_all_ablations(jobs: int = 1) -> Dict[str, object]:
    """Run every ablation, optionally fanned out across processes.

    Each ablation is internally seeded, so results are identical at any
    job count.

    Returns:
        ``{name: result}`` in :data:`ABLATION_NAMES` order.
    """
    from repro.parallel import run_grid

    results = run_grid(run_ablation, list(ABLATION_NAMES), jobs=jobs,
                       label="ablations")
    return dict(zip(ABLATION_NAMES, results))


def _solo_reachability(scenario: Scenario) -> float:
    """Reachability when each user may only use its home operator's assets.

    Each operator's network answers all of its users at one instant with
    one :meth:`~repro.core.network.OpenSpaceNetwork.gateway_probe_paths`
    call.
    """
    from repro.core.network import OpenSpaceNetwork

    fleet = scenario.build_fleet()
    stations = default_station_network()
    users = scenario.build_population().users
    reached = 0
    for owner in sorted({spec.owner for spec in fleet}):
        own_users = [user for user in users if user.home_provider == owner]
        if not own_users:
            continue
        network = OpenSpaceNetwork(
            [spec for spec in fleet if spec.owner == owner], stations)
        for time_s in scenario.sample_times_s:
            paths = network.gateway_probe_paths(network.snapshot(time_s),
                                                own_users)
            reached += sum(path is not None for path in paths.values())
    total = len(scenario.sample_times_s) * len(users)
    return reached / total if total else 0.0
