"""Provider-mix experiment (paper Discussion, Q1).

"What is the precise mix of small and big satellite players that are
needed to realize OpenSpace?  Defining these parameters requires
simulating the different kinds of satellites that could be deployed as
part of this system, including their technical diversity and hypothetical
formations, and modelling a potential user base along with potential user
traffic patterns.  This would require extensive simulation tools not
explored in this paper."

This driver is that simulation tool: it sweeps fleet compositions (how
many small RF-only operators vs medium laser-equipped operators), builds
the federated network, generates a heterogeneous traffic workload from a
modelled user base, pushes it through the flow simulator with QoS-aware
admission, and reports the service each mix can actually sell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.interop import SizeClass
from repro.economics.capex import constellation_budget
from repro.routing.qos import QosRequirement, QosRouter
from repro.simulation.flowsim import FlowSimulator, link_capacities
from repro.simulation.scenario import Scenario
from repro.simulation.traffic import PoissonFlowGenerator

#: QoS classes a provider advertises, mapped to per-link requirements.
QOS_CLASSES: Dict[str, QosRequirement] = {
    "best_effort": QosRequirement(),
    "standard": QosRequirement(min_bandwidth_bps=2e6),
    "premium": QosRequirement(min_bandwidth_bps=50e6),
}


@dataclass(frozen=True)
class MixResult:
    """Outcome for one fleet composition.

    Attributes:
        mix_name: Label, e.g. ``"2 small + 1 medium"``.
        small_operators / medium_operators: Composition.
        admission_by_class: QoS class -> admitted fraction of its flows.
        mean_fct_s: Mean completion time of admitted flows.
        capex_musd: Whole-fleet capital cost.
        premium_capacity_per_musd: Premium admission per capex $M — the
            cost-effectiveness figure a prospective entrant cares about.
    """

    mix_name: str
    small_operators: int
    medium_operators: int
    admission_by_class: Dict[str, float]
    mean_fct_s: float
    capex_musd: float
    premium_capacity_per_musd: float


def _qos_route_fn(snap, qos_router: QosRouter):
    """A flowsim route_fn that admits flows per their QoS class over
    ``snap``."""
    gateways = snap.nodes_of_kind("ground_station")

    def route(flow, _active):
        requirement = QOS_CLASSES.get(flow.qos_class, QosRequirement())
        best = None
        for gateway in gateways:
            result = qos_router.route(snap, flow.user_id, gateway,
                                      requirement)
            if not result.admitted:
                continue
            if (best is None
                    or result.metrics.total_delay_s < best.total_delay_s):
                best = result.metrics
        return best.path if best is not None else None
    return route


def provider_mix_sweep(mixes: Sequence[Tuple[int, int]] = ((3, 0), (2, 1),
                                                           (1, 2), (0, 3)),
                       satellite_count: int = 66,
                       flow_count: int = 60,
                       seed: int = 29) -> List[MixResult]:
    """Sweep small/medium operator compositions at fixed fleet size.

    Args:
        mixes: ``(small_operator_count, medium_operator_count)`` tuples;
            the fleet is split evenly among all operators, each operator's
            satellites matching its class (small = RF-only craft).
        satellite_count: Total federated fleet size.
        flow_count: Flows in the generated workload.
        seed: Root seed.

    Returns:
        One :class:`MixResult` per composition.
    """
    results = []
    for small, medium in mixes:
        operator_total = small + medium
        if operator_total < 1:
            raise ValueError("each mix needs at least one operator")
        names = tuple(
            [f"small-{i}" for i in range(small)]
            + [f"medium-{i}" for i in range(medium)]
        )
        sizes = tuple(
            [SizeClass.SMALL] * small + [SizeClass.MEDIUM] * medium
        )
        scenario = Scenario(
            name=f"mix-{small}s-{medium}m",
            satellite_count=satellite_count,
            operator_names=names,
            size_mix=sizes,
            user_count=12,
            seed=seed,
        )
        network = scenario.build_network()
        population = scenario.build_population()
        snap = network.snapshot(0.0, users=population.users)

        rng = np.random.default_rng(seed + small * 10 + medium)
        generator = PoissonFlowGenerator(
            population, arrival_rate_per_s=flow_count / 60.0, rng=rng,
            mean_flow_mb=8.0,
        )
        flows = generator.generate(60.0)[:flow_count]

        qos_router = QosRouter()
        sim = FlowSimulator(link_capacities(snap),
                            _qos_route_fn(snap, qos_router))
        outcome = sim.run(flows)

        admitted_by_class: Dict[str, List[int]] = {}
        for record in outcome.completed:
            admitted_by_class.setdefault(record.spec.qos_class, []).append(1)
        for record in outcome.rejected:
            admitted_by_class.setdefault(record.spec.qos_class, []).append(0)
        admission = {
            qos: float(np.mean(flags))
            for qos, flags in sorted(admitted_by_class.items())
        }
        budget = constellation_budget(network.satellites)
        capex_musd = budget.total_usd / 1e6
        premium_rate = admission.get("premium", 0.0)
        results.append(MixResult(
            mix_name=f"{small} small + {medium} medium",
            small_operators=small,
            medium_operators=medium,
            admission_by_class=admission,
            mean_fct_s=outcome.mean_completion_time_s(),
            capex_musd=capex_musd,
            premium_capacity_per_musd=premium_rate / capex_musd * 1000.0,
        ))
    return results
