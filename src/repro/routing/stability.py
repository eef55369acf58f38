"""Route-stability (churn) analysis over the moving topology.

The paper's overview calls out "routing in a rapidly changing network
topology" as a core interoperability problem: precomputed static routes
are only as good as the epoch they were computed for.  This module
quantifies the churn — between consecutive topology snapshots, what
fraction of (source, target) routes changed path, and by how much their
latency moved — which directly sets how often the proactive tables from
:mod:`repro.routing.proactive` must be refreshed and how much handover
signalling the fleet generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.routing.metrics import (
    EdgeCostModel,
    PROPAGATION_ONLY,
    path_metrics,
)


@dataclass(frozen=True)
class EpochChurn:
    """Route churn between one pair of consecutive snapshots.

    Attributes:
        from_time_s / to_time_s: The epoch boundary.
        pairs_evaluated: (source, target) pairs routed in both epochs.
        pairs_changed: Pairs whose node path differs.
        pairs_lost: Pairs routed in the first epoch but unroutable in the
            second (topology broke the connection entirely).
        mean_latency_delta_ms: Mean absolute latency change across pairs
            routed in both epochs.
    """

    from_time_s: float
    to_time_s: float
    pairs_evaluated: int
    pairs_changed: int
    pairs_lost: int
    mean_latency_delta_ms: float

    @property
    def churn_fraction(self) -> float:
        """Fraction of surviving routes whose path changed."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_changed / self.pairs_evaluated


@dataclass
class StabilityReport:
    """Churn across a whole snapshot series.

    Attributes:
        epochs: Per-boundary churn records.
        epoch_length_s: Spacing between snapshots.
    """

    epochs: List[EpochChurn] = field(default_factory=list)
    epoch_length_s: float = 0.0

    @property
    def mean_churn(self) -> float:
        if not self.epochs:
            return 0.0
        return sum(e.churn_fraction for e in self.epochs) / len(self.epochs)

    @property
    def worst_churn(self) -> float:
        if not self.epochs:
            return 0.0
        return max(e.churn_fraction for e in self.epochs)

    def refresh_budget_per_orbit(self, orbit_period_s: float = 6027.0) -> float:
        """Route recomputations per orbit implied by the epoch length."""
        if self.epoch_length_s <= 0.0:
            return 0.0
        return orbit_period_s / self.epoch_length_s


def route_churn(snapshots: Sequence,
                pairs: Sequence[Tuple[str, str]],
                cost_model: Optional[EdgeCostModel] = None) -> StabilityReport:
    """Measure route churn for selected pairs across a snapshot series.

    Args:
        snapshots: Time-ordered
            :class:`~repro.core.network.NetworkSnapshot` objects; each
            routes on its own CSR under ``cost_model``.
        pairs: (source, target) node pairs to track.
        cost_model: Routing cost model (by default
            :data:`~repro.routing.metrics.PROPAGATION_ONLY`, summed
            propagation and queueing delay, as the proactive tables use).

    Returns:
        A :class:`StabilityReport` with one churn record per boundary.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots to measure churn")
    if not pairs:
        raise ValueError("need at least one (source, target) pair")
    model = cost_model or PROPAGATION_ONLY
    report = StabilityReport(
        epoch_length_s=snapshots[1].time_s - snapshots[0].time_s
    )
    adjacency = snapshots[0].csr_adjacency(model)
    previous_routes: Dict[Tuple[str, str], Optional[List[str]]] = {
        pair: adjacency.shortest_path(*pair) for pair in pairs
    }
    previous_snap = snapshots[0]
    for snap in snapshots[1:]:
        evaluated = 0
        changed = 0
        lost = 0
        latency_deltas: List[float] = []
        current_routes: Dict[Tuple[str, str], Optional[List[str]]] = {}
        adjacency = snap.csr_adjacency(model)
        for pair in pairs:
            new_path = adjacency.shortest_path(*pair)
            current_routes[pair] = new_path
            old_path = previous_routes[pair]
            if old_path is None:
                continue
            if new_path is None:
                lost += 1
                continue
            evaluated += 1
            if new_path != old_path:
                changed += 1
            old_ms = path_metrics(previous_snap, old_path).total_delay_ms
            new_ms = path_metrics(snap, new_path).total_delay_ms
            latency_deltas.append(abs(new_ms - old_ms))
        report.epochs.append(EpochChurn(
            from_time_s=previous_snap.time_s,
            to_time_s=snap.time_s,
            pairs_evaluated=evaluated,
            pairs_changed=changed,
            pairs_lost=lost,
            mean_latency_delta_ms=(
                sum(latency_deltas) / len(latency_deltas)
                if latency_deltas else 0.0
            ),
        ))
        previous_routes = current_routes
        previous_snap = snap
    return report
