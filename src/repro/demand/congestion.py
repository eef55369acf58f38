"""Wiring fluid congestion outward: health and settlement.

The fluid fixed point (:mod:`repro.demand.fluid`) produces per-link
utilization.  This module converts that into the shapes the rest of the
system consumes:

* utilization samples for the :class:`repro.obs.health.HealthPlane`
  link series (the flight-recorder plane);
* transit volumes filed into :class:`repro.economics.ledger
  .TrafficLedger` and settled into operator revenue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.demand.fluid import FluidResult
from repro.economics.ledger import TrafficLedger
from repro.economics.settlement import Invoice, RateCard, SettlementEngine


@dataclass
class CongestionState:
    """Per-link congestion derived from one fluid fixed point.

    The map uses canonical sorted ``(u, v)`` keys in sorted iteration
    order (deterministic exports).

    Attributes:
        utilization: ``(u, v) -> load / capacity`` for every route edge.
    """

    utilization: Dict[Tuple[str, str], float]


def congestion_state(result: FluidResult) -> CongestionState:
    """Derive the :class:`CongestionState` of one fluid fixed point."""
    utilization = {}
    order = sorted(range(len(result.edge_keys)),
                   key=lambda slot: result.edge_keys[slot])
    for slot in order:
        key = result.edge_keys[slot]
        capacity = float(result.edge_capacity_bps[slot])
        load = float(result.edge_load_bps[slot])
        utilization[key] = (load / capacity
                            if np.isfinite(capacity) and capacity > 0.0
                            else 0.0)
    return CongestionState(utilization=utilization)


@dataclass
class DemandSettlement:
    """Revenue outcome of settling one fluid interval.

    Attributes:
        invoices: Per (carrier, customer) bills.
        revenue_usd: Total billed across all invoices.
        carried_gb: Total billable carried volume.
        net_positions: Per-ISP net cash position.
    """

    invoices: List[Invoice]
    revenue_usd: float
    carried_gb: float
    net_positions: Dict[str, float]


def settle_demand(result: FluidResult, owners: Mapping[str, str],
                  duration_s: float,
                  rate_cards: Optional[Dict[str, RateCard]] = None,
                  segment_kind: str = "gateway",
                  time_s: float = 0.0) -> DemandSettlement:
    """File fluid-interval transit into a ledger and settle it.

    Each routed cell's allocated rate over ``duration_s`` becomes one
    path transfer: the cell's home provider is the source ISP, and the
    owners of the nodes along its serving route are the carriers
    ("tracked by all parties involved").  Carrying an ISP's own traffic
    is not billable, so only cross-operator transit produces revenue.

    Args:
        result: A converged fluid fixed point.
        owners: Owner of every node on a route (the snapshot's
            :attr:`~repro.core.network.NetworkSnapshot.owners`).
        duration_s: Interval the fluid rates were sustained for.
        rate_cards: Carrier rate cards (default cards otherwise).
        segment_kind: Technology class used for billing.
        time_s: Ledger timestamp for the interval.

    Returns:
        The settled interval.
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    ledger = TrafficLedger()
    for index, cell_id in enumerate(result.cell_ids):
        path = result.paths[index]
        if path is None or len(path) < 2:
            continue
        rate = float(result.rate_bps[index])
        if rate <= 0.0:
            continue
        gigabytes = rate * duration_s / 8.0 / 1e9
        source = owners[path[0]]
        carriers = [owners[node] for node in path[1:]]
        ledger.file_path_transfer(
            transfer_id=f"{cell_id}@{time_s:.0f}",
            source_isp=source, carrier_path=carriers,
            gigabytes=gigabytes, time_s=time_s,
        )
    engine = SettlementEngine(rate_cards=rate_cards)
    invoices = engine.invoices_from_ledger(ledger, segment_kind=segment_kind)
    return DemandSettlement(
        invoices=invoices,
        revenue_usd=float(sum(i.amount_usd for i in invoices)),
        carried_gb=float(sum(i.gigabytes for i in invoices)),
        net_positions=engine.net_positions(invoices),
    )


def peak_statistics(result: FluidResult) -> Dict[str, float]:
    """Summary congestion statistics for one fixed point.

    Returns mean/peak utilization over loaded links and the share of
    loaded links above 90% utilization (the congestion headline numbers
    the demand sweep reports).
    """
    fractions = np.asarray(
        [f for f in result.utilization.values() if f > 0.0]
    )
    if fractions.size == 0:
        return {"mean_utilization": 0.0, "peak_utilization": 0.0,
                "hot_link_share": 0.0}
    return {
        "mean_utilization": float(fractions.mean()),
        "peak_utilization": float(fractions.max()),
        "hot_link_share": float((fractions > 0.9).mean()),
    }
