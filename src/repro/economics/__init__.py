"""Cost models (paper Section 3).

* :mod:`repro.economics.bgp` — the traditional baseline: BGP-style
  hierarchical provider/customer/peer relationships between autonomous
  systems (the model the paper argues does not map cleanly to OpenSpace).
* :mod:`repro.economics.ledger` — the proposed model: per-path traffic
  accounting "tracked by all parties involved to create an easily
  cross-verifiable account of the extent to which any given ISP's traffic
  was carried by the rest of the network."
* :mod:`repro.economics.settlement` — rate cards and per-path settlement.
* :mod:`repro.economics.peering` — peering recommendation when two
  providers route similar volumes through each other.
* :mod:`repro.economics.capex` — satellite build/launch/licensing costs,
  including the paper's cited figures (FCC small-sat fee, $500k laser
  terminals).
"""

from repro.economics.bgp import (
    AsRelationship,
    BgpEconomy,
    RelationshipKind,
)
from repro.economics.ledger import TrafficLedger, LedgerMismatch
from repro.economics.settlement import RateCard, SettlementEngine, Invoice
from repro.economics.peering import PeeringAdvisor, PeeringRecommendation
from repro.economics.capex import (
    SatelliteCostModel,
    ConstellationBudget,
    FCC_SMALLSAT_FEE_USD,
)
from repro.economics.incentives import (
    IncentiveReport,
    coverage_utility,
    revenue_sharing,
    shapley_values,
    viable_service_utility,
)

__all__ = [
    "AsRelationship",
    "BgpEconomy",
    "RelationshipKind",
    "TrafficLedger",
    "LedgerMismatch",
    "RateCard",
    "SettlementEngine",
    "Invoice",
    "PeeringAdvisor",
    "PeeringRecommendation",
    "SatelliteCostModel",
    "ConstellationBudget",
    "FCC_SMALLSAT_FEE_USD",
    "IncentiveReport",
    "coverage_utility",
    "revenue_sharing",
    "shapley_values",
    "viable_service_utility",
]
