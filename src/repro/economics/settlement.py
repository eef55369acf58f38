"""Per-path settlement from the cross-verified ledger.

"The precise monetary amounts that ISPs charge to carry said traffic is
left to agreements between individual ISPs in OpenSpace, much like in BGP"
— so each carrier publishes a rate card, and the settlement engine turns
the ledger's agreed carried-traffic matrix into invoices.  Rate cards are
technology-aware: "since RF-based ISLs are likely to offer less bandwidth
availability, these routes will likely be cheaper than laser-based ISLs."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.economics.ledger import TrafficLedger


@dataclass(frozen=True)
class RateCard:
    """One carrier's published transit prices.

    Attributes:
        carrier: The publishing ISP.
        rf_rate_per_gb: $/GB for traffic carried over its RF ISLs.
        optical_rate_per_gb: $/GB over laser ISLs (premium QoS class).
        gateway_rate_per_gb: $/GB through its ground gateways.
        peer_discount: Multiplier applied for ISPs it peers with
            (1.0 = no discount; 0.0 = settlement-free peering).
    """

    carrier: str
    rf_rate_per_gb: float = 0.04
    optical_rate_per_gb: float = 0.10
    gateway_rate_per_gb: float = 0.05
    peer_discount: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rf_rate_per_gb", "optical_rate_per_gb",
                     "gateway_rate_per_gb"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.peer_discount <= 1.0:
            raise ValueError(
                f"peer discount must be in [0, 1], got {self.peer_discount}"
            )

    def rate_for(self, segment_kind: str, is_peer: bool) -> float:
        """$/GB for a segment kind (``"rf"``, ``"optical"``, ``"gateway"``)."""
        rates = {
            "rf": self.rf_rate_per_gb,
            "optical": self.optical_rate_per_gb,
            "gateway": self.gateway_rate_per_gb,
        }
        if segment_kind not in rates:
            raise ValueError(
                f"unknown segment kind {segment_kind!r}; "
                f"expected one of {sorted(rates)}"
            )
        rate = rates[segment_kind]
        return rate * (self.peer_discount if is_peer else 1.0)


@dataclass(frozen=True)
class Invoice:
    """One carrier's bill to one source ISP for a settlement period.

    Attributes:
        carrier: The billing ISP.
        customer: The ISP whose traffic was carried.
        gigabytes: Agreed carried volume.
        amount_usd: Total charge.
    """

    carrier: str
    customer: str
    gigabytes: float
    amount_usd: float


class SettlementEngine:
    """Turns ledger matrices into invoices and net positions.

    Args:
        rate_cards: Carrier name -> its published rate card; carriers
            without a card bill at a default card.
        peers: Set of frozenset({a, b}) pairs with peering agreements.
    """

    def __init__(self, rate_cards: Optional[Dict[str, RateCard]] = None,
                 peers: Optional[set] = None):
        self.rate_cards = dict(rate_cards or {})
        self.peers = set(peers or set())

    def card_for(self, carrier: str) -> RateCard:
        return self.rate_cards.get(carrier, RateCard(carrier=carrier))

    def are_peers(self, a: str, b: str) -> bool:
        return frozenset({a, b}) in self.peers

    def invoices_from_ledger(self, ledger: TrafficLedger,
                             segment_kind: str = "rf") -> List[Invoice]:
        """Bill every agreed (source, carrier) cell of the ledger matrix.

        Args:
            ledger: The cross-verified traffic ledger.
            segment_kind: Technology class applied to all segments (the
                ledger does not retain per-segment technology; callers
                tracking mixed technologies settle per-kind matrices).
        """
        invoices = []
        for (source, carrier), gigabytes in sorted(
            ledger.carried_matrix().items()
        ):
            card = self.card_for(carrier)
            rate = card.rate_for(segment_kind, self.are_peers(source, carrier))
            invoices.append(Invoice(
                carrier=carrier,
                customer=source,
                gigabytes=gigabytes,
                amount_usd=rate * gigabytes,
            ))
        return invoices

    def net_positions(self, invoices: List[Invoice]) -> Dict[str, float]:
        """Per-ISP net cash position across a set of invoices."""
        positions: Dict[str, float] = {}
        for invoice in invoices:
            positions[invoice.carrier] = (
                positions.get(invoice.carrier, 0.0) + invoice.amount_usd
            )
            positions[invoice.customer] = (
                positions.get(invoice.customer, 0.0) - invoice.amount_usd
            )
        return positions
