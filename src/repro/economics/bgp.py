"""BGP-style autonomous-system economics (the traditional baseline).

"The BGP cost model is a hierarchical relationship between different ASs
which agree to route traffic through each other's infrastructure.  Much of
BGP involves providers (often larger ASes) charging customers (smaller
ASes) with fees for bi-directional traffic, based on mutually agreed upon
contracts."

The model implements Gao-Rexford relationships (customer/provider, peer,
sibling) and valley-free path validity — the comparator the ledger-based
OpenSpace model is evaluated against in the economics ablation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


class RelationshipKind(enum.Enum):
    """Gao-Rexford business relationship between two ASes."""

    CUSTOMER_PROVIDER = "customer_provider"  # first pays second
    PEER = "peer"                            # settlement-free
    SIBLING = "sibling"                      # same organization


@dataclass(frozen=True)
class AsRelationship:
    """One contracted relationship.

    Attributes:
        a: First AS name (the customer in CUSTOMER_PROVIDER).
        b: Second AS name (the provider in CUSTOMER_PROVIDER).
        kind: Relationship kind.
        price_per_gb: $/GB the customer pays the provider (0 for peers
            and siblings).
    """

    a: str
    b: str
    kind: RelationshipKind
    price_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.price_per_gb < 0.0:
            raise ValueError(f"price must be >= 0, got {self.price_per_gb}")
        if self.kind is not RelationshipKind.CUSTOMER_PROVIDER and self.price_per_gb:
            raise ValueError(f"{self.kind.value} relationships are settlement-free")


class BgpEconomy:
    """A set of ASes and their contracted relationships.

    The key limitation the paper identifies — "the notion of a 'customer'
    and a 'provider' in BGP is not translatable to a meshed system like
    OpenSpace since the infrastructure that belongs to the different
    entities are mobile" — shows up here as :meth:`is_valley_free`
    rejecting the provider-customer-provider weaves that satellite paths
    naturally produce.
    """

    def __init__(self):
        self._relationships: Dict[Tuple[str, str], AsRelationship] = {}
        self._ases: set = set()

    def add_relationship(self, relationship: AsRelationship) -> None:
        """Register a relationship (symmetric lookup)."""
        key = (relationship.a, relationship.b)
        if key in self._relationships or key[::-1] in self._relationships:
            raise ValueError(
                f"relationship between {relationship.a!r} and "
                f"{relationship.b!r} already exists"
            )
        self._relationships[key] = relationship
        self._ases.update(key)

    def relationship_between(self, a: str, b: str) -> Optional[AsRelationship]:
        return self._relationships.get((a, b)) or self._relationships.get((b, a))

    def _edge_type(self, from_as: str, to_as: str) -> Optional[str]:
        """Direction-sensitive edge type: 'up' (to provider), 'down', 'peer'."""
        rel = self.relationship_between(from_as, to_as)
        if rel is None:
            return None
        if rel.kind is RelationshipKind.PEER:
            return "peer"
        if rel.kind is RelationshipKind.SIBLING:
            return "sibling"
        # CUSTOMER_PROVIDER: a is the customer of b.
        return "up" if from_as == rel.a else "down"

    def is_valley_free(self, as_path: Sequence[str]) -> bool:
        """Gao-Rexford export validity of an AS path.

        A valid path is uphill (customer->provider) edges, then at most one
        peer edge, then downhill edges; siblings are transparent.  Paths
        with missing relationships are invalid.
        """
        if len(as_path) < 2:
            return True
        phase = "up"  # up -> peer -> down
        for from_as, to_as in zip(as_path[:-1], as_path[1:]):
            edge = self._edge_type(from_as, to_as)
            if edge is None:
                return False
            if edge == "sibling":
                continue
            if edge == "up":
                if phase != "up":
                    return False
            elif edge == "peer":
                if phase == "down":
                    return False
                phase = "down"
            else:  # down
                phase = "down"
        return True

    def valley_free_fraction(self, as_paths: Sequence[Sequence[str]]) -> float:
        """Fraction of observed AS paths the BGP model can even express.

        The economics ablation runs real OpenSpace routing paths through
        this check to quantify how badly the hierarchical model fits a
        meshed satellite system.
        """
        if not as_paths:
            return 1.0
        valid = sum(1 for path in as_paths if self.is_valley_free(path))
        return valid / len(as_paths)
