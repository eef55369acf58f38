"""Ground-station-as-a-service pricing.

"These ground stations build on the pay-per-use ground-station-as-a-service
model, much like today's AWS Ground Station, except that in OpenSpace
ground stations could be owned by independent entities, which may price
their services differently."
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GatewayPricing:
    """One station's rate card.

    Attributes:
        base_rate_per_gb: $/GB for the owner's own traffic.
        visitor_rate_per_gb: $/GB for traffic from other providers.
        congestion_multiplier: Factor applied to visitor traffic as
            utilization climbs — the paper's "higher tariffs on 'visitor'
            traffic" under high load.  The surcharge ramps linearly above
            the congestion threshold.
        congestion_threshold: Utilization above which surcharging starts.
        per_pass_fee: Flat fee per satellite contact (AWS-GS-style
            per-minute/per-pass element, folded to one number).
    """

    base_rate_per_gb: float = 0.02
    visitor_rate_per_gb: float = 0.05
    congestion_multiplier: float = 3.0
    congestion_threshold: float = 0.7
    per_pass_fee: float = 3.0

    def __post_init__(self) -> None:
        if self.base_rate_per_gb < 0.0 or self.visitor_rate_per_gb < 0.0:
            raise ValueError("rates must be >= 0")
        if not 0.0 <= self.congestion_threshold <= 1.0:
            raise ValueError(
                f"congestion threshold must be in [0, 1], got "
                f"{self.congestion_threshold}"
            )

    def effective_rate_per_gb(self, utilization: float,
                              visitor: bool) -> float:
        """Current $/GB given gateway utilization and traffic class."""
        utilization = min(1.0, max(0.0, utilization))
        rate = self.visitor_rate_per_gb if visitor else self.base_rate_per_gb
        if visitor and utilization > self.congestion_threshold:
            overload = (utilization - self.congestion_threshold) / max(
                1e-9, 1.0 - self.congestion_threshold
            )
            rate *= 1.0 + overload * (self.congestion_multiplier - 1.0)
        return rate
