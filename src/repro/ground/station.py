"""Ground stations with Internet backhaul.

Stations operate "on standardized radio links, much like those used for
ISL ... except for specific implementation details such as the exact
spectrum bands used for ground uplink and downlink".  Each station is owned
by an independent operator and carries a gateway pricing card (see
:mod:`repro.ground.gsaas`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.ground.gsaas import GatewayPricing
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.phy.rf import RFTerminal, standard_gateway_terminal


@dataclass
class GroundStation:
    """One gateway site.

    Attributes:
        station_id: Stable identifier (graph node key).
        location: Geodetic site location.
        owner: Operator that owns this station.
        terminal: The gateway RF terminal (Ka-band dish by default).
        backhaul_capacity_bps: Internet backhaul capacity.
        min_elevation_deg: Elevation mask for serving satellites.
        pricing: Gateway-as-a-service rate card.
        current_load_bps: Present traffic through the gateway — feeds the
            dynamic "visitor tariff under high load" behaviour from the
            paper's cost-model discussion.
        rain_rate_mm_h: Local rain rate; degrades Ku/Ka link budgets
            (rain fade), steering traffic to dry gateways.
    """

    station_id: str
    location: GeodeticPoint
    owner: str
    terminal: RFTerminal = field(default_factory=standard_gateway_terminal)
    backhaul_capacity_bps: float = 10e9
    min_elevation_deg: float = 10.0
    pricing: GatewayPricing = field(default_factory=GatewayPricing)
    current_load_bps: float = 0.0
    rain_rate_mm_h: float = 0.0

    def __post_init__(self) -> None:
        if self.backhaul_capacity_bps <= 0.0:
            raise ValueError(
                f"backhaul capacity must be positive, got {self.backhaul_capacity_bps}"
            )
        if self.rain_rate_mm_h < 0.0:
            raise ValueError(
                f"rain rate must be >= 0, got {self.rain_rate_mm_h}"
            )

    def position_eci(self, time_s: float) -> np.ndarray:
        """ECI position of the station at simulation time ``time_s``."""
        return ecef_to_eci(self.location.ecef(), time_s)

    @property
    def utilization(self) -> float:
        """Fraction of backhaul capacity in use, clamped to [0, 1]."""
        return min(1.0, self.current_load_bps / self.backhaul_capacity_bps)

    def visitor_tariff_per_gb(self, visitor: bool = True) -> float:
        """Current $/GB through this gateway.

        "In the event that a ground station ... is experiencing high
        traffic, that ground station may prioritize traffic coming from its
        users, and may place higher tariffs on 'visitor' traffic."
        """
        return self.pricing.effective_rate_per_gb(self.utilization, visitor)

    def queue_delay_s(self) -> float:
        """M/M/1-style queueing delay proxy at the gateway.

        Grows as ``base / (1 - utilization)``; saturates at one second so
        pathological load does not produce infinities inside the routing
        cost model.
        """
        base_s = 0.002
        headroom = max(1e-3, 1.0 - self.utilization)
        return min(1.0, base_s / headroom)


#: A geographically spread default gateway network: one site per region,
#: owned by distinct entities, matching the paper's independent-ownership
#: ground segment.  Coordinates are representative teleport locations.
_DEFAULT_SITES = [
    ("gs-virginia", 38.9, -77.4, "ground-usa"),
    ("gs-oregon", 45.6, -121.2, "ground-usa"),
    ("gs-ireland", 53.4, -6.3, "ground-eu"),
    ("gs-frankfurt", 50.1, 8.7, "ground-eu"),
    ("gs-bahrain", 26.1, 50.6, "ground-me"),
    ("gs-capetown", -33.9, 18.4, "ground-africa"),
    ("gs-nairobi", -1.3, 36.8, "ground-africa"),
    ("gs-mumbai", 19.1, 72.9, "ground-asia"),
    ("gs-singapore", 1.35, 103.8, "ground-asia"),
    ("gs-tokyo", 35.7, 139.7, "ground-asia"),
    ("gs-sydney", -33.9, 151.2, "ground-oceania"),
    ("gs-saopaulo", -23.5, -46.6, "ground-latam"),
    ("gs-santiago", -33.4, -70.7, "ground-latam"),
    ("gs-anchorage", 61.2, -149.9, "ground-polar"),
    ("gs-svalbard", 78.2, 15.6, "ground-polar"),
]


def default_station_network(backhaul_capacity_bps: float = 10e9) -> List[GroundStation]:
    """The default independently owned, globally spread gateway network."""
    return [
        GroundStation(
            station_id=station_id,
            location=GeodeticPoint(lat, lon, 0.0),
            owner=owner,
            backhaul_capacity_bps=backhaul_capacity_bps,
        )
        for station_id, lat, lon, owner in _DEFAULT_SITES
    ]
