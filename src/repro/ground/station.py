"""Ground stations with Internet backhaul.

Stations operate "on standardized radio links, much like those used for
ISL ... except for specific implementation details such as the exact
spectrum bands used for ground uplink and downlink".  Each station is owned
by an independent operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.phy.rf import RFTerminal, standard_gateway_terminal

#: $/GB a gateway charges visiting providers' traffic: the paper's
#: pay-per-use ground-station-as-a-service tariff, priced into every
#: station link.
VISITOR_TARIFF_PER_GB = 0.05

#: Queueing delay proxy of a gateway, seconds, on every station link.
GATEWAY_QUEUE_DELAY_S = 0.002


@dataclass
class GroundStation:
    """One gateway site.

    Attributes:
        station_id: Stable identifier (snapshot node id).
        location: Geodetic site location.
        owner: Operator that owns this station.
        terminal: The gateway RF terminal (Ka-band dish by default).
        backhaul_capacity_bps: Internet backhaul capacity.
        min_elevation_deg: Elevation mask for serving satellites.
        rain_rate_mm_h: Local rain rate; degrades Ku/Ka link budgets
            (rain fade), steering traffic to dry gateways.
    """

    station_id: str
    location: GeodeticPoint
    owner: str
    terminal: RFTerminal = field(default_factory=standard_gateway_terminal)
    backhaul_capacity_bps: float = 10e9
    min_elevation_deg: float = 10.0
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
