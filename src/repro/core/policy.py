"""Regional regulation and data-sovereignty policy (paper Discussion, Q3).

"Different countries and regions have varying policies on satellite
communications, such as different spectrum allocation policies, as well as
independent licensing requirements.  The ability to use satellites located
in some regions as relays for user traffic can also be impeded by diverse
user data privacy regulations ... there is the question of how to maintain
a user's data privacy requirements when their traffic is routed to a
groundstation outside their region."

This module models those constraints as data and compiles them into the
routing layer:

* a :class:`Region` is a latitude/longitude box with a data-residency
  flag;
* a :class:`PolicyRegistry` classifies ground stations into regions and
  compiles a user's constraints into the gateways its traffic may exit
  through;
* :func:`policy_adjacency` compiles a snapshot with the other gateways
  masked out, so policy-aware routing avoids them while policy-blind
  routing is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.ground.station import GroundStation
from repro.orbits.coordinates import GeodeticPoint
from repro.routing.csr import CsrAdjacency
from repro.routing.metrics import EdgeCostModel


@dataclass(frozen=True)
class Region:
    """One regulatory region.

    Attributes:
        name: Region label (e.g. ``"eu"``).
        min_lat_deg / max_lat_deg / min_lon_deg / max_lon_deg: Bounding
            box; longitude boxes may wrap the antimeridian (min > max).
        data_residency: When True, traffic originating from users in this
            region must exit through a gateway in the same region.
    """

    name: str
    min_lat_deg: float
    max_lat_deg: float
    min_lon_deg: float
    max_lon_deg: float
    data_residency: bool = False

    def __post_init__(self) -> None:
        if self.min_lat_deg > self.max_lat_deg:
            raise ValueError(
                f"region {self.name!r}: min_lat {self.min_lat_deg} exceeds "
                f"max_lat {self.max_lat_deg}"
            )

    def contains(self, point: GeodeticPoint) -> bool:
        """Whether a ground point falls inside the region's box."""
        if not self.min_lat_deg <= point.latitude_deg <= self.max_lat_deg:
            return False
        lon = point.longitude_deg
        if self.min_lon_deg <= self.max_lon_deg:
            return self.min_lon_deg <= lon <= self.max_lon_deg
        # Antimeridian wrap: e.g. min=150, max=-150.
        return lon >= self.min_lon_deg or lon <= self.max_lon_deg


#: A coarse default world partition (boxes, not borders — a regulatory
#: model, not a GIS).  Unlisted territory falls into "open-seas".
DEFAULT_REGIONS: List[Region] = [
    Region("north-america", 15.0, 75.0, -170.0, -50.0),
    Region("south-america", -56.0, 15.0, -85.0, -33.0),
    Region("europe", 35.0, 72.0, -12.0, 45.0,
           data_residency=True),
    Region("africa", -35.0, 35.0, -18.0, 52.0),
    Region("middle-east", 12.0, 42.0, 26.0, 63.0),
    Region("asia", -11.0, 75.0, 45.0, 150.0),
    Region("oceania", -50.0, -10.0, 110.0, 180.0),
    Region("polar", 66.0, 90.0, -180.0, 180.0),
]


class PolicyRegistry:
    """Maps ground assets to regions and compiles routing constraints.

    Args:
        regions: Regulatory regions; the first containing region wins for
            any given point (order encodes precedence, e.g. polar last).
    """

    def __init__(self, regions: Optional[Sequence[Region]] = None):
        self.regions = list(regions) if regions is not None else list(
            DEFAULT_REGIONS
        )
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")

    def region_of(self, point: GeodeticPoint) -> Optional[Region]:
        """The first region containing the point, or None (open seas)."""
        for region in self.regions:
            if region.contains(point):
                return region
        return None

    def station_regions(self, stations: Sequence[GroundStation]) -> Dict[str, Optional[str]]:
        """Station id -> region name (None for open seas)."""
        mapping = {}
        for station in stations:
            region = self.region_of(station.location)
            mapping[station.station_id] = region.name if region else None
        return mapping

    def compliant_gateways(self, user_location: GeodeticPoint,
                           stations: Sequence[GroundStation]) -> Set[str]:
        """Gateways a user's traffic may exit through.

        Applies data residency: when the user's region requires it, only
        same-region stations qualify; otherwise every station does.
        """
        user_region = self.region_of(user_location)
        if user_region is None or not user_region.data_residency:
            return {station.station_id for station in stations}
        mapping = self.station_regions(stations)
        return {
            station_id for station_id, region_name in mapping.items()
            if region_name == user_region.name
        }


def policy_adjacency(snap, allowed_gateways: Set[str],
                     cost_model: EdgeCostModel) -> CsrAdjacency:
    """``snap``'s CSR under ``cost_model`` with non-compliant gateways
    masked out.

    The policy is a node mask: every ground station outside
    ``allowed_gateways`` is masked, and each edge touching a masked node
    is priced ``inf``, so any path the router finds is compliant by
    construction.  Satellites and users are untouched (the paper's
    residency constraint binds at the ground exit, not at relays).
    """
    allowed = np.ones(len(snap.nodes), dtype=bool)
    for station in snap.nodes_of_kind("ground_station"):
        allowed[snap.index[station]] = station in allowed_gateways
    edges = snap.edges
    costs = edges.costs(cost_model)
    costs[~(allowed[edges.u] & allowed[edges.v])] = np.inf
    return CsrAdjacency.from_edges(snap.nodes, edges.u, edges.v, costs)
