"""Ground segment: stations and user terminals.

OpenSpace "leverag[es] shared ground infrastructure, composed of
distributed ground stations that have a reliable backhaul connectivity to
the Internet ... ground stations could be owned by independent entities,
which may price their services differently" — the pay-per-use
ground-station-as-a-service model, priced on every station link at
:data:`~repro.ground.station.VISITOR_TARIFF_PER_GB`.
"""

from repro.ground.station import GroundStation, default_station_network
from repro.ground.user import UserTerminal

__all__ = [
    "GroundStation",
    "default_station_network",
    "UserTerminal",
]
