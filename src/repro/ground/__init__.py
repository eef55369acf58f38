"""Ground segment: stations, user terminals, and gateway pricing.

OpenSpace "leverag[es] shared ground infrastructure, composed of
distributed ground stations that have a reliable backhaul connectivity to
the Internet ... ground stations could be owned by independent entities,
which may price their services differently" — the pay-per-use
ground-station-as-a-service model, whose per-station rate card is
:class:`GatewayPricing`.
"""

from repro.ground.station import GroundStation, default_station_network
from repro.ground.user import UserTerminal
from repro.ground.gsaas import GatewayPricing

__all__ = [
    "GroundStation",
    "default_station_network",
    "UserTerminal",
    "GatewayPricing",
]
