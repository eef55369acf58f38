"""User terminals.

End users "simply associate with the available overhead satellite that
supports OpenSpace"; each signs up with a home ISP and roams freely onto
other providers' satellites.  The terminal tracks its association state;
the association/handover protocols themselves live in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.phy.rf import RFTerminal, standard_ku_user_terminal


@dataclass
class UserTerminal:
    """One ground user.

    Attributes:
        user_id: Stable identifier.
        location: Geodetic position (users move rarely relative to
            satellites; re-association handles relocation).
        home_provider: The ISP the user subscribes to and authenticates
            against.
        terminal: The user's RF terminal.
        min_elevation_deg: Elevation mask for usable satellites.
        associated_satellite: Satellite id currently serving the user, or
            None while unassociated.
        session_certificate: The roaming certificate issued by the home
            provider after authentication (opaque token here).
    """

    user_id: str
    location: GeodeticPoint
    home_provider: str
    terminal: RFTerminal = field(default_factory=standard_ku_user_terminal)
    min_elevation_deg: float = 25.0
    associated_satellite: Optional[str] = None
    session_certificate: Optional[str] = None

    def position_eci(self, time_s: float) -> np.ndarray:
        """ECI position of the user at simulation time ``time_s``."""
        return ecef_to_eci(self.location.ecef(), time_s)
