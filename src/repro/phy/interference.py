"""Co-channel interference between satellites sharing spectrum.

OpenSpace's premise is *shared* spectrum: many operators' satellites
transmit in the same bands.  Two satellites serving nearby ground areas on
the same channel interfere; a ground terminal discriminates between them
only by the angular separation its antenna sees (the standard
ITU-style geometry for NGSO sharing).  This module computes:

* the angular separation of two satellites as seen from a ground point;
* the interference power a victim terminal receives from an off-axis
  interferer (transmit power through the victim antenna's off-axis gain);
* the satellite pairs some ground point cannot tell apart.

The coordination protocol that *avoids* these collisions lives in
:mod:`repro.core.spectrum`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.phy.antennas import pointing_loss_db_rf
from repro.phy.channel import free_space_path_loss_db
from repro.phy.rf import RFTerminal


def angular_separation_rad(ground_km: np.ndarray, sat_a_km: np.ndarray,
                           sat_b_km: np.ndarray) -> float:
    """Angle between two satellites as seen from a ground point, radians."""
    ground = np.asarray(ground_km, float)
    to_a = np.asarray(sat_a_km, float) - ground
    to_b = np.asarray(sat_b_km, float) - ground
    norm_a = float(np.linalg.norm(to_a))
    norm_b = float(np.linalg.norm(to_b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    cosine = float(to_a @ to_b) / (norm_a * norm_b)
    return math.acos(max(-1.0, min(1.0, cosine)))


def received_power_dbw(tx: RFTerminal, rx: RFTerminal, distance_km: float,
                       off_axis_deg: float,
                       rx_beamwidth_deg: float) -> float:
    """Power a terminal receives from a (possibly off-axis) transmitter.

    The receive antenna is pointed at its serving satellite; an
    interferer ``off_axis_deg`` away is attenuated by the main-lobe
    roll-off (quadratic model, floored at a -10 dBi sidelobe level).

    Args:
        tx: Transmitting (serving or interfering) space terminal.
        rx: Victim ground terminal.
        distance_km: Transmitter-victim slant range.
        off_axis_deg: Angle between the victim's boresight and the
            transmitter.
        rx_beamwidth_deg: Victim antenna's half-power beamwidth.
    """
    path_loss = free_space_path_loss_db(
        distance_km, tx.band.centre_frequency_hz
    )
    rolloff = pointing_loss_db_rf(off_axis_deg, rx_beamwidth_deg)
    # Sidelobe floor: gain never drops below -10 dBi.
    effective_rx_gain = max(rx.gain_dbi - rolloff, -10.0)
    return (
        tx.tx_power_dbw + tx.gain_dbi + effective_rx_gain - path_loss
        - tx.implementation_loss_db - rx.implementation_loss_db
    )


def interference_pairs(ground_points_km: Sequence[np.ndarray],
                       satellite_positions_km: Sequence[np.ndarray],
                       min_separation_deg: float = 10.0,
                       min_elevation_deg: float = 10.0) -> List[tuple]:
    """Satellite pairs that would interfere somewhere on the ground.

    Two co-channel satellites conflict when some ground point sees both
    above the elevation mask within ``min_separation_deg`` of each other —
    the victim antenna cannot discriminate them.  The result is the edge
    list of the interference graph the spectrum coordinator colors.

    Returns:
        Sorted list of ``(i, j)`` index pairs with ``i < j``.
    """
    from repro.orbits.visibility import elevation_angle

    mask_rad = math.radians(min_elevation_deg)
    conflict_rad = math.radians(min_separation_deg)
    pairs = set()
    for ground in ground_points_km:
        visible = [
            index for index, pos in enumerate(satellite_positions_km)
            if elevation_angle(ground, pos) >= mask_rad
        ]
        for a_idx in range(len(visible)):
            for b_idx in range(a_idx + 1, len(visible)):
                i, j = visible[a_idx], visible[b_idx]
                separation = angular_separation_rad(
                    ground,
                    satellite_positions_km[i],
                    satellite_positions_km[j],
                )
                if separation < conflict_rad:
                    pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)
