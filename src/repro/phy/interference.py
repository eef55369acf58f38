"""Co-channel interference between satellites sharing spectrum.

OpenSpace's premise is *shared* spectrum: many operators' satellites
transmit in the same bands.  Two satellites serving nearby ground areas on
the same channel interfere; a ground terminal discriminates between them
only by the angular separation its antenna sees (the standard
ITU-style geometry for NGSO sharing).  This module computes:

* the angular separation of two satellites as seen from a ground point;
* the satellite pairs some ground point cannot tell apart.

The coordination protocol that *avoids* these collisions lives in
:mod:`repro.core.spectrum`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np


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
