"""Contact-window prediction.

Because every OpenSpace participant can see the public orbital catalog, the
set of overhead satellites at any ground location — and the times at which
they will be available — is "entirely predictable".  This module computes
those prediction tables: time windows during which a satellite is visible
from a ground point, which feed the proactive routing and predictive
handover machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci, ecef_to_eci_over
from repro.orbits.kepler import KeplerPropagator
from repro.orbits.visibility import elevation_angle, elevations_and_ranges
import math


@dataclass(frozen=True)
class ContactWindow:
    """One visibility interval between a ground point and a satellite.

    Attributes:
        satellite_index: Index of the satellite in the fleet being scanned.
        start_s: Window start, simulation seconds (rise time).
        end_s: Window end, simulation seconds (set time).
        max_elevation_rad: Peak elevation reached during the window.
    """

    satellite_index: int
    start_s: float
    end_s: float
    max_elevation_rad: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def contains(self, time_s: float) -> bool:
        """True when ``time_s`` falls within this window."""
        return self.start_s <= time_s <= self.end_s


def contact_windows(ground: GeodeticPoint,
                    propagators: List[KeplerPropagator],
                    start_s: float, end_s: float, step_s: float = 10.0,
                    min_elevation_deg: float = 10.0) -> List[ContactWindow]:
    """Scan for visibility windows between a ground point and a fleet.

    A straightforward fixed-step scan: adequate because LEO passes last
    minutes while the default step is ten seconds.  Window edges are refined
    by bisection to sub-second accuracy.  The scan's last sample is
    ``end_s``, so every window lies within ``[start_s, end_s]``; a window
    still open there ends at ``end_s``.

    Args:
        ground: Ground observer.
        propagators: One propagator per satellite.
        start_s: Scan start time.
        end_s: Scan end time.
        step_s: Coarse scan step.
        min_elevation_deg: Elevation mask.

    Returns:
        Windows sorted by start time (then satellite index).
    """
    if end_s <= start_s:
        raise ValueError(f"end {end_s} must be after start {start_s}")
    if step_s <= 0.0:
        raise ValueError(f"step must be positive, got {step_s}")
    mask_rad = math.radians(min_elevation_deg)
    ground_ecef = ground.ecef()
    windows: List[ContactWindow] = []

    def elevation(sat: KeplerPropagator, t: float) -> float:
        # Compare in the inertial frame: rotate the ground point to ECI.
        ground_eci = ecef_to_eci(ground_ecef, t)
        return elevation_angle(ground_eci, sat.position_at(t))

    def refine(sat: KeplerPropagator, lo: float, hi: float,
               rising: bool) -> float:
        # Bisect for the elevation-mask crossing between lo and hi.
        for _ in range(24):
            mid = (lo + hi) / 2.0
            above = elevation(sat, mid) >= mask_rad
            if above == rising:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0

    # Every step_s from start_s, ending at end_s itself: a span that is
    # not a multiple of the step must not sample, or report, past it.
    times = np.arange(start_s, end_s + step_s, step_s)
    times = np.append(times[times < end_s], end_s)
    # The coarse scan is batched: one ground-track rotation for all
    # sample times, then per satellite one vectorized propagation and one
    # elevation pass.  Only the sub-second edge refinement stays scalar.
    ground_eci_all = ecef_to_eci_over(ground_ecef, times)
    for index, sat in enumerate(propagators):
        elevations, _ = elevations_and_ranges(ground_eci_all,
                                              sat.positions_at(times))
        above_prev = bool(elevations[0] >= mask_rad)
        window_start: Optional[float] = float(times[0]) if above_prev else None
        max_elev = float(elevations[0]) if above_prev else -math.pi
        for k, (t_prev, t) in enumerate(zip(times[:-1], times[1:]), start=1):
            elev = float(elevations[k])
            above = elev >= mask_rad
            if above and not above_prev:
                window_start = refine(sat, float(t_prev), float(t), rising=True)
                max_elev = elev
            elif above:
                max_elev = max(max_elev, elev)
            elif above_prev and window_start is not None:
                window_end = refine(sat, float(t_prev), float(t), rising=False)
                windows.append(
                    ContactWindow(index, window_start, window_end, max_elev)
                )
                window_start = None
            above_prev = above
        if window_start is not None:
            windows.append(
                ContactWindow(index, window_start, float(times[-1]), max_elev)
            )
    windows.sort(key=lambda w: (w.start_s, w.satellite_index))
    return windows
