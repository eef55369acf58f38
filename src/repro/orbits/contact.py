"""Contact-window prediction.

Because every OpenSpace participant can see the public orbital catalog, the
set of overhead satellites at any ground location — and the times at which
they will be available — is "entirely predictable".  This module computes
those prediction tables: time windows during which a satellite is visible
from a ground point, which feed the proactive routing and predictive
handover machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci, ecef_to_eci_over
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions
from repro.orbits.visibility import elevation_angle, elevations_and_ranges


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
                    elements: Sequence[OrbitalElements],
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
        elements: One element set per satellite (a
            :class:`~repro.orbits.walker.WalkerConstellation` iterates as
            one).
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
    elements = list(elements)
    mask_rad = math.radians(min_elevation_deg)
    ground_ecef = ground.ecef()
    windows: List[ContactWindow] = []

    def refine(sat: KeplerFleet, lo: float, hi: float,
               rising: bool) -> float:
        # Bisect for the elevation-mask crossing between lo and hi,
        # comparing in the inertial frame.
        for _ in range(24):
            mid = (lo + hi) / 2.0
            elevation = elevation_angle(ecef_to_eci(ground_ecef, mid),
                                        batch_positions(sat, mid)[0, 0])
            if (elevation >= mask_rad) == rising:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2.0

    # Every step_s from start_s, ending at end_s itself: a span that is
    # not a multiple of the step must not sample, or report, past it.
    times = np.arange(start_s, end_s + step_s, step_s)
    times = np.append(times[times < end_s], end_s)
    # The coarse scan is one propagation of the whole fleet and one
    # elevation pass; only the sub-second edge refinement propagates
    # one satellite at a time.
    fleet_elevations, _ = elevations_and_ranges(
        ecef_to_eci_over(ground_ecef, times),
        batch_positions(KeplerFleet(elements), times))
    for index, elevations in enumerate(fleet_elevations):
        sat = KeplerFleet(elements[index:index + 1])
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
