"""Orbital mechanics substrate for OpenSpace.

This subpackage provides everything the paper's simulation study relies on:
two-body Keplerian propagation of whole fleets as one array,
coordinate transforms from geodetic to Earth-fixed to inertial frames,
Walker Star / Delta constellation generators (the paper's Iridium-like
reference design), a TLE emitter standing in for the public orbital
catalogs the paper cites (N2YO, AstriaGraph), and geometric visibility /
coverage computations.

All angles are radians and all distances are kilometres unless a name says
otherwise (``*_deg``, ``*_m``).
"""

from repro.orbits.constants import (
    EARTH_RADIUS_KM,
    EARTH_MU_KM3_S2,
    EARTH_ROTATION_RAD_S,
    SPEED_OF_LIGHT_KM_S,
    SIDEREAL_DAY_S,
)
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions
from repro.orbits.coordinates import (
    GeodeticPoint,
    ecef_to_eci,
    geodetic_to_ecef,
)
from repro.orbits.walker import (
    WalkerConstellation,
    walker_delta,
    walker_star,
    iridium_like,
    cbo_reference,
)
from repro.orbits.visibility import (
    cluster_coverage_fraction,
    coverage_fraction,
    elevation_angle,
    footprint_half_angle,
    footprint_area_km2,
    slant_range,
    worst_case_coverage_fraction,
)
from repro.orbits.tle import TwoLineElement, tle_from_elements
from repro.orbits.contact import ContactWindow, contact_windows

__all__ = [
    "EARTH_RADIUS_KM",
    "EARTH_MU_KM3_S2",
    "EARTH_ROTATION_RAD_S",
    "SPEED_OF_LIGHT_KM_S",
    "SIDEREAL_DAY_S",
    "OrbitalElements",
    "KeplerFleet",
    "batch_positions",
    "GeodeticPoint",
    "ecef_to_eci",
    "geodetic_to_ecef",
    "WalkerConstellation",
    "walker_delta",
    "walker_star",
    "iridium_like",
    "cbo_reference",
    "cluster_coverage_fraction",
    "coverage_fraction",
    "elevation_angle",
    "footprint_half_angle",
    "footprint_area_km2",
    "slant_range",
    "worst_case_coverage_fraction",
    "TwoLineElement",
    "tle_from_elements",
    "ContactWindow",
    "contact_windows",
]
