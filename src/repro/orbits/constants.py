"""Physical constants used throughout the orbital substrate.

Values follow the WGS-84 / IERS conventions commonly used in LEO
constellation studies.  Distances are kilometres, times are seconds, and
angles are radians unless a name states otherwise.
"""

import math

#: Mean equatorial radius of the Earth (WGS-84), km.
EARTH_RADIUS_KM = 6378.137

#: Polar radius of the Earth (WGS-84), km.
EARTH_POLAR_RADIUS_KM = 6356.752314245

#: WGS-84 flattening factor.
EARTH_FLATTENING = 1.0 / 298.257223563

#: Standard gravitational parameter of the Earth, km^3/s^2.
EARTH_MU_KM3_S2 = 398600.4418

#: Earth rotation rate, rad/s (sidereal).
EARTH_ROTATION_RAD_S = 7.2921150e-5

#: One sidereal day, seconds.
SIDEREAL_DAY_S = 2.0 * math.pi / EARTH_ROTATION_RAD_S

#: Speed of light in vacuum, km/s.
SPEED_OF_LIGHT_KM_S = 299792.458

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT_M_S = 299792458.0

#: Boltzmann constant, J/K — used by the PHY link budgets.
BOLTZMANN_J_K = 1.380649e-23

#: Surface area of the (spherical) Earth, km^2.
EARTH_SURFACE_AREA_KM2 = 4.0 * math.pi * EARTH_RADIUS_KM**2

#: Altitude of the Iridium constellation used in the paper's Figure 2, km.
IRIDIUM_ALTITUDE_KM = 780.0

#: Number of satellites in the operational Iridium constellation.
IRIDIUM_SATELLITE_COUNT = 66

#: Number of orbital planes in the Iridium constellation.
IRIDIUM_PLANE_COUNT = 6

#: Inclination of the Iridium constellation, degrees.  The paper's text says
#: "8.4 degree inclinations", an obvious typo for Iridium's near-polar 86.4°.
IRIDIUM_INCLINATION_DEG = 86.4

#: CBO reference design (cited by the paper): 72 satellites, 12 per plane in
#: 6 planes at 80 degrees inclination give about 95% global coverage.
CBO_SATELLITE_COUNT = 72
CBO_PLANE_COUNT = 6
CBO_INCLINATION_DEG = 80.0
CBO_EXPECTED_COVERAGE = 0.95
