"""Classical (Keplerian) orbital elements.

A small immutable value type shared by the propagator, the Walker
constellation generators, and the TLE codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.orbits.constants import EARTH_MU_KM3_S2, EARTH_RADIUS_KM

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OrbitalElements:
    """Classical orbital elements at a reference epoch.

    Attributes:
        semi_major_axis_km: Semi-major axis ``a`` in kilometres.
        eccentricity: Eccentricity ``e`` (0 for circular orbits).
        inclination_rad: Inclination ``i`` in radians.
        raan_rad: Right ascension of the ascending node in radians.
        arg_perigee_rad: Argument of perigee in radians (0 for circular).
        mean_anomaly_rad: Mean anomaly at epoch in radians.
        epoch_s: Simulation time of the epoch in seconds.
    """

    semi_major_axis_km: float
    eccentricity: float = 0.0
    inclination_rad: float = 0.0
    raan_rad: float = 0.0
    arg_perigee_rad: float = 0.0
    mean_anomaly_rad: float = 0.0
    epoch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.semi_major_axis_km <= 0.0:
            raise ValueError(
                f"semi-major axis must be positive, got {self.semi_major_axis_km}"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(
                f"eccentricity must be in [0, 1) for a closed orbit, "
                f"got {self.eccentricity}"
            )

    @classmethod
    def circular(
        cls,
        altitude_km: float,
        inclination_rad: float,
        raan_rad: float = 0.0,
        mean_anomaly_rad: float = 0.0,
        epoch_s: float = 0.0,
    ) -> "OrbitalElements":
        """Build elements for a circular orbit at the given altitude."""
        if not (math.isfinite(altitude_km) and altitude_km > 0.0):
            raise ValueError(
                f"altitude must be a finite positive number, got {altitude_km}"
            )
        return cls(
            semi_major_axis_km=EARTH_RADIUS_KM + altitude_km,
            eccentricity=0.0,
            inclination_rad=inclination_rad,
            raan_rad=raan_rad % _TWO_PI,
            arg_perigee_rad=0.0,
            mean_anomaly_rad=mean_anomaly_rad % _TWO_PI,
            epoch_s=epoch_s,
        )

    @property
    def altitude_km(self) -> float:
        """Altitude above the mean equatorial radius (exact for circular)."""
        return self.semi_major_axis_km - EARTH_RADIUS_KM

    @property
    def mean_motion_rad_s(self) -> float:
        """Mean motion ``n = sqrt(mu / a^3)`` in rad/s."""
        return math.sqrt(EARTH_MU_KM3_S2 / self.semi_major_axis_km**3)

    @property
    def period_s(self) -> float:
        """Orbital period in seconds."""
        return _TWO_PI / self.mean_motion_rad_s
