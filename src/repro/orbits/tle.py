"""Two-Line Element (TLE) emitter.

The paper's routing design rests on the observation that "the radar-tracked
orbital paths of satellites are well-known and readily available on public
websites" (N2YO, AstriaGraph).  This module is the stand-in for those
catalogs: it emits checksummed TLE records from orbital elements, so a
synthetic constellation is published in the same public-data format real
systems use (``repro catalog``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.orbits.elements import OrbitalElements

_TWO_PI = 2.0 * math.pi
_SECONDS_PER_DAY = 86400.0


def _checksum(line: str) -> int:
    """TLE modulo-10 checksum: digits count as themselves, '-' counts as 1."""
    total = 0
    for char in line[:68]:
        if char in "0123456789":
            total += int(char)
        elif char == "-":
            total += 1
    return total % 10


@dataclass(frozen=True)
class TwoLineElement:
    """One TLE record's fields.

    Attributes:
        name: Satellite name from the (optional) title line.
        catalog_number: NORAD catalog number.
        epoch_year: Two-digit epoch year as encoded in the TLE.
        epoch_day: Fractional day of year.
        inclination_deg: Inclination in degrees.
        raan_deg: RAAN in degrees.
        eccentricity: Eccentricity (the TLE field has an implied leading dot).
        arg_perigee_deg: Argument of perigee in degrees.
        mean_anomaly_deg: Mean anomaly in degrees.
        mean_motion_rev_day: Mean motion in revolutions per day.
    """

    name: str
    catalog_number: int
    epoch_year: int
    epoch_day: float
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_day: float


def _angle_field(degrees: float) -> str:
    """An angle as an 8.4f field in [0, 360): one that rounds up to
    360.0000 wraps to 0.0000, so every emitted angle is in range."""
    text = f"{degrees % 360.0:8.4f}"
    return "  0.0000" if text == "360.0000" else text


def emit_tle(tle: TwoLineElement) -> List[str]:
    """Render a :class:`TwoLineElement` to a checksummed 3-line record.

    RAAN, argument of perigee and mean anomaly are written modulo 360
    degrees, the range the TLE format allows.
    """
    ecc_field = f"{tle.eccentricity:.7f}"[2:9]
    line1 = (
        f"1 {tle.catalog_number:05d}U 00000A   "
        f"{tle.epoch_year:02d}{tle.epoch_day:012.8f}  .00000000  00000-0"
        f"  00000-0 0  999"
    )
    line1 = line1[:68].ljust(68)
    line1 += str(_checksum(line1))
    line2 = (
        f"2 {tle.catalog_number:05d} {tle.inclination_deg:8.4f} "
        f"{_angle_field(tle.raan_deg)} {ecc_field} "
        f"{_angle_field(tle.arg_perigee_deg)} "
        f"{_angle_field(tle.mean_anomaly_deg)} "
        f"{tle.mean_motion_rev_day:11.8f}    0"
    )
    line2 = line2[:68].ljust(68)
    line2 += str(_checksum(line2))
    return [tle.name, line1, line2]


def tle_from_elements(elements: OrbitalElements, name: str = "SYNTHETIC",
                      catalog_number: int = 1) -> List[str]:
    """Encode orbital elements as a synthetic TLE record.

    The epoch is stamped as day-of-year within a fixed synthetic year; the
    record carries the orbital geometry, and a reader supplies the
    simulation-time epoch itself.
    """
    mean_motion = elements.mean_motion_rad_s * _SECONDS_PER_DAY / _TWO_PI
    return emit_tle(
        TwoLineElement(
            name=name,
            catalog_number=catalog_number,
            epoch_year=26,
            epoch_day=1.0 + elements.epoch_s / _SECONDS_PER_DAY,
            inclination_deg=math.degrees(elements.inclination_rad),
            raan_deg=math.degrees(elements.raan_rad),
            eccentricity=elements.eccentricity,
            arg_perigee_deg=math.degrees(elements.arg_perigee_rad),
            mean_anomaly_deg=math.degrees(elements.mean_anomaly_rad),
            mean_motion_rev_day=mean_motion,
        )
    )


def catalog_from_constellation(constellation, name_prefix: str = "OPENSPACE"):
    """Emit a full public catalog (list of 3-line records) for a fleet.

    This is what an OpenSpace operator would publish so every other firm has
    "a full public view of the topology of the entire network".
    """
    records = []
    for index, elements in enumerate(constellation):
        records.append(
            tle_from_elements(
                elements,
                name=f"{name_prefix}-{index:04d}",
                catalog_number=10000 + index,
            )
        )
    return records
