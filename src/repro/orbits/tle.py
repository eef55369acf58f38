"""Two-Line Element (TLE) codec.

The paper's routing design rests on the observation that "the radar-tracked
orbital paths of satellites are well-known and readily available on public
websites" (N2YO, AstriaGraph).  This module is the stand-in for those
catalogs: it parses standard TLE records into orbital elements and emits
checksummed TLE records from elements, so synthetic constellations can be
published/consumed through the same public-data format real systems use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.orbits.constants import EARTH_MU_KM3_S2
from repro.orbits.elements import OrbitalElements

_TWO_PI = 2.0 * math.pi
_SECONDS_PER_DAY = 86400.0


class TleFormatError(ValueError):
    """A TLE record that does not parse or holds an out-of-range field;
    the message names the line and the columns."""


#: What a numeric field may hold: an optional sign, digits and at most
#: one decimal point, padded with spaces (nothing Python's ``float``
#: would also take, like ``"1_0"``, ``"inf"`` or ``"1e5"``).
_NUMBER = re.compile(r" *[+-]?([0-9]+\.?[0-9]*|\.[0-9]+) *")
_INTEGER = re.compile(r" *[+-]?[0-9]+ *")
#: The eccentricity field: digits after an implied leading "0.".
_DIGITS = re.compile(r" *[0-9]+ *")


def _field(lines: Tuple[str, str], line_number: int, start: int, end: int,
           name: str, pattern: "re.Pattern[str]",
           convert: Callable[[str], float]):
    """Parse 1-based columns ``start``-``end`` of TLE line ``line_number``."""
    text = lines[line_number - 1][start - 1:end]
    if not pattern.fullmatch(text):
        raise TleFormatError(
            f"line {line_number} columns {start}-{end} ({name}): cannot "
            f"parse {text!r}"
        )
    return convert(text)


def _check_range(value: float, low: float, high: float, closed: bool,
                 line_number: int, start: int, end: int, name: str) -> None:
    inside = low <= value <= high if closed else low <= value < high
    if not inside:
        bracket = "]" if closed else ")"
        raise TleFormatError(
            f"line {line_number} columns {start}-{end} ({name}): {value} is "
            f"outside [{low:g}, {high:g}{bracket}"
        )


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
    """A parsed TLE record.

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

    def to_elements(self, epoch_s: float = 0.0) -> OrbitalElements:
        """Convert to :class:`OrbitalElements` (epoch remapped to sim time)."""
        n_rad_s = self.mean_motion_rev_day * _TWO_PI / _SECONDS_PER_DAY
        semi_major = (EARTH_MU_KM3_S2 / n_rad_s**2) ** (1.0 / 3.0)
        return OrbitalElements(
            semi_major_axis_km=semi_major,
            eccentricity=self.eccentricity,
            inclination_rad=math.radians(self.inclination_deg),
            raan_rad=math.radians(self.raan_deg),
            arg_perigee_rad=math.radians(self.arg_perigee_deg),
            mean_anomaly_rad=math.radians(self.mean_anomaly_deg),
            epoch_s=epoch_s,
        )


def parse_tle(lines: List[str]) -> TwoLineElement:
    """Parse a 2- or 3-line TLE record (title line optional).

    Raises:
        TleFormatError: On malformed lines, a checksum failure, a field
            that does not parse (naming its line and columns), or an
            out-of-range field: inclination outside [0, 180] degrees,
            RAAN, argument of perigee or mean anomaly outside [0, 360)
            degrees, or a mean motion that is not positive.
    """
    stripped = [line.rstrip("\n") for line in lines if line.strip()]
    if len(stripped) == 3:
        name, line1, line2 = stripped
    elif len(stripped) == 2:
        name, (line1, line2) = "UNKNOWN", stripped
    else:
        raise TleFormatError(
            f"expected 2 or 3 TLE lines, got {len(stripped)}")
    if not line1.startswith("1 ") or not line2.startswith("2 "):
        raise TleFormatError("TLE lines must start with '1 ' and '2 '")
    for number, line in ((1, line1), (2, line2)):
        if len(line) < 69:
            raise TleFormatError(
                f"line {number} too short ({len(line)} chars): {line!r}")
        if line[68] not in "0123456789":
            raise TleFormatError(
                f"line {number} column 69 (checksum): cannot parse "
                f"{line[68]!r}")
        if int(line[68]) != _checksum(line):
            raise TleFormatError(
                f"line {number} column 69 (checksum): mismatch on line "
                f"{line!r}")
    both = (line1, line2)
    inclination = _field(both, 2, 9, 16, "inclination", _NUMBER, float)
    _check_range(inclination, 0.0, 180.0, True, 2, 9, 16, "inclination")
    angles = {}
    for field_name, start, end in (("raan", 18, 25), ("arg_perigee", 35, 42),
                                   ("mean_anomaly", 44, 51)):
        angle = _field(both, 2, start, end, field_name, _NUMBER, float)
        _check_range(angle, 0.0, 360.0, False, 2, start, end, field_name)
        angles[field_name] = angle
    mean_motion = _field(both, 2, 53, 63, "mean_motion", _NUMBER, float)
    if not mean_motion > 0.0:
        raise TleFormatError(
            f"line 2 columns 53-63 (mean_motion): {mean_motion} is not "
            f"positive")
    return TwoLineElement(
        name=name.strip(),
        catalog_number=_field(both, 1, 3, 7, "catalog_number", _INTEGER, int),
        epoch_year=_field(both, 1, 19, 20, "epoch_year", _INTEGER, int),
        epoch_day=_field(both, 1, 21, 32, "epoch_day", _NUMBER, float),
        inclination_deg=inclination,
        raan_deg=angles["raan"],
        eccentricity=_field(both, 2, 27, 33, "eccentricity", _DIGITS,
                            lambda text: float("0." + text.strip())),
        arg_perigee_deg=angles["arg_perigee"],
        mean_anomaly_deg=angles["mean_anomaly"],
        mean_motion_rev_day=mean_motion,
    )


def _angle_field(degrees: float) -> str:
    """An angle as an 8.4f field in [0, 360): one that rounds up to
    360.0000 wraps to 0.0000, so every emitted record parses."""
    text = f"{degrees % 360.0:8.4f}"
    return "  0.0000" if text == "360.0000" else text


def emit_tle(tle: TwoLineElement) -> List[str]:
    """Render a :class:`TwoLineElement` to a checksummed 3-line record.

    RAAN, argument of perigee and mean anomaly are written modulo 360
    degrees, the range :func:`parse_tle` accepts.
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


def elements_from_tle(lines: List[str], epoch_s: float = 0.0) -> OrbitalElements:
    """Parse a TLE record straight into orbital elements."""
    return parse_tle(lines).to_elements(epoch_s)


def tle_from_elements(elements: OrbitalElements, name: str = "SYNTHETIC",
                      catalog_number: int = 1) -> List[str]:
    """Encode orbital elements as a synthetic TLE record.

    The epoch is stamped as day-of-year within a fixed synthetic year; round
    trips through :func:`elements_from_tle` preserve the orbital geometry
    (the simulation-time epoch is supplied at parse time instead).
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
