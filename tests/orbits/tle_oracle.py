"""The TLE reader the emitter's tests referee against.

The stack only writes TLEs (``repro catalog`` publishes a fleet through
:func:`~repro.orbits.tle.emit_tle`); no command reads one.  The tests
check the emitter by round trip, so the reader lives here: a parser
with typed errors naming line and columns and range checks on every
angle, the conversion of a parsed record back to orbital elements, and
the two composed.
"""

from __future__ import annotations

import math
import re
from typing import Callable, List, Tuple

from repro.orbits.constants import EARTH_MU_KM3_S2
from repro.orbits.elements import OrbitalElements
from repro.orbits.tle import (
    _SECONDS_PER_DAY,
    _TWO_PI,
    TwoLineElement,
    _checksum,
)


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


def to_elements(tle: TwoLineElement, epoch_s: float = 0.0) -> OrbitalElements:
    """A parsed record as :class:`OrbitalElements` (epoch remapped to sim
    time)."""
    n_rad_s = tle.mean_motion_rev_day * _TWO_PI / _SECONDS_PER_DAY
    semi_major = (EARTH_MU_KM3_S2 / n_rad_s**2) ** (1.0 / 3.0)
    return OrbitalElements(
        semi_major_axis_km=semi_major,
        eccentricity=tle.eccentricity,
        inclination_rad=math.radians(tle.inclination_deg),
        raan_rad=math.radians(tle.raan_deg),
        arg_perigee_rad=math.radians(tle.arg_perigee_deg),
        mean_anomaly_rad=math.radians(tle.mean_anomaly_deg),
        epoch_s=epoch_s,
    )


def elements_from_tle(lines: List[str], epoch_s: float = 0.0) -> OrbitalElements:
    """Parse a TLE record straight into orbital elements."""
    return to_elements(parse_tle(lines), epoch_s)
