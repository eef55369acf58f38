"""Tests for the TLE emitter, refereed by the reader in
:mod:`tests.orbits.tle_oracle`."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits.elements import OrbitalElements
from repro.orbits.tle import (
    TwoLineElement,
    _checksum,
    catalog_from_constellation,
    emit_tle,
    tle_from_elements,
)
from tests.orbits.tle_oracle import (
    TleFormatError,
    elements_from_tle,
    parse_tle,
    to_elements,
)

#: The canonical ISS TLE example (checksums valid).
ISS_TLE = [
    "ISS (ZARYA)",
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537",
]


class TestParse:
    def test_parses_iss_record(self):
        tle = parse_tle(ISS_TLE)
        assert tle.name == "ISS (ZARYA)"
        assert tle.catalog_number == 25544
        assert tle.inclination_deg == pytest.approx(51.6416)
        assert tle.eccentricity == pytest.approx(0.0006703)
        assert tle.mean_motion_rev_day == pytest.approx(15.72125391)

    def test_parses_without_title_line(self):
        tle = parse_tle(ISS_TLE[1:])
        assert tle.name == "UNKNOWN"
        assert tle.catalog_number == 25544

    def test_rejects_wrong_line_count(self):
        with pytest.raises(ValueError, match="expected 2 or 3"):
            parse_tle(["only one line"])

    def test_rejects_bad_prefix(self):
        bad = ["X" + ISS_TLE[1][1:], ISS_TLE[2]]
        with pytest.raises(ValueError, match="must start"):
            parse_tle(bad)

    def test_rejects_checksum_mismatch(self):
        corrupted = ISS_TLE[1][:20] + "9" + ISS_TLE[1][21:]
        with pytest.raises(ValueError, match="checksum"):
            parse_tle([corrupted, ISS_TLE[2]])

    def test_rejects_short_line(self):
        with pytest.raises(ValueError, match="too short"):
            parse_tle(["1 25544U", ISS_TLE[2]])

    def test_iss_elements_are_leo(self):
        elements = to_elements(parse_tle(ISS_TLE))
        assert 300.0 < elements.altitude_km < 450.0
        assert math.degrees(elements.inclination_rad) == pytest.approx(51.64, abs=0.01)


class TestEmit:
    def test_emitted_record_parses_back(self):
        original = parse_tle(ISS_TLE)
        lines = emit_tle(original)
        recovered = parse_tle(lines)
        assert recovered.inclination_deg == pytest.approx(
            original.inclination_deg, abs=1e-3
        )
        assert recovered.mean_motion_rev_day == pytest.approx(
            original.mean_motion_rev_day, abs=1e-6
        )
        assert recovered.eccentricity == pytest.approx(
            original.eccentricity, abs=1e-6
        )

    def test_emitted_lines_have_valid_length(self):
        lines = emit_tle(parse_tle(ISS_TLE))
        assert len(lines[1]) == 69
        assert len(lines[2]) == 69


class TestElementsRoundTrip:
    def test_orbital_geometry_preserved(self):
        elements = OrbitalElements.circular(
            780.0, inclination_rad=math.radians(86.4),
            raan_rad=1.0, mean_anomaly_rad=2.0,
        )
        lines = tle_from_elements(elements, name="TEST")
        recovered = elements_from_tle(lines)
        assert recovered.semi_major_axis_km == pytest.approx(
            elements.semi_major_axis_km, abs=0.01
        )
        assert recovered.inclination_rad == pytest.approx(
            elements.inclination_rad, abs=1e-5
        )
        assert recovered.raan_rad == pytest.approx(elements.raan_rad, abs=1e-4)
        assert recovered.mean_anomaly_rad == pytest.approx(
            elements.mean_anomaly_rad, abs=1e-4
        )

    def test_eccentric_orbit_round_trip(self):
        elements = OrbitalElements(
            semi_major_axis_km=7500.0, eccentricity=0.02,
            inclination_rad=1.0, arg_perigee_rad=0.5,
        )
        recovered = elements_from_tle(tle_from_elements(elements))
        assert recovered.eccentricity == pytest.approx(0.02, abs=1e-6)
        assert recovered.arg_perigee_rad == pytest.approx(0.5, abs=1e-4)


class TestCatalog:
    def test_catalog_covers_whole_fleet(self, iridium):
        records = catalog_from_constellation(iridium)
        assert len(records) == len(iridium)
        # Every record must parse with a distinct catalog number.
        numbers = {parse_tle(r).catalog_number for r in records}
        assert len(numbers) == len(iridium)

    def test_catalog_names_carry_prefix(self, iridium):
        records = catalog_from_constellation(iridium, name_prefix="ACME")
        assert records[0][0].startswith("ACME-")


def _with_checksum(line: str) -> str:
    """A line with its checksum column recomputed."""
    return line[:68] + str(_checksum(line))


def _replace(line: str, start: int, text: str) -> str:
    """``line`` with 1-based columns from ``start`` replaced by ``text``."""
    return _with_checksum(line[:start - 1] + text + line[start - 1 + len(text):])


class TestTypedErrors:
    def test_non_digit_checksum_names_the_column(self):
        bad = ISS_TLE[1][:68] + "X"
        with pytest.raises(TleFormatError,
                           match=r"line 1 column 69 \(checksum\)"):
            parse_tle([bad, ISS_TLE[2]])

    def test_unparsable_field_names_line_and_columns(self):
        bad = _replace(ISS_TLE[2], 9, " 51.6x16")
        with pytest.raises(TleFormatError,
                           match=r"line 2 columns 9-16 \(inclination\): "
                                 r"cannot parse ' 51.6x16'"):
            parse_tle([ISS_TLE[1], bad])

    def test_python_only_number_spellings_are_rejected(self):
        for text in (" 51_6416", "   1e1  ", "     inf"):
            with pytest.raises(TleFormatError, match="columns 9-16"):
                parse_tle([ISS_TLE[1], _replace(ISS_TLE[2], 9, text)])

    @pytest.mark.parametrize("start, text, field", [
        (9, "999.9999", "inclination"),
        (9, "180.0001", "inclination"),
        (9, " -0.0001", "inclination"),
        (18, "360.0000", "raan"),
        (35, "-10.0000", "arg_perigee"),
        (44, "400.0000", "mean_anomaly"),
        (53, " 0.00000000", "mean_motion"),
        (53, "-1.00000000", "mean_motion"),
    ])
    def test_out_of_range_fields(self, start, text, field):
        bad = _replace(ISS_TLE[2], start, text)
        with pytest.raises(TleFormatError, match=rf"line 2 columns {start}-"
                                                 rf"\d+ \({field}\)"):
            parse_tle([ISS_TLE[1], bad])

    def test_range_edges_accepted(self):
        line = _replace(_replace(ISS_TLE[2], 9, "180.0000"), 18, "  0.0000")
        tle = parse_tle([ISS_TLE[1], line])
        assert tle.inclination_deg == 180.0 and tle.raan_deg == 0.0

    def test_is_a_value_error(self):
        assert issubclass(TleFormatError, ValueError)

    def test_emit_wraps_angles_into_range(self):
        tle = parse_tle(ISS_TLE)
        wrapped = parse_tle(emit_tle(TwoLineElement(
            **{**tle.__dict__, "raan_deg": 359.99999, "mean_anomaly_deg": -90.0})))
        assert wrapped.raan_deg == 0.0
        assert wrapped.mean_anomaly_deg == 270.0


def _grid(low: int, high: int, decimals: int):
    """Values ``k / 10**decimals``: exact in the field's fixed format."""
    return st.integers(low, high).map(lambda k: k / 10 ** decimals)


@st.composite
def _records(draw):
    return TwoLineElement(
        name=draw(st.text(alphabet="ABCDEFGHIJ0123456789-()", min_size=1,
                          max_size=20)),
        catalog_number=draw(st.integers(0, 99999)),
        epoch_year=draw(st.integers(0, 99)),
        epoch_day=draw(_grid(10 ** 8, 366 * 10 ** 8, 8)),
        inclination_deg=draw(_grid(0, 180 * 10 ** 4, 4)),
        raan_deg=draw(_grid(0, 360 * 10 ** 4 - 1, 4)),
        eccentricity=draw(_grid(0, 10 ** 7 - 1, 7)),
        arg_perigee_deg=draw(_grid(0, 360 * 10 ** 4 - 1, 4)),
        mean_anomaly_deg=draw(_grid(0, 360 * 10 ** 4 - 1, 4)),
        mean_motion_rev_day=draw(_grid(1, 99 * 10 ** 8, 8)),
    )


class TestCodecProperties:
    @settings(max_examples=100, deadline=None)
    @given(record=_records())
    def test_emit_then_parse_is_identity(self, record):
        assert parse_tle(emit_tle(record)) == record

    @settings(max_examples=300, deadline=None)
    @given(record=_records(), line=st.sampled_from([1, 2]),
           column=st.integers(0, 68),
           char=st.characters(min_codepoint=32, max_codepoint=0x6ff))
    def test_single_character_corruption(self, record, line, column, char):
        lines = emit_tle(record)
        text = lines[line]
        lines[line] = text[:column] + char + text[column + 1:]
        try:
            tle = parse_tle(lines)
        except TleFormatError:
            return
        # A corruption that survives the checksum still yields fields in
        # range.
        assert 0.0 <= tle.inclination_deg <= 180.0
        for angle in (tle.raan_deg, tle.arg_perigee_deg,
                      tle.mean_anomaly_deg):
            assert 0.0 <= angle < 360.0
        assert tle.mean_motion_rev_day > 0.0
        assert 0.0 <= tle.eccentricity < 1.0
