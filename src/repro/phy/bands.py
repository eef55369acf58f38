"""Frequency band catalog for OpenSpace links.

The paper specifies S-band and UHF for RF ISLs ("tried and tested in
various missions"), Ku-band for ground links (licensed in the US for
satellite broadband), and 1550 nm laser terminals for optical ISLs.
Each entry carries the centre frequency, a representative usable bandwidth,
and whether the band suffers atmospheric attenuation (ISL bands do not; the
path never enters the atmosphere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Band:
    """One allocated frequency band.

    Attributes:
        name: Catalog key, e.g. ``"s_band"``.
        centre_frequency_hz: Carrier centre frequency.
        bandwidth_hz: Usable channel bandwidth for a single link.
        atmospheric: True when links in this band traverse the atmosphere
            (ground links); False for exo-atmospheric ISL bands.
        description: Human-readable note on the band's role in OpenSpace.
    """

    name: str
    centre_frequency_hz: float
    bandwidth_hz: float
    atmospheric: bool
    description: str = ""

    def __post_init__(self) -> None:
        if self.centre_frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive: {self.centre_frequency_hz}")
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth_hz}")


#: Bands the OpenSpace interoperability profile recognises.
BAND_CATALOG: Dict[str, Band] = {
    "uhf": Band(
        name="uhf",
        centre_frequency_hz=435e6,
        bandwidth_hz=1e6,
        atmospheric=False,
        description="UHF ISL band: minimum mandatory RF ISL capability",
    ),
    "s_band": Band(
        name="s_band",
        centre_frequency_hz=2.25e9,
        bandwidth_hz=10e6,
        atmospheric=False,
        description="S-band ISL: higher-bandwidth mandatory-compatible RF ISL",
    ),
    "ku_uplink": Band(
        name="ku_uplink",
        centre_frequency_hz=14.25e9,
        bandwidth_hz=250e6,
        atmospheric=True,
        description="Ku-band ground-to-satellite uplink",
    ),
    "ku_downlink": Band(
        name="ku_downlink",
        centre_frequency_hz=11.7e9,
        bandwidth_hz=250e6,
        atmospheric=True,
        description="Ku-band satellite-to-ground downlink (OFDM, Starlink-style)",
    ),
    "ka_gateway": Band(
        name="ka_gateway",
        centre_frequency_hz=28.5e9,
        bandwidth_hz=500e6,
        atmospheric=True,
        description="Ka-band gateway feeder link for high-capacity ground stations",
    ),
    "optical_1550nm": Band(
        name="optical_1550nm",
        centre_frequency_hz=193.4e12,
        bandwidth_hz=10e9,
        atmospheric=False,
        description="1550 nm laser ISL: optional high-throughput terminal",
    ),
}


def get_band(name: str) -> Band:
    """Look up a band by catalog key.

    Raises:
        KeyError: With the list of known bands when the name is unknown.
    """
    try:
        return BAND_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(BAND_CATALOG))
        raise KeyError(f"unknown band {name!r}; known bands: {known}") from None
