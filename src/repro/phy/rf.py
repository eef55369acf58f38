"""RF terminals and RF link budgets.

Every OpenSpace spacecraft "must permit RF-based communication links at a
minimum"; this module models those terminals across the ISL bands (UHF,
S-band) and the ground bands (Ku, Ka).  Terminals carry the hardware
parameters each spacecraft declares in its interoperability spec
(:class:`~repro.core.interop.SpacecraftSpec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.phy.antennas import dish_gain_dbi
from repro.phy.bands import Band, get_band
from repro.phy.channel import (
    atmospheric_loss_db,
    free_space_path_loss_db,
    noise_power_dbw,
    rain_attenuation_db,
)
from repro.phy.linkbudget import LinkBudget, LinkBudgetArrays


@dataclass(frozen=True)
class RFTerminal:
    """An RF transceiver on a spacecraft, user terminal, or ground station.

    Attributes:
        band_name: Key into the band catalog (e.g. ``"s_band"``).
        tx_power_w: Transmit power in watts.
        antenna_gain_dbi: Fixed antenna gain; if None, ``dish_diameter_m``
            must be given and a parabolic gain is derived.
        dish_diameter_m: Dish diameter when the terminal uses a dish.
        noise_temp_k: Receiver system noise temperature.
        implementation_loss_db: Lumped feed/cable/implementation losses.
        mass_kg: Terminal mass — feeds the capex model.
        unit_cost_usd: Terminal cost — feeds the capex model.  RF ISL
            terminals are cheap relative to the paper's $500k laser figure.
    """

    band_name: str
    tx_power_w: float = 5.0
    antenna_gain_dbi: Optional[float] = None
    dish_diameter_m: Optional[float] = None
    noise_temp_k: float = 500.0
    implementation_loss_db: float = 2.0
    mass_kg: float = 1.5
    unit_cost_usd: float = 25_000.0

    def __post_init__(self) -> None:
        if self.tx_power_w <= 0.0:
            raise ValueError(f"tx power must be positive, got {self.tx_power_w}")
        if self.antenna_gain_dbi is None and self.dish_diameter_m is None:
            raise ValueError(
                "terminal needs either antenna_gain_dbi or dish_diameter_m"
            )
        get_band(self.band_name)  # validate eagerly

    @property
    def band(self) -> Band:
        return get_band(self.band_name)

    @property
    def gain_dbi(self) -> float:
        """Antenna gain: fixed value, or derived from the dish diameter."""
        if self.antenna_gain_dbi is not None:
            return self.antenna_gain_dbi
        return dish_gain_dbi(self.dish_diameter_m, self.band.centre_frequency_hz)

    @property
    def tx_power_dbw(self) -> float:
        return 10.0 * math.log10(self.tx_power_w)

    @property
    def eirp_dbw(self) -> float:
        """Effective isotropic radiated power."""
        return self.tx_power_dbw + self.gain_dbi


def rf_link_budget(tx: RFTerminal, rx: RFTerminal, distance_km: float,
                   elevation_rad: Optional[float] = None,
                   rain_rate_mm_h: float = 0.0) -> LinkBudget:
    """Compute the link budget for an RF link between two terminals.

    Args:
        tx: Transmitting terminal.
        rx: Receiving terminal; must be in the same band as ``tx``
            (the whole point of the OpenSpace interoperability profile).
        distance_km: Slant range.
        elevation_rad: For atmospheric (ground) bands, the ground-station
            elevation angle; ignored for ISL bands.
        rain_rate_mm_h: Rain rate for ground links; 0 means clear sky.

    Raises:
        ValueError: When the terminals are in different bands.
    """
    if tx.band_name != rx.band_name:
        raise ValueError(
            f"band mismatch: tx in {tx.band_name!r}, rx in {rx.band_name!r}; "
            "OpenSpace links require a common band"
        )
    band = tx.band
    path_loss = free_space_path_loss_db(distance_km, band.centre_frequency_hz)
    extra = tx.implementation_loss_db + rx.implementation_loss_db
    if band.atmospheric:
        elevation = elevation_rad if elevation_rad is not None else math.pi / 2.0
        extra += atmospheric_loss_db(band.centre_frequency_hz, elevation)
        extra += rain_attenuation_db(
            band.centre_frequency_hz, elevation, rain_rate_mm_h
        )
    bandwidth = min(band.bandwidth_hz, band.bandwidth_hz)
    return LinkBudget(
        tx_power_dbw=tx.tx_power_dbw,
        tx_gain_dbi=tx.gain_dbi,
        rx_gain_dbi=rx.gain_dbi,
        path_loss_db=path_loss,
        extra_loss_db=extra,
        noise_power_dbw=noise_power_dbw(bandwidth, rx.noise_temp_k),
        bandwidth_hz=bandwidth,
    )


def rf_link_budget_arrays(tx: RFTerminal, rx: RFTerminal,
                          distances_km: np.ndarray,
                          elevations_rad: Optional[np.ndarray] = None,
                          rain_rate_mm_h: float = 0.0) -> LinkBudgetArrays:
    """Batched RF link budgets over stacked edge geometry.

    The array counterpart of :func:`rf_link_budget`: one vectorized pass
    over the edge axis instead of a Python call per edge.  Every per-edge
    term runs through the same shape-independent numpy ufuncs the scalar
    path uses, so the result is bitwise identical, edge for edge, to a
    scalar loop (pinned by the property tests).

    Args:
        tx: Transmitting terminal (shared by every edge).
        rx: Receiving terminal (shared; must match ``tx``'s band).
        distances_km: Slant ranges, one per edge.
        elevations_rad: Ground-station elevation angles per edge, for
            atmospheric bands; ``None`` means zenith, as in the scalar
            path.
        rain_rate_mm_h: Rain rate shared by every edge (one station).

    Raises:
        ValueError: When the terminals are in different bands.
    """
    if tx.band_name != rx.band_name:
        raise ValueError(
            f"band mismatch: tx in {tx.band_name!r}, rx in {rx.band_name!r}; "
            "OpenSpace links require a common band"
        )
    band = tx.band
    distances = np.asarray(distances_km, dtype=float)
    path_loss = free_space_path_loss_db(distances, band.centre_frequency_hz)
    # Edge-independent unless the band is atmospheric: kept as the
    # scalar the per-edge path computes (LinkBudgetArrays broadcasts).
    extra = tx.implementation_loss_db + rx.implementation_loss_db
    if band.atmospheric:
        if elevations_rad is None:
            elevations = np.full_like(distances, math.pi / 2.0)
        else:
            elevations = np.asarray(elevations_rad, dtype=float)
        extra = extra + atmospheric_loss_db(band.centre_frequency_hz, elevations)
        extra = extra + rain_attenuation_db(
            band.centre_frequency_hz, elevations, rain_rate_mm_h
        )
    bandwidth = min(band.bandwidth_hz, band.bandwidth_hz)
    return LinkBudgetArrays(
        tx_power_dbw=tx.tx_power_dbw,
        tx_gain_dbi=tx.gain_dbi,
        rx_gain_dbi=rx.gain_dbi,
        path_loss_db=path_loss,
        extra_loss_db=extra,
        noise_power_dbw=noise_power_dbw(bandwidth, rx.noise_temp_k),
        bandwidth_hz=bandwidth,
    )


def standard_uhf_isl_terminal() -> RFTerminal:
    """The minimum mandatory OpenSpace ISL terminal: UHF, low-gain antenna."""
    return RFTerminal(
        band_name="uhf",
        tx_power_w=5.0,
        antenna_gain_dbi=8.0,
        noise_temp_k=400.0,
        mass_kg=0.5,
        unit_cost_usd=8_000.0,
    )


def standard_sband_isl_terminal() -> RFTerminal:
    """S-band ISL terminal: the higher-bandwidth mandatory-compatible option."""
    return RFTerminal(
        band_name="s_band",
        tx_power_w=15.0,
        antenna_gain_dbi=18.0,
        noise_temp_k=450.0,
        mass_kg=1.2,
        unit_cost_usd=30_000.0,
    )


def standard_ku_user_terminal() -> RFTerminal:
    """A Ku-band user terminal (phased array modelled as a 0.5 m dish)."""
    return RFTerminal(
        band_name="ku_downlink",
        tx_power_w=3.0,
        dish_diameter_m=0.5,
        noise_temp_k=250.0,
        mass_kg=4.0,
        unit_cost_usd=2_000.0,
    )


def standard_ku_space_terminal() -> RFTerminal:
    """A satellite's Ku-band ground-facing terminal."""
    return RFTerminal(
        band_name="ku_downlink",
        tx_power_w=20.0,
        antenna_gain_dbi=32.0,
        noise_temp_k=550.0,
        mass_kg=6.0,
        unit_cost_usd=120_000.0,
    )


def standard_gateway_terminal() -> RFTerminal:
    """A ground-station gateway dish (Ka-band, 3.5 m)."""
    return RFTerminal(
        band_name="ka_gateway",
        tx_power_w=50.0,
        dish_diameter_m=3.5,
        noise_temp_k=180.0,
        mass_kg=400.0,
        unit_cost_usd=500_000.0,
    )
