"""Optical (laser) ISL terminals and their link budgets.

The paper: laser ISLs offer "higher throughput than RF, with lower energy
cost", but terminals cost ~$500,000, occupy 0.0234 m^3 and weigh at least
15 kg — infeasible for small spacecraft.  The narrow transmission beam
"poses unique challenges in accurate data transfer"; the residual
pointing jitter of a tracking terminal drives a pointing loss in the link
budget, and a link still in acquisition pays the worst-case loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.phy.channel import free_space_path_loss_db, noise_power_dbw
from repro.phy.linkbudget import LinkBudget, LinkBudgetArrays

#: Paper-cited terminal economics (ConLCT80 datasheet via satsearch).
LASER_TERMINAL_COST_USD = 500_000.0
LASER_TERMINAL_MASS_KG = 15.0
LASER_TERMINAL_VOLUME_M3 = 0.0234


@dataclass(frozen=True)
class OpticalTerminal:
    """A laser communication terminal.

    Attributes:
        tx_power_w: Optical transmit power.
        aperture_m: Telescope aperture diameter.
        wavelength_nm: Operating wavelength (1550 nm standard).
        beam_divergence_urad: Full-angle beam divergence in microradians;
            narrow beams give huge gain but demand tight pointing.
        pointing_jitter_urad: Residual RMS pointing error while tracking.
        data_bandwidth_hz: Electrical bandwidth used for capacity.
        mass_kg: Terminal mass (paper: >= 15 kg).
        unit_cost_usd: Terminal cost (paper: ~$500k).
        volume_m3: Terminal volume (paper: 0.0234 m^3).
    """

    tx_power_w: float = 2.0
    aperture_m: float = 0.08
    wavelength_nm: float = 1550.0
    beam_divergence_urad: float = 15.0
    pointing_jitter_urad: float = 2.0
    data_bandwidth_hz: float = 10e9
    mass_kg: float = LASER_TERMINAL_MASS_KG
    unit_cost_usd: float = LASER_TERMINAL_COST_USD
    volume_m3: float = LASER_TERMINAL_VOLUME_M3

    def __post_init__(self) -> None:
        if self.tx_power_w <= 0.0:
            raise ValueError(f"tx power must be positive, got {self.tx_power_w}")
        if self.beam_divergence_urad <= 0.0:
            raise ValueError(
                f"beam divergence must be positive, got {self.beam_divergence_urad}"
            )

    @property
    def frequency_hz(self) -> float:
        return 299792458.0 / (self.wavelength_nm * 1e-9)

    @property
    def tx_gain_dbi(self) -> float:
        """Transmit gain from the beam divergence: ``G = (4/theta)^2``."""
        theta_rad = self.beam_divergence_urad * 1e-6
        return 10.0 * math.log10((4.0 / theta_rad) ** 2)

    @property
    def rx_gain_dbi(self) -> float:
        """Receive gain of the telescope aperture: ``(pi D / lambda)^2``."""
        wavelength_m = self.wavelength_nm * 1e-9
        return 10.0 * math.log10((math.pi * self.aperture_m / wavelength_m) ** 2)

    @property
    def tx_power_dbw(self) -> float:
        return 10.0 * math.log10(self.tx_power_w)


def pointing_loss_db(jitter_urad: float, beam_divergence_urad: float) -> float:
    """Average pointing loss for a Gaussian beam under RMS jitter, dB.

    Uses the Gaussian-beam form ``L = 8 * (sigma / theta_div)^2 * 10/ln10``
    truncated at 30 dB (beyond that the link is effectively lost and the
    terminal drops back to acquisition).
    """
    if beam_divergence_urad <= 0.0:
        raise ValueError(
            f"beam divergence must be positive, got {beam_divergence_urad}"
        )
    if jitter_urad < 0.0:
        raise ValueError(f"jitter must be >= 0, got {jitter_urad}")
    ratio = jitter_urad / beam_divergence_urad
    loss = 8.0 * ratio * ratio * (10.0 / math.log(10.0))
    return min(loss, 30.0)


def optical_link_budget(tx: OpticalTerminal, rx: OpticalTerminal,
                        distance_km: float,
                        tracking: bool = True) -> LinkBudget:
    """Link budget for a laser ISL.

    Args:
        tx: Transmitting terminal.
        rx: Receiving terminal.
        distance_km: Slant range.
        tracking: When False, the link is still in acquisition and suffers
            the worst-case pointing loss (30 dB), so budgets computed before
            PAT lock reflect the unusable pre-lock state.
    """
    path_loss = free_space_path_loss_db(distance_km, tx.frequency_hz)
    jitter = tx.pointing_jitter_urad if tracking else tx.beam_divergence_urad * 2.0
    extra = pointing_loss_db(jitter, tx.beam_divergence_urad) + 3.0  # 3 dB impl.
    bandwidth = min(tx.data_bandwidth_hz, rx.data_bandwidth_hz)
    return LinkBudget(
        tx_power_dbw=tx.tx_power_dbw,
        tx_gain_dbi=tx.tx_gain_dbi,
        rx_gain_dbi=rx.rx_gain_dbi,
        path_loss_db=path_loss,
        extra_loss_db=extra,
        noise_power_dbw=noise_power_dbw(bandwidth, 1000.0),
        bandwidth_hz=bandwidth,
    )


def optical_link_budget_arrays(tx: OpticalTerminal, rx: OpticalTerminal,
                               distances_km: np.ndarray,
                               tracking: bool = True) -> LinkBudgetArrays:
    """Batched laser link budgets over an array of slant ranges.

    One vectorized pass over the edge axis; bitwise identical, edge for
    edge, to calling :func:`optical_link_budget` per distance (the
    per-edge terms run through the same shape-independent ufuncs).
    """
    distances = np.asarray(distances_km, dtype=float)
    path_loss = free_space_path_loss_db(distances, tx.frequency_hz)
    jitter = tx.pointing_jitter_urad if tracking else tx.beam_divergence_urad * 2.0
    extra = pointing_loss_db(jitter, tx.beam_divergence_urad) + 3.0  # 3 dB impl.
    bandwidth = min(tx.data_bandwidth_hz, rx.data_bandwidth_hz)
    return LinkBudgetArrays(
        tx_power_dbw=tx.tx_power_dbw,
        tx_gain_dbi=tx.tx_gain_dbi,
        rx_gain_dbi=rx.rx_gain_dbi,
        path_loss_db=path_loss,
        extra_loss_db=extra,
        noise_power_dbw=noise_power_dbw(bandwidth, 1000.0),
        bandwidth_hz=bandwidth,
    )
