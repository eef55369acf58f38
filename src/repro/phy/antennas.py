"""Antenna models for RF terminals.

Parabolic-dish gain.  Small OpenSpace spacecraft use patch or low-gain
antennas (modelled as a fixed gain); larger craft and ground stations use
dishes.
"""

from __future__ import annotations

import math

from repro.orbits.constants import SPEED_OF_LIGHT_M_S


def dish_gain_dbi(diameter_m: float, frequency_hz: float,
                  efficiency: float = 0.6) -> float:
    """Boresight gain of a parabolic dish, dBi.

    ``G = eta * (pi * D / lambda)^2``.

    Args:
        diameter_m: Dish diameter in metres.
        frequency_hz: Operating frequency.
        efficiency: Aperture efficiency in (0, 1].
    """
    if diameter_m <= 0.0:
        raise ValueError(f"diameter must be positive, got {diameter_m}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    gain = efficiency * (math.pi * diameter_m / wavelength) ** 2
    return 10.0 * math.log10(gain)
