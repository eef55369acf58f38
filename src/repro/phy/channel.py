"""Channel models: path loss, atmospheric and rain attenuation, noise.

Formulas are the standard link-engineering forms (Friis free-space loss,
ITU-style flat approximations for gaseous and rain attenuation).  They are
intentionally simple — the purpose is to give the routing and economics
layers realistic *relative* capacities between heterogeneous RF and optical
links, not to certify a real link design.
"""

from __future__ import annotations

import math

import numpy as np

from repro.orbits.constants import BOLTZMANN_J_K, SPEED_OF_LIGHT_M_S


def free_space_path_loss_db(distance_km, frequency_hz: float):
    """Friis free-space path loss in dB.

    Polymorphic over the distance: a scalar yields a scalar loss, an
    ndarray of slant ranges yields an elementwise loss array.  Both run
    through the same numpy ufuncs, so the scalar and batched results
    are bitwise identical element for element (numpy ufuncs round
    independently of array shape).

    Args:
        distance_km: Link slant range(s) in kilometres (must be positive).
        frequency_hz: Carrier frequency in hertz.

    Returns:
        Path loss in dB (positive), scalar or array matching the input.
    """
    if np.any(np.asarray(distance_km) <= 0.0):
        raise ValueError(f"distance must be positive, got {distance_km}")
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    distance_m = distance_km * 1000.0
    return 20.0 * np.log10(
        4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT_M_S
    )


def atmospheric_loss_db(frequency_hz: float, elevation_rad,
                        zenith_loss_db: float = None):
    """Gaseous atmospheric attenuation for a ground-to-space path, dB.

    Uses a flat zenith attenuation scaled by the cosecant of the elevation
    angle (the standard slant-path approximation), with frequency-dependent
    zenith losses roughly matching ITU-R P.676 at sea level:
    ~0.03 dB below 2 GHz, ~0.1 dB at Ku, ~0.3 dB at Ka.

    Polymorphic over the elevation: scalar in, scalar out; ndarray in,
    elementwise array out (bitwise identical to the scalar path).

    Args:
        frequency_hz: Carrier frequency.
        elevation_rad: Ground-station elevation angle(s); clamped to
            >= 5 deg to keep the cosecant bounded.
        zenith_loss_db: Override the zenith attenuation.

    Returns:
        Attenuation in dB.
    """
    if zenith_loss_db is None:
        ghz = frequency_hz / 1e9
        if ghz < 2.0:
            zenith_loss_db = 0.03
        elif ghz < 18.0:
            zenith_loss_db = 0.10
        elif ghz < 40.0:
            zenith_loss_db = 0.30
        else:
            zenith_loss_db = 1.0
    min_elevation = math.radians(5.0)
    elevation = np.maximum(elevation_rad, min_elevation)
    return zenith_loss_db / np.sin(elevation)


def rain_attenuation_db(frequency_hz: float, elevation_rad,
                        rain_rate_mm_h: float = 0.0,
                        rain_height_km: float = 4.0):
    """Rain attenuation along a slant path, dB (simplified ITU-R P.838 form).

    Specific attenuation is ``gamma = k * R^alpha`` dB/km with
    frequency-dependent ``k`` and ``alpha`` fitted to the published tables,
    applied over the slant path through the rain layer.

    Polymorphic over the elevation: scalar in, scalar out; ndarray in,
    elementwise array out (the specific attenuation ``gamma`` depends
    only on the scalar frequency and rain rate, so it is computed once
    either way).

    Args:
        frequency_hz: Carrier frequency; attenuation is negligible below
            ~5 GHz and the function returns 0 there.
        elevation_rad: Elevation angle(s) (clamped to >= 5 degrees).
        rain_rate_mm_h: Point rain rate; 0 means clear sky.
        rain_height_km: Effective rain layer height.

    Returns:
        Attenuation in dB.
    """
    if rain_rate_mm_h < 0.0:
        raise ValueError(f"rain rate must be >= 0, got {rain_rate_mm_h}")
    is_array = isinstance(elevation_rad, np.ndarray)
    if rain_rate_mm_h == 0.0:
        return np.zeros_like(elevation_rad) if is_array else 0.0
    ghz = frequency_hz / 1e9
    if ghz < 5.0:
        return np.zeros_like(elevation_rad) if is_array else 0.0
    # Crude power-law fits to the ITU k/alpha tables (horizontal pol.).
    k = 4.21e-5 * ghz**2.42 if ghz < 54.0 else 4.09e-2 * ghz**0.699
    alpha = 1.41 * ghz**-0.0779 if ghz < 25.0 else 2.63 * ghz**-0.272
    gamma_db_km = k * rain_rate_mm_h**alpha
    elevation = np.maximum(elevation_rad, math.radians(5.0))
    slant_path_km = rain_height_km / np.sin(elevation)
    return gamma_db_km * slant_path_km


def noise_power_dbw(bandwidth_hz: float, system_noise_temp_k: float = 290.0) -> float:
    """Thermal noise power ``kTB`` in dBW.

    Args:
        bandwidth_hz: Receiver noise bandwidth.
        system_noise_temp_k: System noise temperature (LEO spacecraft
            receivers typically run 300-600 K; ground stations ~150-300 K).
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if system_noise_temp_k <= 0.0:
        raise ValueError(f"noise temperature must be positive, got {system_noise_temp_k}")
    return 10.0 * math.log10(BOLTZMANN_J_K * system_noise_temp_k * bandwidth_hz)
