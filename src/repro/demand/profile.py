"""Demand profiles: diurnal load curves and heavy-tail QoS flow mixes.

Subscriber load is not flat: traffic follows the sun, with a midday
shoulder and an evening peak in *local solar time*, so a constellation
always sees a moving longitude band of peak demand.  The curve here is a
two-Gaussian day shape (midday + evening) over a constant floor,
normalized so the evening peak is exactly 1.0 — offered loads scale
directly by it.

Per-user demand comes from heavy-tailed flow-size mixes per QoS class
(lognormal or bounded Pareto, the standard traffic shapes): the fluid
engine consumes each class's *analytic mean rate* (fluid approximation),
while :meth:`QosClassDemand.sample_flow_sizes` exposes the same
distribution for flow-level simulators and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

#: Diurnal curve shape: (center local hour, sigma hours, amplitude).
_DIURNAL_PEAKS: Tuple[Tuple[float, float, float], ...] = (
    (13.0, 3.5, 0.55),   # midday shoulder
    (20.5, 2.8, 1.0),    # evening peak
)
_DIURNAL_FLOOR = 0.25


def local_solar_hour(hour_utc: float, lon_deg) -> np.ndarray:
    """Local solar hour(s) for longitude(s), in ``[0, 24)``."""
    return np.asarray((hour_utc + np.asarray(lon_deg) / 15.0) % 24.0)


def _wrapped_hours(hours: np.ndarray, center: float) -> np.ndarray:
    """Signed hour distance to ``center`` on the 24 h circle."""
    return (hours - center + 12.0) % 24.0 - 12.0


def diurnal_factor(local_hour) -> np.ndarray:
    """Load multiplier at local solar hour(s); peak value is 1.0.

    Vectorized over any array shape; scalar input returns a 0-d array.
    """
    hours = np.asarray(local_hour, dtype=np.float64)
    raw = np.full_like(hours, _DIURNAL_FLOOR)
    for center, sigma, amplitude in _DIURNAL_PEAKS:
        delta = _wrapped_hours(hours, center)
        raw = raw + amplitude * np.exp(-(delta ** 2) / (2.0 * sigma ** 2))
    # Normalize so the curve's maximum over the day is exactly 1.
    probe = np.arange(0.0, 24.0, 1.0 / 60.0)
    peak = np.full_like(probe, _DIURNAL_FLOOR)
    for center, sigma, amplitude in _DIURNAL_PEAKS:
        delta = _wrapped_hours(probe, center)
        peak = peak + amplitude * np.exp(-(delta ** 2) / (2.0 * sigma ** 2))
    return raw / peak.max()


@dataclass(frozen=True)
class QosClassDemand:
    """One QoS class's share of users and its flow-size mix.

    Attributes:
        name: Service class name (matches the QoS router's classes).
        user_share: Fraction of subscribers in this class.
        flows_per_user_hour: Mean flow arrivals per active subscriber.
        size_distribution: ``"lognormal"`` or ``"pareto"`` (bounded
            below at ``pareto_min_mb``; requires ``pareto_alpha > 1``
            so the mean exists).
        mean_flow_mb: Mean flow size for the lognormal mix.
        sigma: Lognormal shape (heavier tail for larger sigma).
        pareto_alpha: Pareto tail index (``> 1``).
        pareto_min_mb: Pareto scale (minimum flow size).
    """

    name: str
    user_share: float
    flows_per_user_hour: float
    size_distribution: str = "lognormal"
    mean_flow_mb: float = 20.0
    sigma: float = 1.2
    pareto_alpha: float = 1.6
    pareto_min_mb: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.user_share <= 1.0:
            raise ValueError(
                f"user share must be in [0, 1], got {self.user_share}"
            )
        if self.flows_per_user_hour < 0.0:
            raise ValueError(
                f"flow rate must be >= 0, got {self.flows_per_user_hour}"
            )
        if self.size_distribution not in ("lognormal", "pareto"):
            raise ValueError(
                f"unknown size distribution {self.size_distribution!r}"
            )
        if self.size_distribution == "pareto" and self.pareto_alpha <= 1.0:
            raise ValueError(
                f"pareto alpha must be > 1 for a finite mean, "
                f"got {self.pareto_alpha}"
            )

    def mean_flow_bytes(self) -> float:
        """Analytic mean flow size in bytes."""
        if self.size_distribution == "pareto":
            mean_mb = (self.pareto_alpha * self.pareto_min_mb
                       / (self.pareto_alpha - 1.0))
        else:
            mean_mb = self.mean_flow_mb
        return mean_mb * 1e6

    def mean_offered_bps_per_user(self) -> float:
        """Mean offered rate per subscriber of this class, bits/s."""
        return (self.flows_per_user_hour * self.mean_flow_bytes() * 8.0
                / 3600.0)


#: Default subscriber mix: mostly best-effort lognormal traffic, a
#: Pareto-tailed standard class, and a small premium class of large
#: flows — shares match the per-user generator's historical QoS mix.
DEFAULT_QOS_MIX: Tuple[QosClassDemand, ...] = (
    QosClassDemand("best_effort", 0.6, 6.0, "lognormal",
                   mean_flow_mb=20.0, sigma=1.2),
    QosClassDemand("standard", 0.3, 8.0, "pareto",
                   pareto_alpha=1.6, pareto_min_mb=8.0),
    QosClassDemand("premium", 0.1, 4.0, "lognormal",
                   mean_flow_mb=120.0, sigma=1.0),
)


def validate_qos_mix(qos_mix: Sequence[QosClassDemand]) -> None:
    """Reject mixes whose user shares do not sum to 1."""
    total = sum(cls.user_share for cls in qos_mix)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"QoS mix user shares sum to {total}, not 1")


def mean_demand_bps_per_user(
        qos_mix: Sequence[QosClassDemand] = DEFAULT_QOS_MIX) -> float:
    """Mix-weighted mean offered rate per subscriber at peak (bits/s)."""
    validate_qos_mix(qos_mix)
    return sum(cls.user_share * cls.mean_offered_bps_per_user()
               for cls in qos_mix)


def offered_load_bps(users: np.ndarray, lon_deg: np.ndarray,
                     hour_utc: float,
                     qos_mix: Sequence[QosClassDemand] = DEFAULT_QOS_MIX,
                     ) -> np.ndarray:
    """Per-cell offered load at one UTC instant, bits/s.

    ``users`` and ``lon_deg`` are parallel per-cell arrays; each cell's
    load is its subscriber count times the mix-weighted mean per-user
    rate, scaled by the diurnal factor at the cell's local solar time.
    """
    users = np.asarray(users, dtype=np.float64)
    if users.shape != np.asarray(lon_deg).shape:
        raise ValueError("users and lon_deg must be parallel arrays")
    factor = diurnal_factor(local_solar_hour(hour_utc, lon_deg))
    return users * mean_demand_bps_per_user(qos_mix) * factor
