"""Walker constellation generators.

The paper's Figure 2 uses an Iridium-like Walker Star constellation
(66 satellites, 780 km altitude, 6 near-polar planes) and cites the CBO
reference design (72 satellites, 12 per plane in 6 planes at 80 degrees,
about 95% global coverage).  Both are provided as ready-made factories, plus
general Walker Delta/Star generators and a randomized-constellation helper
matching the paper's "randomly distributing satellites' orbital paths"
methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.orbits.constants import (
    CBO_INCLINATION_DEG,
    CBO_PLANE_COUNT,
    CBO_SATELLITE_COUNT,
    IRIDIUM_ALTITUDE_KM,
    IRIDIUM_INCLINATION_DEG,
    IRIDIUM_PLANE_COUNT,
    IRIDIUM_SATELLITE_COUNT,
)
from repro.orbits.elements import OrbitalElements
from repro.orbits.kepler import KeplerFleet, batch_positions

_TWO_PI = 2.0 * math.pi


@dataclass
class WalkerConstellation:
    """A constellation as a list of per-satellite orbital elements.

    Attributes:
        elements: One :class:`OrbitalElements` per satellite, ordered
            plane-major (all satellites of plane 0 first, then plane 1, ...).
        plane_count: Number of orbital planes.
        satellites_per_plane: Satellites in each plane.
        name: Human-readable label used in experiment output.
    """

    elements: List[OrbitalElements]
    plane_count: int
    satellites_per_plane: int
    name: str = "walker"
    _fleet: Optional[KeplerFleet] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[OrbitalElements]:
        return iter(self.elements)

    def positions_at(self, time_s: float) -> np.ndarray:
        """ECI positions of every satellite at ``time_s``; shape (N, 3)."""
        return self.positions_over(time_s)[:, 0, :]

    def positions_over(self, times_s) -> np.ndarray:
        """ECI positions over a whole time grid; shape ``(N, T, 3)``.

        One :func:`~repro.orbits.kepler.batch_positions` pass over the
        constellation's :class:`~repro.orbits.kepler.KeplerFleet`, which
        is built once and stacks its constants on the first call.
        """
        if self._fleet is None:
            self._fleet = KeplerFleet(self.elements)
        return batch_positions(self._fleet, times_s)

    def subset(self, count: int) -> "WalkerConstellation":
        """The first ``count`` satellites, preserving plane bookkeeping."""
        if not 0 < count <= len(self.elements):
            raise ValueError(
                f"subset size {count} out of range 1..{len(self.elements)}"
            )
        return WalkerConstellation(
            elements=self.elements[:count],
            plane_count=self.plane_count,
            satellites_per_plane=self.satellites_per_plane,
            name=f"{self.name}-subset{count}",
        )


def _walker(total_satellites: int, plane_count: int, phasing: int,
            altitude_km: float, inclination_deg: float, raan_spread_rad: float,
            name: str, epoch_s: float = 0.0) -> WalkerConstellation:
    """Shared Walker generator; ``raan_spread_rad`` is pi (Star) or 2pi (Delta)."""
    if total_satellites <= 0:
        raise ValueError(f"need at least one satellite, got {total_satellites}")
    if plane_count <= 0 or total_satellites % plane_count != 0:
        raise ValueError(
            f"plane count {plane_count} must evenly divide {total_satellites}"
        )
    per_plane = total_satellites // plane_count
    if not 0 <= phasing < plane_count:
        raise ValueError(f"phasing {phasing} must be in [0, {plane_count})")
    inclination = math.radians(inclination_deg)
    elements = []
    for plane in range(plane_count):
        raan = raan_spread_rad * plane / plane_count
        for slot in range(per_plane):
            # Walker phasing: adjacent planes are offset by F * 2pi / T.
            anomaly = (
                _TWO_PI * slot / per_plane
                + _TWO_PI * phasing * plane / total_satellites
            )
            elements.append(
                OrbitalElements.circular(
                    altitude_km=altitude_km,
                    inclination_rad=inclination,
                    raan_rad=raan,
                    mean_anomaly_rad=anomaly,
                    epoch_s=epoch_s,
                )
            )
    return WalkerConstellation(
        elements=elements,
        plane_count=plane_count,
        satellites_per_plane=per_plane,
        name=name,
    )


def walker_star(total_satellites: int, plane_count: int, phasing: int = 0,
                altitude_km: float = IRIDIUM_ALTITUDE_KM,
                inclination_deg: float = IRIDIUM_INCLINATION_DEG,
                epoch_s: float = 0.0) -> WalkerConstellation:
    """A Walker Star constellation (planes spread over 180 degrees of RAAN).

    Walker Star designs, like Iridium's, spread ascending nodes over half
    the equator so ascending and descending passes interleave — the paper
    highlights them for the relative simplicity of intra- and inter-plane
    ISLs.
    """
    return _walker(
        total_satellites, plane_count, phasing, altitude_km, inclination_deg,
        raan_spread_rad=math.pi, name=f"walker-star-{total_satellites}/{plane_count}",
        epoch_s=epoch_s,
    )


def walker_delta(total_satellites: int, plane_count: int, phasing: int = 0,
                 altitude_km: float = 550.0, inclination_deg: float = 53.0,
                 epoch_s: float = 0.0) -> WalkerConstellation:
    """A Walker Delta constellation (planes spread over the full equator).

    Walker Delta is the Starlink-style layout; it is provided as the
    monolithic-megaconstellation comparator in the federation experiments.
    """
    return _walker(
        total_satellites, plane_count, phasing, altitude_km, inclination_deg,
        raan_spread_rad=_TWO_PI,
        name=f"walker-delta-{total_satellites}/{plane_count}",
        epoch_s=epoch_s,
    )


def iridium_like(epoch_s: float = 0.0) -> WalkerConstellation:
    """The paper's reference constellation: 66 sats, 780 km, 6 polar planes."""
    constellation = walker_star(
        total_satellites=IRIDIUM_SATELLITE_COUNT,
        plane_count=IRIDIUM_PLANE_COUNT,
        phasing=1,
        altitude_km=IRIDIUM_ALTITUDE_KM,
        inclination_deg=IRIDIUM_INCLINATION_DEG,
        epoch_s=epoch_s,
    )
    constellation.name = "iridium-like"
    return constellation


def cbo_reference(altitude_km: float = IRIDIUM_ALTITUDE_KM,
                  epoch_s: float = 0.0) -> WalkerConstellation:
    """The CBO 95%-coverage reference: 72 sats, 12 per plane, 6 planes, 80 deg."""
    constellation = walker_star(
        total_satellites=CBO_SATELLITE_COUNT,
        plane_count=CBO_PLANE_COUNT,
        phasing=1,
        altitude_km=altitude_km,
        inclination_deg=CBO_INCLINATION_DEG,
        epoch_s=epoch_s,
    )
    constellation.name = "cbo-reference"
    return constellation


def random_constellation(satellite_count: int, rng: np.random.Generator,
                         altitude_km: float = IRIDIUM_ALTITUDE_KM,
                         inclination_deg: Optional[float] = None,
                         epoch_s: float = 0.0) -> WalkerConstellation:
    """Satellites with randomly distributed orbital paths.

    Matches the paper's Figure 2(b)/(c) methodology: "randomly distributing
    satellites' orbital paths".  Each satellite gets a uniform random RAAN
    and mean anomaly; inclination defaults to near-polar (so coverage can
    reach high latitudes, as in the Iridium-like design) unless fixed.

    Args:
        satellite_count: Number of satellites to generate.
        rng: Seeded NumPy generator — all experiment randomness flows
            through explicit generators for reproducibility.
        altitude_km: Circular orbit altitude.
        inclination_deg: Fixed inclination, or None to draw uniformly from
            [70, 100] degrees (near-polar band).
        epoch_s: Epoch assigned to every satellite.
    """
    if satellite_count <= 0:
        raise ValueError(f"need at least one satellite, got {satellite_count}")
    # One draw for the whole fleet.  The generator fills the array row by
    # row with the same ``low + (high - low) * u`` a scalar call computes,
    # so row i holds the (inclination,) RAAN and mean anomaly that
    # per-satellite scalar draws would give satellite i.
    if inclination_deg is None:
        draws = rng.uniform((70.0, 0.0, 0.0), (100.0, _TWO_PI, _TWO_PI),
                            size=(satellite_count, 3)).tolist()
    else:
        draws = [[inclination_deg, raan, anomaly] for raan, anomaly
                 in rng.uniform(0.0, _TWO_PI,
                                size=(satellite_count, 2)).tolist()]
    elements = [
        OrbitalElements.circular(
            altitude_km=altitude_km,
            inclination_rad=math.radians(incl),
            raan_rad=raan,
            mean_anomaly_rad=anomaly,
            epoch_s=epoch_s,
        )
        for incl, raan, anomaly in draws
    ]
    return WalkerConstellation(
        elements=elements,
        plane_count=satellite_count,
        satellites_per_plane=1,
        name=f"random-{satellite_count}",
    )


def merge_constellations(parts: Sequence[WalkerConstellation],
                         name: str = "merged") -> WalkerConstellation:
    """Concatenate several constellations into one federated fleet.

    Plane bookkeeping degenerates to one-satellite-per-plane because the
    merged fleet generally has no common plane structure.
    """
    if not parts:
        raise ValueError("need at least one constellation to merge")
    elements: List[OrbitalElements] = []
    for part in parts:
        elements.extend(part.elements)
    return WalkerConstellation(
        elements=elements,
        plane_count=len(elements),
        satellites_per_plane=1,
        name=name,
    )
