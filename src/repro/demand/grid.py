"""Population grids: users aggregated into equal-area ground cells.

The million-user traffic plane cannot afford one Python object per user.
This module aggregates subscribers into lat/lon ground cells — latitude
bands of equal spherical area (uniform spacing in ``sin(latitude)``),
each split into longitude columns scaled by ``cos(latitude)`` so cells
stay roughly square — and stores only per-cell counts.  A
:class:`PopulationGrid` holding a million users is three numpy arrays.

Cell populations come from the same distributions the per-user
generators in :mod:`repro.simulation.traffic` draw from: area-uniform
over the inhabited band (``uniform_land``) or clustered around the
paper's motivating underserved regions (``underserved``), rasterized
onto the grid and realized with one seeded multinomial draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.phy.rf import standard_ku_user_terminal
from repro.simulation.traffic import UNDERSERVED_REGIONS

#: Cell-id format shared by the grid, the fluid engine, and exports.
CELL_ID_FORMAT = "cell-{index:05d}"

#: Subscriber placement models :func:`population_grid` accepts.
DISTRIBUTIONS = ("uniform_land", "underserved")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a population grid.

    Attributes:
        bands: Equal-area latitude bands between ``±max_latitude_deg``
            (uniform spacing in ``sin(latitude)``).
        equator_columns: Longitude columns of the band whose center sits
            on the equator; other bands get ``round(equator_columns *
            cos(center_latitude))`` columns (at least one), keeping the
            cell aspect roughly constant.
        max_latitude_deg: Latitude cap of the inhabited band (matches
            :func:`repro.simulation.traffic.uniform_land_users`).
    """

    bands: int = 18
    equator_columns: int = 36
    max_latitude_deg: float = 70.0

    def __post_init__(self) -> None:
        if self.bands < 1:
            raise ValueError(f"need at least one band, got {self.bands}")
        if self.equator_columns < 1:
            raise ValueError(
                f"need at least one column, got {self.equator_columns}"
            )
        if not 0.0 < self.max_latitude_deg <= 89.0:
            raise ValueError(
                f"latitude cap must be in (0, 89], got {self.max_latitude_deg}"
            )

    def band_sin_edges(self) -> np.ndarray:
        """``bands + 1`` edges, uniform in ``sin(latitude)`` (equal area)."""
        cap = math.sin(math.radians(self.max_latitude_deg))
        return np.linspace(-cap, cap, self.bands + 1)

    def band_center_latitudes(self) -> np.ndarray:
        """Band center latitudes in degrees (area-midpoint of each band)."""
        edges = self.band_sin_edges()
        return np.degrees(np.arcsin((edges[:-1] + edges[1:]) / 2.0))

    def columns_per_band(self) -> np.ndarray:
        """Longitude columns in each band (cos-scaled, at least one)."""
        centers = np.radians(self.band_center_latitudes())
        columns = np.rint(self.equator_columns * np.cos(centers))
        return np.maximum(1, columns).astype(np.int64)


@dataclass
class PopulationGrid:
    """Users aggregated into ground cells (no per-user objects).

    Parallel arrays, one entry per cell:

    Attributes:
        spec: The grid geometry.
        lat_deg: Cell-center latitudes.
        lon_deg: Cell-center longitudes, in ``(-180, 180]``.
        area_weight: Cell area as a fraction of the gridded band's total
            (sums to 1).
        users: Subscriber count per cell.
    """

    spec: GridSpec
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    area_weight: np.ndarray
    users: np.ndarray
    _band_of_cell: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        lengths = {
            len(self.lat_deg), len(self.lon_deg), len(self.area_weight),
            len(self.users),
        }
        if len(lengths) != 1:
            raise ValueError("grid arrays must have equal length")
        if np.any(self.users < 0):
            raise ValueError("cell user counts must be >= 0")

    def __len__(self) -> int:
        return len(self.users)

    @property
    def total_users(self) -> int:
        return int(self.users.sum())

    @property
    def occupied(self) -> np.ndarray:
        """Indices of cells with at least one user, ascending."""
        return np.nonzero(self.users > 0)[0]

    def cell_ids(self, indices: Optional[Sequence[int]] = None) -> List[str]:
        """Cell ids for the given indices (default: occupied cells)."""
        if indices is None:
            indices = self.occupied
        return [CELL_ID_FORMAT.format(index=index)
                for index in np.asarray(indices, dtype=np.int64).tolist()]

    def terminals(self, home_providers: Sequence[str],
                  min_elevation_deg: float = 25.0) -> List[UserTerminal]:
        """One aggregate terminal per occupied cell, at the cell center.

        Home providers round-robin across occupied cells by cell index,
        mirroring the per-user generators: every operator has
        subscribers everywhere.  Every cell shares one (frozen)
        :func:`~repro.phy.rf.standard_ku_user_terminal`.
        """
        if not home_providers:
            raise ValueError("need at least one home provider")
        radio = standard_ku_user_terminal()
        occupied = self.occupied
        cells = zip(self.cell_ids(occupied), self.lat_deg[occupied].tolist(),
                    self.lon_deg[occupied].tolist())
        return [
            UserTerminal(
                user_id=cell_id, location=GeodeticPoint(lat, lon),
                home_provider=home_providers[slot % len(home_providers)],
                terminal=radio, min_elevation_deg=min_elevation_deg,
            )
            for slot, (cell_id, lat, lon) in enumerate(cells)
        ]


def _cell_geometry(spec: GridSpec):
    """Flattened (lat, lon, area_weight, band index) arrays for a spec."""
    centers = spec.band_center_latitudes()
    columns = spec.columns_per_band()
    band = np.repeat(np.arange(spec.bands, dtype=np.int64), columns)
    column = (np.arange(band.size, dtype=np.int64)
              - np.repeat(np.cumsum(columns) - columns, columns))
    width = 360.0 / columns
    lon = -180.0 + width[band] * (column + 0.5)
    # Every band has the same area; a band's cells split it evenly.
    band_area = 1.0 / spec.bands
    # Keep longitudes in (-180, 180].
    return (centers[band], ((lon + 180.0) % 360.0) - 180.0,
            (band_area / columns)[band], band)


def _underserved_weights(lat_deg: np.ndarray, lon_deg: np.ndarray,
                         spread_deg: float) -> np.ndarray:
    """Gaussian-blob weights around the paper's underserved regions.

    Longitude distance wraps across the ±180° seam, so the
    pacific-islands cluster loads cells on both sides of the antimeridian.
    """
    weights = np.zeros_like(lat_deg)
    for _name, center_lat, center_lon in UNDERSERVED_REGIONS:
        dlat = lat_deg - center_lat
        dlon = ((lon_deg - center_lon + 180.0) % 360.0) - 180.0
        weights += np.exp(-(dlat ** 2 + dlon ** 2)
                          / (2.0 * spread_deg ** 2))
    return weights


def population_grid(total_users: int, rng: np.random.Generator,
                    spec: Optional[GridSpec] = None,
                    distribution: str = "uniform_land",
                    spread_deg: float = 6.0) -> PopulationGrid:
    """Distribute ``total_users`` over a grid with one multinomial draw.

    Args:
        total_users: Modeled subscriber count (conserved exactly).
        rng: Seeded generator (the draw is the only randomness).
        spec: Grid geometry (default :class:`GridSpec`).
        distribution: ``"uniform_land"`` (area-uniform over the capped
            band, matching ``uniform_land_users``) or ``"underserved"``
            (clustered on the motivating regions, matching
            ``underserved_region_users``).
        spread_deg: Cluster spread for the underserved distribution.

    Returns:
        A grid whose cell counts sum to ``total_users``.
    """
    if total_users < 1:
        raise ValueError(f"need at least one user, got {total_users}")
    spec = spec or GridSpec()
    lat_deg, lon_deg, area, band = _cell_geometry(spec)
    if distribution == "uniform_land":
        weights = area.copy()
    elif distribution == "underserved":
        if not spread_deg > 0.0:
            raise ValueError(f"spread must be positive, got {spread_deg}")
        weights = _underserved_weights(lat_deg, lon_deg, spread_deg) * area
    else:
        raise ValueError(
            f"unknown distribution {distribution!r}; expected one of "
            f"{DISTRIBUTIONS}"
        )
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("distribution placed no weight on the grid")
    counts = rng.multinomial(total_users, weights / total)
    return PopulationGrid(spec=spec, lat_deg=lat_deg, lon_deg=lon_deg,
                          area_weight=area,
                          users=counts.astype(np.int64),
                          _band_of_cell=band)
