"""Batched-array epoch helpers for the Figure 2(b) sweep.

A Figure 2(b) sweep point runs every trial's every epoch through one
block-diagonal shortest-path call.  This module holds the ground-side
array helper it needs: a fixed ground site's ECI track over an epoch
grid.

The helper keeps the repo's reproducibility contract: a batched pass
must be **bitwise identical** to the per-epoch oracle that recomputes
each epoch on its own (see DESIGN.md, "Array pipeline invariants"), so
it runs the same float64 operations on the same values as a per-epoch
solve — never a mathematically-equivalent-but-differently-rounded
formulation.
"""

from __future__ import annotations

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci

# Stays importable from here, where benchmarks/e2e/tracer.py looks it up.
from repro.orbits.kepler import batch_positions  # noqa: F401


def ground_eci_track(site: GeodeticPoint, times_s) -> np.ndarray:
    """A fixed ground site's ECI positions over an epoch grid, ``(E, 3)``.

    Deliberately loops :func:`~repro.orbits.coordinates.ecef_to_eci` per
    epoch instead of calling the vectorized ``ecef_to_eci_over``: the
    batched helper rotates component-wise (``cos * x - sin * y``), not
    through the matrix product, so its rotations differ from a
    per-epoch ``ecef_to_eci`` in the last ulp — and the oracle tests
    demand the per-epoch bits.  Epoch grids are
    tiny (a few entries per trial), so the loop costs nothing.
    """
    ecef = site.ecef()
    times = np.asarray(times_s, dtype=float)
    return np.stack([ecef_to_eci(ecef, float(t)) for t in times])
