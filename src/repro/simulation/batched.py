"""Batched-array epoch helpers for the figure2 engine.

The figure2 batched engine runs every trial's every epoch through one
block-diagonal shortest-path call.  This module holds the two array
helpers it needs: a fixed ground site's ECI track over an epoch grid,
and the merge of per-trial ``(sats, epochs, 3)`` position tensors along
the epoch axis.

Both preserve the repo's reproducibility contract: a batched pass must
be **bitwise identical** to the scalar walk it replaces (see DESIGN.md,
"Array pipeline invariants"), so they run the same float64 operations on
the same values as the scalar paths — never a
mathematically-equivalent-but-differently-rounded formulation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci

# Stays importable from here, where benchmarks/e2e/tracer.py looks it up.
from repro.orbits.kepler import batch_positions  # noqa: F401


def ground_eci_track(site: GeodeticPoint, times_s) -> np.ndarray:
    """A fixed ground site's ECI positions over an epoch grid, ``(E, 3)``.

    Deliberately loops :func:`~repro.orbits.coordinates.ecef_to_eci` per
    epoch instead of calling the vectorized ``ecef_to_eci_over``: the
    batched helper reduces GMST modulo 2*pi before the trig, so its
    rotations differ from the scalar path's in the last ulp — and the
    digest gates demand the scalar bits.  Epoch grids are tiny (a few
    entries per trial), so the loop costs nothing.
    """
    ecef = site.ecef()
    times = np.asarray(times_s, dtype=float)
    return np.stack([ecef_to_eci(ecef, float(t)) for t in times])


def merge_trial_epochs(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-trial ``(N, E, 3)`` position tensors along epochs.

    The figure2 batched engine runs every trial's every epoch through
    one block-diagonal shortest-path call; this produces the merged
    ``(N, trials * E, 3)`` tensor whose epoch block ``t`` is trial
    ``t``'s tensor, bit for bit (``np.concatenate`` copies values
    unchanged).
    """
    if not tensors:
        raise ValueError("need at least one trial tensor")
    return np.concatenate(list(tensors), axis=1)
