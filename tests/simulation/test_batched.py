"""The figure2 ground-track helper must match per-epoch rotations bit
for bit.

``repro.simulation.batched.ground_eci_track`` feeds the Figure 2(b)
relay kernel, so it is held to the reproducibility contract: identical
float64 bits to a per-epoch ``ecef_to_eci``, not just numerical
closeness.
"""

import numpy as np

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.simulation.batched import ground_eci_track

SITE = GeodeticPoint(-1.29, 36.82)  # Nairobi, as in the figure2 driver


class TestGroundEciTrack:
    def test_bitwise_matches_scalar_rotation(self):
        times = np.linspace(0.0, 86400.0, 6, endpoint=False)
        track = ground_eci_track(SITE, times)
        assert track.shape == (6, 3)
        ecef = SITE.ecef()
        for e, t in enumerate(times):
            assert np.array_equal(track[e], ecef_to_eci(ecef, float(t)))
