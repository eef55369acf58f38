"""The figure2 array helpers must match their scalar walks bit for bit.

``repro.simulation.batched`` holds the ground-track and trial-merge
helpers behind the figure2 batched engine, so each is held to the
reproducibility contract: identical float64 bits to the scalar path it
replaces, not just numerical closeness.
"""

import numpy as np
import pytest

from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.simulation.batched import ground_eci_track, merge_trial_epochs

SITE = GeodeticPoint(-1.29, 36.82)  # Nairobi, as in the figure2 driver


class TestGroundEciTrack:
    def test_bitwise_matches_scalar_rotation(self):
        times = np.linspace(0.0, 86400.0, 6, endpoint=False)
        track = ground_eci_track(SITE, times)
        assert track.shape == (6, 3)
        ecef = SITE.ecef()
        for e, t in enumerate(times):
            assert np.array_equal(track[e], ecef_to_eci(ecef, float(t)))


class TestMergeTrialEpochs:
    def test_blocks_preserved_bitwise(self):
        rng = np.random.default_rng(3)
        trials = [rng.normal(size=(4, 3, 3)) for _ in range(3)]
        merged = merge_trial_epochs(trials)
        assert merged.shape == (4, 9, 3)
        for t, tensor in enumerate(trials):
            assert np.array_equal(merged[:, 3 * t:3 * (t + 1), :], tensor)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_trial_epochs([])
