"""Tests for the ISL link abstraction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.isl.link import (
    BestLinkArrays,
    LinkTechnology,
    best_link_between,
    candidate_links,
    technology_of,
)
from repro.phy.modulation import achievable_rate_bps
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import (
    standard_ku_space_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)


class TestTechnologyClassification:
    def test_rf_bands(self):
        assert technology_of(standard_uhf_isl_terminal()) is LinkTechnology.RF_UHF
        assert technology_of(
            standard_sband_isl_terminal()
        ) is LinkTechnology.RF_SBAND

    def test_optical(self):
        assert technology_of(OpticalTerminal()) is LinkTechnology.OPTICAL

    def test_ground_band_is_not_isl(self):
        assert technology_of(standard_ku_space_terminal()) is None

    def test_is_rf_flags(self):
        assert LinkTechnology.RF_UHF.is_rf
        assert LinkTechnology.RF_SBAND.is_rf
        assert not LinkTechnology.OPTICAL.is_rf


class TestCandidateLinks:
    def test_only_common_technologies(self):
        a = [standard_uhf_isl_terminal(), standard_sband_isl_terminal()]
        b = [standard_sband_isl_terminal()]
        links = list(candidate_links("x", a, "y", b, 1000.0))
        assert {l.technology for l in links} == {LinkTechnology.RF_SBAND}

    def test_no_common_technology(self):
        a = [standard_uhf_isl_terminal()]
        b = [OpticalTerminal()]
        assert list(candidate_links("x", a, "y", b, 1000.0)) == []

    def test_all_three_when_fully_equipped(self):
        terms = [
            standard_uhf_isl_terminal(),
            standard_sband_isl_terminal(),
            OpticalTerminal(),
        ]
        links = list(candidate_links("x", terms, "y", terms, 1000.0))
        assert len(links) == 3

    def test_order_is_declaration_order(self):
        terms = [
            OpticalTerminal(),
            standard_sband_isl_terminal(),
            standard_uhf_isl_terminal(),
        ]
        links = candidate_links("x", terms, "y", terms, 1000.0)
        assert [link.technology for link in links] == list(LinkTechnology)

    def test_order_does_not_depend_on_hash_seed(self):
        # Set iteration follows the enum-name string hashes; seeds 0 and
        # 1 ordered the technologies differently when candidates came
        # from a set intersection.
        script = (
            "from repro.isl.link import candidate_links\n"
            "from repro.phy.optical import OpticalTerminal\n"
            "from repro.phy.rf import (standard_sband_isl_terminal,\n"
            "                          standard_uhf_isl_terminal)\n"
            "terms = [standard_uhf_isl_terminal(),\n"
            "         standard_sband_isl_terminal(), OpticalTerminal()]\n"
            "links = candidate_links('x', terms, 'y', terms, 1000.0)\n"
            "print([link.technology.name for link in links])\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        orders = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True,
                                    check=True)
            orders.append(result.stdout)
        assert orders[0] == orders[1]
        assert orders[0].strip() == str([tech.name for tech in LinkTechnology])


class TestBestLink:
    FULL = [
        standard_uhf_isl_terminal(),
        standard_sband_isl_terminal(),
        OpticalTerminal(),
    ]
    RF_ONLY = [standard_uhf_isl_terminal(), standard_sband_isl_terminal()]

    def test_optical_wins_when_available(self):
        link = best_link_between("a", self.FULL, "b", self.FULL, 2000.0)
        assert link.technology is LinkTechnology.OPTICAL

    def test_falls_back_to_rf(self):
        link = best_link_between("a", self.FULL, "b", self.RF_ONLY, 2000.0)
        assert link.technology.is_rf

    def test_prefer_optical_false_skips_laser(self):
        link = best_link_between("a", self.FULL, "b", self.FULL, 2000.0,
                                 prefer_optical=False)
        assert link.technology.is_rf

    def test_sband_beats_uhf(self):
        link = best_link_between("a", self.RF_ONLY, "b", self.RF_ONLY, 2000.0)
        assert link.technology is LinkTechnology.RF_SBAND

    def test_none_when_too_far(self):
        link = best_link_between("a", self.RF_ONLY, "b", self.RF_ONLY, 50000.0)
        assert link is None

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            best_link_between("a", self.FULL, "b", self.FULL, 0.0)

    def test_exact_capacity_tie_goes_to_first_declared(self):
        sband = standard_sband_isl_terminal()
        rf_capacity = best_link_between("a", [sband], "b", [sband],
                                        100.0).capacity_bps
        assert rf_capacity == achievable_rate_bps(100.0, 10e6)  # top MODCOD
        # A laser whose 2 bps/Hz ceiling equals the S-band rate exactly.
        laser = OpticalTerminal(data_bandwidth_hz=rf_capacity / 2.0)
        terms = [laser, sband]
        optical = best_link_between("a", [laser], "b", [laser], 100.0)
        assert optical.capacity_bps == rf_capacity
        link = best_link_between("a", terms, "b", terms, 100.0)
        assert link.technology is LinkTechnology.RF_SBAND
        (batched,) = BestLinkArrays(terms, terms, np.array([100.0])).link_arrays(
            np.array([0]), np.array([0]), np.array([1]), np.array([100.0]),
        ).links(["a", "b"])
        assert repr(batched) == repr(link)


class TestBestLinkArrays:
    FULL = TestBestLink.FULL

    def test_matches_scalar_per_edge(self):
        distances = [50.0, 900.0, 2000.0, 8000.0, 45000.0, 90000.0]
        for prefer_optical in (True, False):
            batch = BestLinkArrays(self.FULL, TestBestLink.RF_ONLY + [
                OpticalTerminal(tx_power_w=0.01)], np.array(distances),
                prefer_optical=prefer_optical)
            usable = np.flatnonzero(batch.usable)
            links = iter(batch.link_arrays(
                usable, np.zeros(usable.size), np.ones(usable.size),
                np.array(distances)[usable],
            ).links(["a", "b"]))
            for distance, closes in zip(distances, batch.usable):
                expected = best_link_between(
                    "a", self.FULL, "b", TestBestLink.RF_ONLY + [
                        OpticalTerminal(tx_power_w=0.01)],
                    distance, prefer_optical=prefer_optical)
                assert closes == (expected is not None)
                if closes:
                    assert repr(next(links)) == repr(expected)

    def test_no_common_technology_is_unusable(self):
        batch = BestLinkArrays([standard_uhf_isl_terminal()],
                               [OpticalTerminal()], np.array([0.0, 10.0]))
        assert not batch.usable.any()

    def test_rejects_zero_distance_even_for_skipped_optical(self):
        laser = [OpticalTerminal()]
        with pytest.raises(ValueError):
            BestLinkArrays(laser, laser, np.array([0.0]),
                           prefer_optical=False)


class TestIslLinkProperties:
    def _link(self, distance_km=3000.0):
        t = standard_sband_isl_terminal()
        return best_link_between("a", [t], "b", [t], distance_km)

    def test_propagation_delay(self):
        link = self._link(2997.92458)
        assert link.propagation_delay_s == pytest.approx(0.01)

    def test_usable_flag(self):
        assert self._link().usable
