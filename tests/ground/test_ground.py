"""Tests for the ground segment: stations and users."""

import numpy as np
import pytest

from repro.ground.station import GroundStation, default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint


class TestGroundStation:
    def _station(self, **kwargs):
        return GroundStation(
            station_id="gs-test",
            location=GeodeticPoint(0.0, 0.0, 0.0),
            owner="op-a",
            **kwargs,
        )

    def test_position_rotates_with_earth(self):
        station = self._station()
        p0 = station.position_eci(0.0)
        p1 = station.position_eci(3600.0)
        assert not np.allclose(p0, p1)
        assert np.linalg.norm(p0) == pytest.approx(np.linalg.norm(p1))

    def test_rejects_bad_backhaul(self):
        with pytest.raises(ValueError):
            self._station(backhaul_capacity_bps=0.0)


class TestDefaultNetwork:
    def test_fifteen_stations(self):
        stations = default_station_network()
        assert len(stations) == 15

    def test_unique_ids_multiple_owners(self):
        stations = default_station_network()
        ids = [s.station_id for s in stations]
        assert len(set(ids)) == len(ids)
        assert len({s.owner for s in stations}) >= 5

    def test_global_spread(self):
        stations = default_station_network()
        lats = [s.location.latitude_deg for s in stations]
        assert min(lats) < -30.0
        assert max(lats) > 60.0


class TestUserTerminal:
    def test_position_on_surface(self):
        user = UserTerminal("u1", GeodeticPoint(45.0, 90.0), "op-a")
        assert np.linalg.norm(user.position_eci(0.0)) == pytest.approx(
            6367.5, abs=25.0
        )


class TestRainFade:
    def test_rejects_negative_rain(self):
        with pytest.raises(ValueError, match="rain rate"):
            GroundStation(
                station_id="wet", location=GeodeticPoint(0.0, 0.0),
                owner="op", rain_rate_mm_h=-1.0,
            )

    def test_heavy_rain_kills_low_elevation_links(self):
        """Tropical downpour breaks low-elevation Ku links entirely."""
        import math
        from repro.phy.modulation import achievable_rate_bps
        from repro.phy.rf import RFTerminal, rf_link_budget, \
            standard_ku_space_terminal
        space = standard_ku_space_terminal()
        gateway = RFTerminal(band_name="ku_downlink", tx_power_w=50.0,
                             dish_diameter_m=3.5, noise_temp_k=180.0)
        budget = rf_link_budget(space, gateway, 1500.0,
                                elevation_rad=math.radians(10.0),
                                rain_rate_mm_h=60.0)
        assert achievable_rate_bps(budget.snr_db, budget.bandwidth_hz) == 0.0

    def test_rainy_station_loses_low_passes_in_network(self, medium_fleet):
        """A drenched gateway keeps only high-elevation contacts."""
        from repro.core.network import OpenSpaceNetwork
        dry = GroundStation("gs-dry", GeodeticPoint(-1.3, 36.8), "op")
        wet = GroundStation("gs-wet", GeodeticPoint(-1.3, 36.8), "op",
                            rain_rate_mm_h=60.0)
        dry_net = OpenSpaceNetwork(medium_fleet, [dry])
        wet_net = OpenSpaceNetwork(medium_fleet, [wet])
        dry_links = dry_net.snapshot(0.0).graph.degree("gs-dry")
        wet_links = wet_net.snapshot(0.0).graph.degree("gs-wet")
        assert wet_links <= dry_links
