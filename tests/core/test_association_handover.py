"""Tests for user association and satellite handover."""

import pytest

from repro.core.association import (
    AssociationProtocol,
    ReliableAssociationProtocol,
)
from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.handover import (
    HandoverScheme,
    HandoverSimulator,
    STARLINK_HANDOVER_INTERVAL_S,
    mask_contact_windows,
)
from repro.ground.user import UserTerminal
from repro.orbits.contact import ContactWindow
from repro.orbits.coordinates import GeodeticPoint
from repro.reliability.channel import LossyControlChannel
from repro.reliability.exchange import (
    NO_RETRY,
    CircuitBreakerRegistry,
    ReliableExchange,
    RetryPolicy,
)
from repro.security.auth import RadiusServer
from tests.fixtures import perfect_channel


@pytest.fixture
def nairobi_user():
    return UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "op-a",
                        min_elevation_deg=10.0)


@pytest.fixture
def auth_setup(medium_fleet):
    server = RadiusServer("acme", b"secret")
    server.enroll("alice", b"pw")
    protocol = AssociationProtocol(
        radius_servers={"acme": server},
        auth_anchors={"acme": "gs-nairobi"},
    )
    return server, protocol


class TestAssociation:
    def _evaluator(self, medium_fleet, time_s=0.0):
        evaluator = BeaconEvaluator(min_elevation_deg=10.0)
        for spec in medium_fleet:
            evaluator.receive(Beacon.from_spec(spec, time_s))
        return evaluator

    def test_successful_association(self, network, medium_fleet, auth_setup):
        _server, protocol = auth_setup
        user = UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)
        snap = network.snapshot(0.0)
        result = protocol.associate(
            user, snap, self._evaluator(medium_fleet), 0.0, b"pw"
        )
        assert result.succeeded
        assert result.satellite_id is not None
        assert result.auth_round_trip_s > 0.0
        assert user.associated_satellite is not None
        assert user.session_certificate is not None

    def test_wrong_password_rejected(self, network, medium_fleet, auth_setup):
        _server, protocol = auth_setup
        user = UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)
        snap = network.snapshot(0.0)
        result = protocol.associate(
            user, snap, self._evaluator(medium_fleet), 0.0, b"wrong"
        )
        assert not result.succeeded
        assert "rejected" in result.failure_reason
        assert user.associated_satellite is None

    def test_no_overhead_satellite(self, network, auth_setup):
        _server, protocol = auth_setup
        user = UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "acme")
        empty = BeaconEvaluator()
        snap = network.snapshot(0.0)
        result = protocol.associate(user, snap, empty, 0.0, b"pw")
        assert not result.succeeded
        assert "no usable satellite" in result.failure_reason

    def test_unknown_home_provider(self, network, medium_fleet):
        protocol = AssociationProtocol(radius_servers={}, auth_anchors={})
        user = UserTerminal("alice", GeodeticPoint(-1.29, 36.82),
                            "ghost-isp", min_elevation_deg=10.0)
        snap = network.snapshot(0.0)
        result = protocol.associate(
            user, snap, self._evaluator(medium_fleet), 0.0, b"pw"
        )
        assert not result.succeeded
        assert "no" in result.failure_reason and "anchor" in result.failure_reason

    def test_auth_time_dominated_by_isl_round_trip(self, network,
                                                   medium_fleet, auth_setup):
        _server, protocol = auth_setup
        user = UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)
        snap = network.snapshot(0.0)
        result = protocol.associate(
            user, snap, self._evaluator(medium_fleet), 0.0, b"pw"
        )
        assert result.auth_round_trip_s >= 2.0 * 780.0 / 299792.458


class FakeFaultMasks:
    """Stands in for OpenSpaceNetwork's fault-state view."""

    def __init__(self, satellites=(), stations=(), links=()):
        self.failed_satellites = frozenset(satellites)
        self.failed_stations = frozenset(stations)
        self.failed_links = frozenset(links)


class TestReliableAssociation:
    def _evaluator(self, medium_fleet, time_s=0.0):
        evaluator = BeaconEvaluator(min_elevation_deg=10.0)
        for spec in medium_fleet:
            evaluator.receive(Beacon.from_spec(spec, time_s))
        return evaluator

    def _user(self):
        return UserTerminal("alice", GeodeticPoint(-1.29, 36.82), "acme",
                            min_elevation_deg=10.0)

    def _reliable(self, server, channel, exchange, fallbacks=()):
        return ReliableAssociationProtocol(
            radius_servers={"acme": server},
            auth_anchors={"acme": "gs-nairobi"},
            channel=channel, exchange=exchange,
            fallback_anchors={"acme": list(fallbacks)},
        )

    def test_zero_loss_no_retry_matches_baseline_exactly(
            self, network, medium_fleet, auth_setup):
        # The acceptance contract: loss probability 0 + retries disabled
        # must be byte-identical to the perfect-delivery baseline.
        _server, baseline_protocol = auth_setup
        baseline = baseline_protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        reliable_protocol = self._reliable(
            server, perfect_channel(), ReliableExchange(NO_RETRY))
        reliable = reliable_protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert reliable.succeeded and baseline.succeeded
        assert reliable.satellite_id == baseline.satellite_id
        assert reliable.link_setup_s == baseline.link_setup_s
        assert reliable.auth_path_hops == baseline.auth_path_hops
        assert reliable.auth_round_trip_s == baseline.auth_round_trip_s
        assert reliable.auth_attempts == 1
        assert reliable.degraded_mode == ""

    def test_none_channel_falls_through_to_baseline(self, network,
                                                    medium_fleet):
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        protocol = ReliableAssociationProtocol(
            radius_servers={"acme": server},
            auth_anchors={"acme": "gs-nairobi"},
        )
        result = protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert result.succeeded
        assert result.auth_attempts == 1

    def test_rejects_no_candidates(self):
        with pytest.raises(ValueError, match="max_candidates"):
            ReliableAssociationProtocol(
                radius_servers={}, auth_anchors={}, max_candidates=0)

    def test_lossy_channel_retries_and_succeeds(self, network, medium_fleet):
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        protocol = self._reliable(
            server, LossyControlChannel(base_loss=0.3, seed=5),
            ReliableExchange(RetryPolicy(max_attempts=8,
                                         jitter_fraction=0.0)),
        )
        result = protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert result.succeeded
        assert result.auth_attempts >= 1

    def test_dead_primary_anchor_falls_back_to_alternate(
            self, network, medium_fleet):
        # A fault mask severing the primary anchor makes its exchange fail
        # even though the (stale) snapshot still shows a path; the alternate
        # anchor of the same provider serves the association instead.
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        channel = perfect_channel(
            network=FakeFaultMasks(stations=("gs-nairobi",)))
        protocol = self._reliable(
            server, channel,
            ReliableExchange(RetryPolicy(max_attempts=2, timeout_s=0.1,
                                         jitter_fraction=0.0)),
            fallbacks=("gs-capetown",),
        )
        result = protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert result.succeeded
        assert result.degraded_mode == "alternate_anchor"
        assert result.auth_attempts > 1

    def test_all_anchors_dead_reports_failure_not_crash(
            self, network, medium_fleet):
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        channel = LossyControlChannel(
            base_loss=1.0, seed=1,
            network=FakeFaultMasks(stations=("gs-nairobi",)))
        protocol = self._reliable(
            server, channel,
            ReliableExchange(RetryPolicy(max_attempts=2, timeout_s=0.1,
                                         jitter_fraction=0.0)),
        )
        result = protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert not result.succeeded
        assert "failed" in result.failure_reason
        assert result.auth_attempts > 0

    def test_breaker_open_skips_attempts(self, network, medium_fleet):
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        registry = CircuitBreakerRegistry(failure_threshold=1,
                                          recovery_time_s=1e9)
        channel = LossyControlChannel(base_loss=1.0, seed=1)
        protocol = self._reliable(
            server, channel,
            ReliableExchange(RetryPolicy(max_attempts=2, timeout_s=0.1,
                                         jitter_fraction=0.0), registry),
        )
        snap = network.snapshot(0.0)
        first = protocol.associate(self._user(), snap,
                                   self._evaluator(medium_fleet), 0.0, b"pw")
        second = protocol.associate(self._user(), snap,
                                    self._evaluator(medium_fleet), 0.0, b"pw")
        assert not first.succeeded and not second.succeeded
        assert second.auth_attempts < first.auth_attempts
        assert len(registry.open_keys) > 0

    def test_retransmitted_auth_does_not_double_issue(self, network,
                                                      medium_fleet):
        # Retries live below the RADIUS layer: however many channel
        # attempts the exchange needed, exactly one request is handled.
        server = RadiusServer("acme", b"secret")
        server.enroll("alice", b"pw")
        protocol = self._reliable(
            server, LossyControlChannel(base_loss=0.4, seed=9),
            ReliableExchange(RetryPolicy(max_attempts=10,
                                         jitter_fraction=0.0)),
        )
        result = protocol.associate(
            self._user(), network.snapshot(0.0),
            self._evaluator(medium_fleet), 0.0, b"pw",
        )
        assert result.succeeded
        assert server.accept_count == 1


def windows_chain(count, duration_s=120.0, overlap_s=10.0):
    """A chain of contact windows with fixed pairwise overlap."""
    windows = []
    start = 0.0
    for i in range(count):
        windows.append(ContactWindow(i, start, start + duration_s, 1.0))
        start += duration_s - overlap_s
    return windows


class TestHandover:
    def test_predictive_faster_than_reauth(self):
        windows = windows_chain(10)
        sim = HandoverSimulator()
        timelines = sim.compare_schemes(windows, 0.0, 1000.0)
        predictive = timelines["predictive"]
        reauth = timelines["reauthenticate"]
        assert predictive.total_interruption_s < reauth.total_interruption_s
        assert predictive.availability > reauth.availability

    def test_handover_counts_match_schedule(self):
        windows = windows_chain(5)
        sim = HandoverSimulator()
        timeline = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 560.0)
        assert timeline.handover_count == 4

    def test_overlap_enables_preestablishment(self):
        sim = HandoverSimulator(successor_notice_s=5.0, switch_s=0.002,
                                link_setup_s=0.020)
        generous = sim.run(windows_chain(5, overlap_s=20.0),
                           HandoverScheme.PREDICTIVE, 0.0, 560.0)
        # 4 handovers at switch cost only + initial association.
        assert generous.total_interruption_s == pytest.approx(
            sim.link_setup_s + sim.auth_round_trip_s + 4 * 0.002
        )

    def test_no_overlap_pays_link_setup(self):
        sim = HandoverSimulator(successor_notice_s=5.0)
        tight = sim.run(windows_chain(5, overlap_s=1.0),
                        HandoverScheme.PREDICTIVE, 0.0, 560.0)
        assert tight.total_interruption_s == pytest.approx(
            sim.link_setup_s + sim.auth_round_trip_s
            + 4 * sim.link_setup_s
        )

    def test_reauth_pays_full_cost_every_time(self):
        sim = HandoverSimulator()
        timeline = sim.run(windows_chain(5), HandoverScheme.REAUTHENTICATE,
                           0.0, 560.0)
        per_handover = sim.link_setup_s + sim.auth_round_trip_s
        assert timeline.total_interruption_s == pytest.approx(
            5 * per_handover
        )
        assert all(e.reauthenticated for e in timeline.events)

    def test_coverage_gap_accounting(self):
        windows = [
            ContactWindow(0, 0.0, 100.0, 1.0),
            ContactWindow(1, 200.0, 300.0, 1.0),
        ]
        sim = HandoverSimulator()
        timeline = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 300.0)
        assert timeline.coverage_gap_s == pytest.approx(100.0)

    def test_trailing_gap_counted(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        sim = HandoverSimulator()
        timeline = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 250.0)
        assert timeline.coverage_gap_s == pytest.approx(150.0)

    def test_no_windows_all_gap(self):
        sim = HandoverSimulator()
        timeline = sim.run([], HandoverScheme.PREDICTIVE, 0.0, 100.0)
        assert timeline.coverage_gap_s == 100.0
        assert timeline.availability == 0.0

    def test_longest_window_preferred(self):
        # Two overlapping windows: the scheme should ride the longer one.
        windows = [
            ContactWindow(0, 0.0, 100.0, 1.0),
            ContactWindow(1, 0.0, 400.0, 1.0),
        ]
        sim = HandoverSimulator()
        timeline = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 400.0)
        assert timeline.events[0].to_satellite == 1
        assert timeline.handover_count == 0

    def test_starlink_interval_constant(self):
        assert STARLINK_HANDOVER_INTERVAL_S == 15.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            HandoverSimulator().run([], HandoverScheme.PREDICTIVE, 10.0, 10.0)


class TestMaskContactWindows:
    def test_reselect_with_dead_successor_does_not_raise(self):
        windows = [
            ContactWindow(0, 0.0, 300.0, 1.0),
            ContactWindow(1, 100.0, 400.0, 1.0),
        ]
        masked = mask_contact_windows(windows, [(1, 0.0, float("inf"))])
        timeline = HandoverSimulator().run(masked, HandoverScheme.PREDICTIVE,
                                           0.0, 400.0)
        assert timeline.events[-1].to_satellite == 0
        assert timeline.coverage_gap_s == pytest.approx(100.0)

    def test_reselect_all_outages_degrades_to_gap(self):
        outages = [(i, 0.0, float("inf")) for i in range(3)]
        masked = mask_contact_windows(windows_chain(3), outages)
        timeline = HandoverSimulator().run(masked, HandoverScheme.PREDICTIVE,
                                           0.0, 340.0)
        assert timeline.events == []
        assert timeline.coverage_gap_s == pytest.approx(340.0)

    def test_no_outages_identity(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        assert mask_contact_windows(windows, []) == windows

    def test_outage_clips_window_head(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        masked = mask_contact_windows(windows, [(0, 0.0, 40.0)])
        assert [(w.start_s, w.end_s) for w in masked] == [(40.0, 100.0)]

    def test_outage_splits_window(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        masked = mask_contact_windows(windows, [(0, 30.0, 60.0)])
        assert [(w.start_s, w.end_s) for w in masked] == [
            (0.0, 30.0), (60.0, 100.0)
        ]
        assert all(w.satellite_index == 0 for w in masked)
        assert all(w.max_elevation_rad == 1.0 for w in masked)

    def test_covering_outage_removes_window(self):
        windows = [ContactWindow(0, 10.0, 90.0, 1.0)]
        assert mask_contact_windows(windows, [(0, 0.0, 100.0)]) == []

    def test_permanent_loss_truncates_everything_after(self):
        windows = [
            ContactWindow(0, 0.0, 100.0, 1.0),
            ContactWindow(0, 200.0, 300.0, 1.0),
        ]
        masked = mask_contact_windows(windows, [(0, 50.0, float("inf"))])
        assert [(w.start_s, w.end_s) for w in masked] == [(0.0, 50.0)]

    def test_outage_only_hits_its_satellite(self):
        windows = [
            ContactWindow(0, 0.0, 100.0, 1.0),
            ContactWindow(1, 0.0, 100.0, 1.0),
        ]
        masked = mask_contact_windows(windows, [(0, 0.0, 200.0)])
        assert [w.satellite_index for w in masked] == [1]

    def test_rejects_inverted_outage(self):
        with pytest.raises(ValueError):
            mask_contact_windows([], [(0, 50.0, 40.0)])

    def test_outage_exactly_spanning_window_removes_it(self):
        # Boundary case: outage start == window start and end == window
        # end must leave no zero-length slivers behind.
        windows = [ContactWindow(0, 10.0, 90.0, 1.0)]
        assert mask_contact_windows(windows, [(0, 10.0, 90.0)]) == []

    def test_outage_touching_edges_keeps_window(self):
        # Abutting (not overlapping) outages leave the window whole.
        windows = [ContactWindow(0, 10.0, 90.0, 1.0)]
        masked = mask_contact_windows(
            windows, [(0, 0.0, 10.0), (0, 90.0, 100.0)])
        assert [(w.start_s, w.end_s) for w in masked] == [(10.0, 90.0)]

    def test_inf_outage_starting_before_window_removes_it(self):
        windows = [
            ContactWindow(0, 100.0, 200.0, 1.0),
            ContactWindow(0, 300.0, 400.0, 1.0),
        ]
        assert mask_contact_windows(windows, [(0, 50.0, float("inf"))]) == []

    def test_inf_outage_mid_window_keeps_leading_piece(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        masked = mask_contact_windows(windows, [(0, 60.0, float("inf"))])
        assert [(w.start_s, w.end_s) for w in masked] == [(0.0, 60.0)]

    def test_overlapping_outages_on_one_satellite_union(self):
        # Two overlapping outages mask their union, not just one of them.
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        masked = mask_contact_windows(
            windows, [(0, 20.0, 60.0), (0, 40.0, 80.0)])
        assert [(w.start_s, w.end_s) for w in masked] == [
            (0.0, 20.0), (80.0, 100.0)
        ]

    def test_overlapping_outages_order_independent(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        forward = mask_contact_windows(
            windows, [(0, 20.0, 60.0), (0, 40.0, 80.0)])
        backward = mask_contact_windows(
            windows, [(0, 40.0, 80.0), (0, 20.0, 60.0)])
        assert forward == backward

    def test_nested_outage_subsumed(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        masked = mask_contact_windows(
            windows, [(0, 10.0, 90.0), (0, 30.0, 40.0)])
        assert [(w.start_s, w.end_s) for w in masked] == [
            (0.0, 10.0), (90.0, 100.0)
        ]

    def test_zero_length_outage_is_noop(self):
        windows = [ContactWindow(0, 0.0, 100.0, 1.0)]
        assert mask_contact_windows(windows, [(0, 50.0, 50.0)]) == windows

    def test_masked_schedule_forces_extra_handover(self):
        # Losing the serving satellite mid-pass forces re-selection onto
        # the overlapping successor.
        windows = [
            ContactWindow(0, 0.0, 300.0, 1.0),
            ContactWindow(1, 100.0, 400.0, 1.0),
        ]
        sim = HandoverSimulator()
        baseline = sim.run(windows, HandoverScheme.PREDICTIVE, 0.0, 400.0)
        masked = mask_contact_windows(windows, [(0, 150.0, 400.0)])
        rerun = sim.run(masked, HandoverScheme.PREDICTIVE, 0.0, 400.0)
        assert rerun.availability <= baseline.availability
        assert rerun.events[-1].to_satellite == 1
