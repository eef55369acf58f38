"""Tests for the user-session simulator."""

import math

import pytest

from repro.core.handover import HandoverScheme
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.simulation.sessionsim import SessionSimulator, SessionTrace


@pytest.fixture(scope="module")
def session(network):
    user = UserTerminal("session-user", GeodeticPoint(-1.29, 36.82),
                        "acme", min_elevation_deg=10.0)
    simulator = SessionSimulator(network)
    return simulator.run(user, 0.0, 1800.0,
                         epoch_s=60.0)[HandoverScheme.PREDICTIVE]


class TestSessionTrace:
    def test_sample_count(self, session):
        assert len(session.samples) == 30

    def test_mostly_served(self, session):
        assert len(session.served_samples) > 20

    def test_latency_stats_sane(self, session):
        stats = session.latency_stats_ms()
        assert 3.0 < stats["p50"] < 150.0
        assert stats["p95"] >= stats["p50"]

    def test_serving_changes_over_half_hour(self, session):
        # LEO passes last minutes; 30 min must force several serving
        # changes.  Changes across a coverage gap count as
        # re-associations (not handovers), so count both.
        serving = [s.serving_satellite for s in session.served_samples]
        assert len(set(serving)) >= 3
        assert session.handover_count >= 1

    def test_availability_high(self, session):
        assert session.availability > 0.6

    def test_serving_satellite_changes_tracked(self, session):
        serving = [
            s.serving_satellite for s in session.served_samples
        ]
        assert len(set(serving)) >= 2

    def test_bottleneck_positive_when_served(self, session):
        for sample in session.served_samples:
            assert sample.bottleneck_mbps > 0.0


class TestSchemes:
    def test_reauth_scheme_pays_more_outage(self, network):
        user = UserTerminal("scheme-user", GeodeticPoint(-1.29, 36.82),
                            "acme", min_elevation_deg=10.0)
        traces = SessionSimulator(network).run(user, 0.0, 1800.0,
                                               epoch_s=60.0)
        predictive = traces[HandoverScheme.PREDICTIVE]
        reauth = traces[HandoverScheme.REAUTHENTICATE]
        assert reauth.total_outage_s > predictive.total_outage_s
        assert reauth.handover_count == predictive.handover_count

    def test_one_walk_serves_every_scheme(self, network, monkeypatch):
        # One snapshot per instant for both schemes, and both traces
        # hold the same samples with their own scheme.
        builds = []
        snapshot = type(network).snapshot

        def counted(self, *args, **kwargs):
            builds.append(args[0])
            return snapshot(self, *args, **kwargs)

        monkeypatch.setattr(type(network), "snapshot", counted)
        user = UserTerminal("walk-user", GeodeticPoint(-1.29, 36.82),
                            "acme", min_elevation_deg=10.0)
        traces = SessionSimulator(network).run(user, 0.0, 600.0,
                                               epoch_s=60.0)
        assert builds == [60.0 * k for k in range(10)]
        assert list(traces) == list(HandoverScheme)
        for scheme, trace in traces.items():
            assert trace.scheme is scheme
            assert trace.samples == traces[HandoverScheme.PREDICTIVE].samples


class TestValidation:
    def test_bad_interval(self, network):
        user = UserTerminal("u", GeodeticPoint(0.0, 0.0), "acme")
        simulator = SessionSimulator(network)
        with pytest.raises(ValueError):
            simulator.run(user, 10.0, 10.0)
        with pytest.raises(ValueError):
            simulator.run(user, 0.0, 100.0, epoch_s=0.0)

    def test_empty_trace_properties(self):
        trace = SessionTrace()
        assert trace.availability == 0.0
        assert trace.handover_count == 0
        assert math.isnan(trace.latency_stats_ms()["mean"])
