"""Tests for bad-actor detection and quarantine."""

import pytest

from repro.security.badactor import BadActorMonitor, REPORT_SEVERITY, TrustScore


class TestTrustScore:
    def test_reports_reduce_score(self):
        score = TrustScore("op")
        score.apply_report("transit_drop", 0.05)
        assert score.score == pytest.approx(0.95)
        assert score.reports["transit_drop"] == 1

    def test_score_floors_at_zero(self):
        score = TrustScore("op")
        for _ in range(10):
            score.apply_report("interception_attempt", 0.6)
        assert score.score == 0.0


class TestMonitor:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown report kind"):
            BadActorMonitor().report("op", "jaywalking")

    def test_severe_reports_quarantine(self):
        monitor = BadActorMonitor(cutoff_threshold=0.4)
        monitor.report("evil", "interception_attempt")
        monitor.report("evil", "forged_certificate")
        assert monitor.is_quarantined("evil")

    def test_minor_reports_do_not_quarantine(self):
        monitor = BadActorMonitor()
        for _ in range(5):
            monitor.report("sloppy", "transit_drop")
        assert not monitor.is_quarantined("sloppy")
        assert "quarantined" not in [kind for _, _, kind in monitor.events]

    def test_events_logged(self):
        monitor = BadActorMonitor()
        monitor.report("op", "beacon_spoofing", now_s=10.0)
        monitor.report("op", "beacon_spoofing", now_s=20.0)
        kinds = [kind for _, _, kind in monitor.events]
        assert kinds.count("beacon_spoofing") == 2
        assert "quarantined" in kinds

    def test_unreported_provider_fully_trusted(self):
        assert not BadActorMonitor(cutoff_threshold=1.0).is_quarantined("anyone")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BadActorMonitor(cutoff_threshold=1.5)
        with pytest.raises(ValueError):
            BadActorMonitor(cutoff_threshold=-0.1)

    def test_severity_table_covers_paper_threats(self):
        # Interception and forgery — the threats the paper names — must be
        # the most severe kinds.
        assert REPORT_SEVERITY["interception_attempt"] == max(
            REPORT_SEVERITY.values()
        )
        assert REPORT_SEVERITY["forged_certificate"] >= 0.5
