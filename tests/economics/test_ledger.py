"""Tests for the cross-verifiable traffic ledger."""

import pytest

from repro.economics.ledger import LedgerMismatch, TrafficLedger


class TestRecords:
    def test_rejects_negative_volume(self):
        ledger = TrafficLedger()
        with pytest.raises(ValueError):
            ledger.file_path_transfer("t1", "a", ["b"], -1.0, 0.0)
        with pytest.raises(ValueError):
            ledger.file_path_transfer("t1", "a", ["b", "c"], 1.0, 0.0,
                                      misreport={"c": -1.0})
        # A rejected transfer files nothing.
        assert ledger.record_count == 0
        assert ledger.carried_matrix() == {}


class TestFiling:
    def test_path_transfer_files_both_sides(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer("t1", "isp-a", ["isp-b"], 5.0, 0.0)
        # Source's record + carrier's record.
        assert ledger.record_count == 2

    def test_duplicate_carriers_collapsed(self):
        ledger = TrafficLedger()
        # The paper's weave: in and out of isp-b twice.
        ledger.file_path_transfer(
            "t1", "isp-a", ["isp-b", "isp-c", "isp-b"], 5.0, 0.0
        )
        matrix = ledger.carried_matrix()
        assert matrix[("isp-a", "isp-b")] == 5.0
        assert matrix[("isp-a", "isp-c")] == 5.0


class TestCrossVerification:
    def test_honest_records_agree(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer("t1", "isp-a", ["isp-b"], 5.0, 0.0)
        assert ledger.cross_verify() == []
        assert ledger.carried_matrix() == {("isp-a", "isp-b"): 5.0}

    def test_fraud_detected(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer(
            "t1", "isp-a", ["isp-b"], 5.0, 0.0, misreport={"isp-b": 8.0}
        )
        mismatches = ledger.cross_verify()
        assert len(mismatches) == 1
        assert isinstance(mismatches[0], LedgerMismatch)
        assert mismatches[0].carrier_isp == "isp-b"
        assert mismatches[0].spread_gb == pytest.approx(3.0)

    def test_disputed_volume_is_none(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer(
            "t1", "isp-a", ["isp-b"], 5.0, 0.0, misreport={"isp-b": 8.0}
        )
        assert ledger.carried_matrix() == {}

    def test_tolerance_absorbs_metering_jitter(self):
        ledger = TrafficLedger(tolerance_gb=0.1)
        ledger.file_path_transfer(
            "t1", "isp-a", ["isp-b"], 5.0, 0.0, misreport={"isp-b": 5.05}
        )
        assert ledger.cross_verify() == []
        # Agreed volume is the minimum report.
        assert ledger.carried_matrix() == {("isp-a", "isp-b"): 5.0}

    def test_unknown_segment_none(self):
        assert TrafficLedger().carried_matrix() == {}

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            TrafficLedger(tolerance_gb=-1.0)


class TestCarriedMatrix:
    def test_aggregates_across_transfers(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer("t1", "isp-a", ["isp-b"], 5.0, 0.0)
        ledger.file_path_transfer("t2", "isp-a", ["isp-b"], 3.0, 1.0)
        assert ledger.carried_matrix()[("isp-a", "isp-b")] == 8.0

    def test_self_carriage_not_billable(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer("t1", "isp-a", ["isp-a", "isp-b"], 5.0, 0.0)
        matrix = ledger.carried_matrix()
        assert ("isp-a", "isp-a") not in matrix
        assert matrix[("isp-a", "isp-b")] == 5.0

    def test_disputed_segments_excluded_by_default(self):
        ledger = TrafficLedger()
        ledger.file_path_transfer(
            "t1", "isp-a", ["isp-b"], 5.0, 0.0, misreport={"isp-b": 9.0}
        )
        assert ledger.carried_matrix() == {}
        included = ledger.carried_matrix(exclude_disputed=False)
        # Conservative: minimum of the conflicting reports.
        assert included[("isp-a", "isp-b")] == 5.0

    def test_cross_verifiability_is_symmetric_knowledge(self):
        # Every party can independently compute the same matrix — the
        # paper's "easily cross-verifiable account".
        ledger = TrafficLedger()
        ledger.file_path_transfer("t1", "isp-a", ["isp-b", "isp-c"], 4.0, 0.0)
        ledger.file_path_transfer("t2", "isp-b", ["isp-a"], 2.0, 1.0)
        matrix = ledger.carried_matrix()
        assert matrix == {
            ("isp-a", "isp-b"): 4.0,
            ("isp-a", "isp-c"): 4.0,
            ("isp-b", "isp-a"): 2.0,
        }
