"""Property-based tests for the economics layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economics.ledger import TrafficLedger
from repro.economics.settlement import RateCard, SettlementEngine
from tests.economics.oracle import RecordLedger

isp_names = st.sampled_from(["isp-a", "isp-b", "isp-c", "isp-d"])

transfer = st.tuples(
    isp_names,                                        # source
    st.lists(isp_names, min_size=1, max_size=3),      # carrier path
    st.floats(min_value=0.01, max_value=100.0),       # gigabytes
)


class TestLedgerProperties:
    @given(transfers=st.lists(transfer, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_honest_ledger_never_mismatches(self, transfers):
        ledger = TrafficLedger()
        for index, (source, path, gb) in enumerate(transfers):
            ledger.file_path_transfer(f"t{index}", source, path, gb,
                                      float(index))
        assert ledger.cross_verify() == []

    @given(transfers=st.lists(transfer, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_matrix_totals_bounded_by_filed_volume(self, transfers):
        ledger = TrafficLedger()
        total_filed = 0.0
        for index, (source, path, gb) in enumerate(transfers):
            ledger.file_path_transfer(f"t{index}", source, path, gb,
                                      float(index))
            distinct_foreign = {c for c in path if c != source}
            total_filed += gb * len(distinct_foreign)
        matrix_total = sum(ledger.carried_matrix().values())
        assert matrix_total == pytest.approx(total_filed, rel=1e-9)

    @given(transfers=st.lists(transfer, min_size=1, max_size=20),
           inflation=st.floats(min_value=1.01, max_value=5.0))
    @settings(max_examples=40)
    def test_any_overreport_is_caught(self, transfers, inflation):
        ledger = TrafficLedger()
        fraud_count = 0
        for index, (source, path, gb) in enumerate(transfers):
            misreport = None
            carrier = path[0]
            if carrier != source and index % 3 == 0:
                misreport = {carrier: gb * inflation}
                fraud_count += 1
            ledger.file_path_transfer(f"t{index}", source, path, gb,
                                      float(index), misreport)
        assert len(ledger.cross_verify()) == fraud_count


class TestSettlementProperties:
    @given(transfers=st.lists(transfer, min_size=1, max_size=30),
           rf_rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_money_conserved(self, transfers, rf_rate):
        ledger = TrafficLedger()
        for index, (source, path, gb) in enumerate(transfers):
            ledger.file_path_transfer(f"t{index}", source, path, gb,
                                      float(index))
        engine = SettlementEngine(rate_cards={
            name: RateCard(carrier=name, rf_rate_per_gb=rf_rate)
            for name in ("isp-a", "isp-b", "isp-c", "isp-d")
        })
        invoices = engine.invoices_from_ledger(ledger)
        positions = engine.net_positions(invoices)
        assert sum(positions.values()) == pytest.approx(0.0, abs=1e-9)

    @given(transfers=st.lists(transfer, min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_invoices_never_negative(self, transfers):
        ledger = TrafficLedger()
        for index, (source, path, gb) in enumerate(transfers):
            ledger.file_path_transfer(f"t{index}", source, path, gb,
                                      float(index))
        for invoice in SettlementEngine().invoices_from_ledger(ledger):
            assert invoice.amount_usd >= 0.0
            assert invoice.gigabytes >= 0.0
            assert invoice.carrier != invoice.customer


@st.composite
def _claim(draw, gigabytes, tolerance):
    """A carrier's claim above, within or below ``tolerance`` of the true
    volume (never negative)."""
    kind = draw(st.sampled_from(["above", "within", "below"]))
    if kind == "above":
        return gigabytes + tolerance + draw(st.floats(1e-3, 10.0))
    if kind == "within":
        return max(0.0, gigabytes + draw(st.floats(-tolerance, tolerance)))
    return max(0.0, gigabytes - tolerance - draw(st.floats(1e-3, 10.0)))


@st.composite
def _filings(draw):
    """A tolerance and a list of transfers: repeated transfer ids and
    carriers, zero volumes, and misreports on and off the path."""
    tolerance = draw(st.sampled_from([0.0, 1e-6, 0.1]))
    transfers = []
    for _ in range(draw(st.integers(0, 25))):
        gigabytes = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
        misreport = {
            carrier: draw(_claim(gigabytes, tolerance))
            for carrier in draw(st.lists(isp_names, max_size=3, unique=True))
        }
        transfers.append((
            draw(st.sampled_from(["t0", "t1", "t2", "t3", "t4"])),
            draw(isp_names),
            draw(st.lists(isp_names, max_size=4)),
            gigabytes,
            draw(st.floats(0.0, 1e5)),
            draw(st.sampled_from([None, misreport])),
        ))
    return tolerance, transfers


def _bits(matrix):
    return [(key, value.hex()) for key, value in matrix.items()]


class TestColumnarLedgerAgainstOracle:
    """The columnar ledger files, cross-verifies and aggregates exactly as
    the record-per-report ledger it replaced (``tests/economics/oracle.py``)."""

    @given(filings=_filings())
    @settings(max_examples=100, deadline=None)
    def test_same_accounts_as_the_record_ledger(self, filings):
        tolerance, transfers = filings
        columnar = TrafficLedger(tolerance_gb=tolerance)
        oracle = RecordLedger(tolerance_gb=tolerance)
        for transfer in transfers:
            columnar.file_path_transfer(*transfer)
            oracle.file_path_transfer(*transfer)
        assert columnar.record_count == oracle.record_count
        assert columnar.cross_verify() == oracle.cross_verify()
        for exclude_disputed in (True, False):
            assert _bits(columnar.carried_matrix(exclude_disputed)) == _bits(
                oracle.carried_matrix(exclude_disputed))

    @given(source=isp_names, path=st.lists(isp_names, min_size=1, max_size=4),
           gigabytes=st.floats(0.0, 100.0), negative=st.floats(-100.0, -1e-9),
           on_volume=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_negative_volume_or_claim_rejected_by_both(
            self, source, path, gigabytes, negative, on_volume):
        if on_volume:
            args = ("t0", source, path, negative, 0.0)
        else:
            args = ("t0", source, path, gigabytes, 0.0, {path[-1]: negative})
        for ledger in (TrafficLedger(), RecordLedger()):
            with pytest.raises(ValueError):
                ledger.file_path_transfer(*args)
