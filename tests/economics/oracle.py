"""The record-per-report traffic ledger the columnar one is checked against.

:class:`repro.economics.ledger.TrafficLedger` stores each report as
columns under a ``(transfer_id, carrier)`` row index; this is the ledger
it replaced, which builds one frozen :class:`TransitRecord` per report
and walks the record lists to cross-verify and aggregate.  It is slow and
obviously right, which is all a referee needs to be.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.economics.ledger import LedgerMismatch


@dataclass(frozen=True)
class TransitRecord:
    """One party's account of one transfer segment."""

    transfer_id: str
    reporter: str
    source_isp: str
    carrier_isp: str
    gigabytes: float
    time_s: float

    def __post_init__(self) -> None:
        if self.gigabytes < 0.0:
            raise ValueError(f"gigabytes must be >= 0, got {self.gigabytes}")


class RecordLedger:
    """The transit ledger, one record object per filed report."""

    def __init__(self, tolerance_gb: float = 1e-6):
        if tolerance_gb < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance_gb}")
        self.tolerance_gb = tolerance_gb
        self._records: List[TransitRecord] = []
        # (transfer_id, carrier) -> records from each observer
        self._by_segment: Dict[Tuple[str, str], List[TransitRecord]] = {}

    def file(self, record: TransitRecord) -> None:
        self._records.append(record)
        key = (record.transfer_id, record.carrier_isp)
        self._by_segment.setdefault(key, []).append(record)

    def file_path_transfer(self, transfer_id: str, source_isp: str,
                           carrier_path: Sequence[str], gigabytes: float,
                           time_s: float,
                           misreport: Optional[Dict[str, float]] = None) -> None:
        seen = []
        for carrier in carrier_path:
            if carrier not in seen:
                seen.append(carrier)
        for carrier in seen:
            claimed = (misreport or {}).get(carrier, gigabytes)
            self.file(TransitRecord(
                transfer_id=transfer_id, reporter=source_isp,
                source_isp=source_isp, carrier_isp=carrier,
                gigabytes=gigabytes, time_s=time_s,
            ))
            self.file(TransitRecord(
                transfer_id=transfer_id, reporter=carrier,
                source_isp=source_isp, carrier_isp=carrier,
                gigabytes=claimed, time_s=time_s,
            ))

    def cross_verify(self) -> List[LedgerMismatch]:
        mismatches = []
        for (transfer_id, carrier), records in sorted(self._by_segment.items()):
            volumes = [r.gigabytes for r in records]
            spread = max(volumes) - min(volumes)
            if spread > self.tolerance_gb:
                mismatches.append(LedgerMismatch(
                    transfer_id=transfer_id,
                    carrier_isp=carrier,
                    reported=tuple((r.reporter, r.gigabytes) for r in records),
                    spread_gb=spread,
                ))
        return mismatches

    def carried_matrix(self, exclude_disputed: bool = True) -> Dict[Tuple[str, str], float]:
        matrix: Dict[Tuple[str, str], float] = {}
        for (transfer_id, carrier), records in self._by_segment.items():
            volumes = [r.gigabytes for r in records]
            disputed = max(volumes) - min(volumes) > self.tolerance_gb
            if disputed and exclude_disputed:
                continue
            source = records[0].source_isp
            if source == carrier:
                continue  # carrying your own traffic is not billable
            matrix[(source, carrier)] = (
                matrix.get((source, carrier), 0.0) + min(volumes)
            )
        return matrix

    @property
    def record_count(self) -> int:
        return len(self._records)
