"""The cross-verifiable traffic ledger (the paper's proposed cost model).

"The volume of traffic along this path is tracked by all parties involved
to create an easily cross-verifiable account of the extent to which any
given ISP's traffic was carried by the rest of the network."

Every party on a path files its own :class:`TransitRecord` for each
transfer; the ledger cross-verifies that all observers of the same
transfer agree on the volume, flags mismatches (which feed the bad-actor
monitor), and aggregates carried-traffic matrices for settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TransitRecord:
    """One party's account of one transfer.

    Attributes:
        transfer_id: Identifier shared by all observers of the transfer.
        reporter: The ISP filing this record.
        source_isp: Whose customer originated the traffic.
        carrier_isp: Whose infrastructure carried this segment.
        gigabytes: Volume the reporter observed.
        time_s: When the transfer completed.
    """

    transfer_id: str
    reporter: str
    source_isp: str
    carrier_isp: str
    gigabytes: float
    time_s: float

    def __post_init__(self) -> None:
        if self.gigabytes < 0.0:
            raise ValueError(f"gigabytes must be >= 0, got {self.gigabytes}")


@dataclass(frozen=True)
class LedgerMismatch:
    """A disagreement between observers of the same transfer segment.

    Attributes:
        transfer_id: The disputed transfer.
        carrier_isp: The segment in dispute.
        reported: ``(reporter, gigabytes)`` for every filed record.
        spread_gb: Max minus min reported volume.
    """

    transfer_id: str
    carrier_isp: str
    reported: Tuple[Tuple[str, float], ...]
    spread_gb: float


class TrafficLedger:
    """Collects transit records and cross-verifies them.

    Args:
        tolerance_gb: Reported volumes within this of each other are
            considered agreeing (metering jitter allowance).
    """

    def __init__(self, tolerance_gb: float = 1e-6):
        if tolerance_gb < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance_gb}")
        self.tolerance_gb = tolerance_gb
        self._records: List[TransitRecord] = []
        # (transfer_id, carrier) -> records from each observer
        self._by_segment: Dict[Tuple[str, str], List[TransitRecord]] = {}

    def file(self, record: TransitRecord) -> None:
        """File one party's record of a transfer segment."""
        self._records.append(record)
        key = (record.transfer_id, record.carrier_isp)
        self._by_segment.setdefault(key, []).append(record)

    def file_path_transfer(self, transfer_id: str, source_isp: str,
                           carrier_path: Sequence[str], gigabytes: float,
                           time_s: float,
                           misreport: Optional[Dict[str, float]] = None) -> None:
        """File the full record set a clean path transfer produces.

        For each carrier on the path, both the source ISP and the carrier
        itself file records ("tracked by all parties involved").

        Args:
            transfer_id: Shared transfer identifier.
            source_isp: Originating ISP.
            carrier_path: ISPs whose infrastructure carried the traffic,
                in path order (may repeat; duplicates are collapsed).
            gigabytes: True transferred volume.
            time_s: Completion time.
            misreport: Optional carrier -> claimed_gigabytes overrides used
                by tests/benchmarks to inject fraudulent accounting.
        """
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
        """All segments whose observers disagree beyond tolerance."""
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
        """``(source_isp, carrier_isp) -> total agreed GB carried``.

        This is the input to settlement and peering analysis: "the extent
        to which any given ISP's traffic was carried by the rest of the
        network".  A segment's agreed figure is its minimum report — a
        carrier cannot charge for more than every observer concedes.
        """
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
