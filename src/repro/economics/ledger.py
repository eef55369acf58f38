"""The cross-verifiable traffic ledger (the paper's proposed cost model).

"The volume of traffic along this path is tracked by all parties involved
to create an easily cross-verifiable account of the extent to which any
given ISP's traffic was carried by the rest of the network."

Every party on a path files its own report of each transfer segment; the
ledger cross-verifies that all observers of the same segment agree on the
volume, flags mismatches (which feed the bad-actor monitor), and
aggregates carried-traffic matrices for settlement.  Reports are stored
as columns (reporter, volume, time) with a ``(transfer_id, carrier)``
index of each segment's rows, so filing a transfer builds no object per
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LedgerMismatch:
    """A disagreement between observers of the same transfer segment.

    Attributes:
        transfer_id: The disputed transfer.
        carrier_isp: The segment in dispute.
        reported: ``(reporter, gigabytes)`` for every filed report.
        spread_gb: Max minus min reported volume.
    """

    transfer_id: str
    carrier_isp: str
    reported: Tuple[Tuple[str, float], ...]
    spread_gb: float


class TrafficLedger:
    """Collects transit reports and cross-verifies them.

    Args:
        tolerance_gb: Reported volumes within this of each other are
            considered agreeing (metering jitter allowance).
    """

    def __init__(self, tolerance_gb: float = 1e-6):
        if tolerance_gb < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance_gb}")
        self.tolerance_gb = tolerance_gb
        # One entry per filed report, in filing order.
        self._reporters: List[str] = []
        self._gigabytes: List[float] = []
        self._times: List[float] = []
        # (transfer_id, carrier) -> (source of its first filing, its
        # report rows); a repeated key merges into one segment.
        self._segments: Dict[Tuple[str, str], Tuple[str, List[int]]] = {}

    def file_path_transfer(self, transfer_id: str, source_isp: str,
                           carrier_path: Sequence[str], gigabytes: float,
                           time_s: float,
                           misreport: Optional[Dict[str, float]] = None) -> None:
        """File the full report set a clean path transfer produces.

        For each carrier on the path, both the source ISP and the carrier
        itself file a report ("tracked by all parties involved").

        Args:
            transfer_id: Shared transfer identifier.
            source_isp: Originating ISP.
            carrier_path: ISPs whose infrastructure carried the traffic,
                in path order (may repeat; duplicates are collapsed in
                first-seen order).
            gigabytes: True transferred volume.
            time_s: Completion time.
            misreport: Optional carrier -> claimed_gigabytes overrides used
                by tests/benchmarks to inject fraudulent accounting;
                carriers off the path are ignored.

        Raises:
            ValueError: When the path has a carrier and the volume or a
                carrier's claim is negative; nothing is filed then.
        """
        carriers = list(dict.fromkeys(carrier_path))
        if misreport:
            claims = [misreport.get(carrier, gigabytes) for carrier in carriers]
            negative = any(claim < 0.0 for claim in claims)
        else:
            claims = [gigabytes] * len(carriers)
            negative = False
        if carriers and (negative or gigabytes < 0.0):
            raise ValueError(
                f"reported gigabytes must be >= 0, got {gigabytes} "
                f"with claims {claims}"
            )
        segments, reporters, volumes = (self._segments, self._reporters,
                                         self._gigabytes)
        row = len(volumes)
        for carrier, claim in zip(carriers, claims):
            key = (transfer_id, carrier)
            segment = segments.get(key)
            if segment is None:
                segments[key] = (source_isp, [row, row + 1])
            else:
                segment[1].extend((row, row + 1))
            row += 2
            reporters += (source_isp, carrier)
            volumes += (gigabytes, claim)
        self._times += [time_s] * (2 * len(carriers))

    def cross_verify(self) -> List[LedgerMismatch]:
        """All segments whose observers disagree beyond tolerance."""
        reporters, volumes = self._reporters, self._gigabytes
        mismatches = []
        for (transfer_id, carrier), (_source, rows) in sorted(
                self._segments.items()):
            reported = [volumes[row] for row in rows]
            spread = max(reported) - min(reported)
            if spread > self.tolerance_gb:
                mismatches.append(LedgerMismatch(
                    transfer_id=transfer_id,
                    carrier_isp=carrier,
                    reported=tuple((reporters[row], volumes[row])
                                   for row in rows),
                    spread_gb=spread,
                ))
        return mismatches

    def carried_matrix(self, exclude_disputed: bool = True) -> Dict[Tuple[str, str], float]:
        """``(source_isp, carrier_isp) -> total agreed GB carried``.

        This is the input to settlement and peering analysis: "the extent
        to which any given ISP's traffic was carried by the rest of the
        network".  A segment's agreed figure is its minimum report — a
        carrier cannot charge for more than every observer concedes.
        Segments add up in filing order.
        """
        volumes = self._gigabytes
        matrix: Dict[Tuple[str, str], float] = {}
        for (_transfer_id, carrier), (source, rows) in self._segments.items():
            if source == carrier:
                continue  # carrying your own traffic is not billable
            reported = [volumes[row] for row in rows]
            agreed = min(reported)
            if exclude_disputed and max(reported) - agreed > self.tolerance_gb:
                continue
            key = (source, carrier)
            matrix[key] = matrix.get(key, 0.0) + agreed
        return matrix

    @property
    def record_count(self) -> int:
        return len(self._gigabytes)
