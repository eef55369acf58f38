"""Per-cell and per-record forms the demand arrays are checked against.

* :func:`cell_geometry` is the per-cell loop
  :func:`repro.demand.grid._cell_geometry` replaced with one array pass
  over the band and column indices (same operations, same order).
* :func:`peak_statistics` reads the ``(u, v) -> utilization`` dict, as
  :func:`repro.demand.congestion.peak_statistics` did before it read the
  edge-slot arrays.
* :func:`settle_demand` files a fluid interval into the
  record-per-report ledger (``tests/economics/oracle.py``) rather than
  the columnar one.
"""

from typing import Dict, List

import numpy as np

from repro.demand.congestion import DemandSettlement
from repro.demand.fluid import FluidResult
from repro.demand.grid import GridSpec
from repro.economics.settlement import SettlementEngine
from tests.economics.oracle import RecordLedger


def cell_geometry(spec: GridSpec):
    """Flattened (lat, lon, area_weight, band index) arrays, cell by cell."""
    centers = spec.band_center_latitudes()
    columns = spec.columns_per_band()
    lats: List[float] = []
    lons: List[float] = []
    areas: List[float] = []
    bands: List[int] = []
    band_area = 1.0 / spec.bands
    for band, (lat, cols) in enumerate(zip(centers, columns)):
        width = 360.0 / cols
        for col in range(int(cols)):
            lon = -180.0 + width * (col + 0.5)
            lats.append(float(lat))
            lons.append(((lon + 180.0) % 360.0) - 180.0)
            areas.append(band_area / cols)
            bands.append(band)
    return (np.asarray(lats), np.asarray(lons), np.asarray(areas),
            np.asarray(bands, dtype=np.int64))


def peak_statistics(result: FluidResult) -> Dict[str, float]:
    """The congestion headline numbers, from the utilization dict."""
    fractions = np.asarray(
        [f for f in result.utilization.values() if f > 0.0]
    )
    if fractions.size == 0:
        return {"mean_utilization": 0.0, "peak_utilization": 0.0,
                "hot_link_share": 0.0}
    return {
        "mean_utilization": float(fractions.mean()),
        "peak_utilization": float(fractions.max()),
        "hot_link_share": float((fractions > 0.9).mean()),
    }


def settle_demand(result: FluidResult, owners, duration_s: float,
                  time_s: float = 0.0) -> DemandSettlement:
    """One fluid interval settled through the record-per-report ledger."""
    ledger = RecordLedger()
    for index, cell_id in enumerate(result.cell_ids):
        path = result.paths[index]
        if path is None or len(path) < 2:
            continue
        rate = float(result.rate_bps[index])
        if rate <= 0.0:
            continue
        ledger.file_path_transfer(
            transfer_id=f"{cell_id}@{time_s:.0f}",
            source_isp=owners[path[0]],
            carrier_path=[owners[node] for node in path[1:]],
            gigabytes=rate * duration_s / 8.0 / 1e9, time_s=time_s,
        )
    engine = SettlementEngine()
    invoices = engine.invoices_from_ledger(ledger, segment_kind="gateway")
    return DemandSettlement(
        invoices=invoices,
        revenue_usd=float(sum(i.amount_usd for i in invoices)),
        carried_gb=float(sum(i.gigabytes for i in invoices)),
        net_positions=engine.net_positions(invoices),
    )
