"""The million-user traffic plane: population grids + fluid flows.

``repro.demand`` models subscriber load without per-user objects: users
aggregate into equal-area ground cells (:mod:`repro.demand.grid`) with
diurnal and heavy-tail demand profiles (:mod:`repro.demand.profile`);
the vectorized fluid engine (:mod:`repro.demand.fluid`) routes every
loaded cell over a snapshot's CSR and waterfills a max-min-fair fixed
point over its link capacities; and the congestion state feeds routing
costs, the health plane, and settlement (:mod:`repro.demand.congestion`).
"""

from repro.demand.congestion import (
    CongestionState,
    DemandSettlement,
    congestion_state,
    peak_statistics,
    settle_demand,
)
from repro.demand.fluid import (
    FluidResult,
    map_cells_to_routes,
    run_fluid,
    waterfill_rates,
    weighted_percentile,
)
from repro.demand.grid import (
    CELL_ID_FORMAT,
    GridSpec,
    PopulationGrid,
    population_grid,
)
from repro.demand.profile import (
    DEFAULT_QOS_MIX,
    QosClassDemand,
    diurnal_factor,
    local_solar_hour,
    mean_demand_bps_per_user,
    offered_load_bps,
    validate_qos_mix,
)

__all__ = [
    "CELL_ID_FORMAT",
    "CongestionState",
    "DEFAULT_QOS_MIX",
    "DemandSettlement",
    "FluidResult",
    "GridSpec",
    "PopulationGrid",
    "QosClassDemand",
    "congestion_state",
    "diurnal_factor",
    "local_solar_hour",
    "map_cells_to_routes",
    "mean_demand_bps_per_user",
    "offered_load_bps",
    "peak_statistics",
    "population_grid",
    "run_fluid",
    "settle_demand",
    "validate_qos_mix",
    "waterfill_rates",
    "weighted_percentile",
]
