"""Physical-layer substrate: channels, antennas, and link budgets.

OpenSpace mandates RF inter-satellite links as the minimum interoperable
capability (S-band / UHF, the bands "tried and tested in various missions")
with optional standardized laser links for high-throughput pairs, Ku-band
for ground links.  This subpackage models those links well enough that the
routing layer sees realistic heterogeneous capacities:

* free-space path loss, atmospheric/rain attenuation, thermal noise;
* parabolic/patch antenna gains and optical terminal geometry;
* pointing losses for the narrow laser beams;
* Shannon and MODCOD-table capacity estimates.
"""

from repro.phy.channel import (
    atmospheric_loss_db,
    free_space_path_loss_db,
    noise_power_dbw,
    rain_attenuation_db,
)
from repro.phy.antennas import dish_gain_dbi
from repro.phy.bands import Band, BAND_CATALOG
from repro.phy.rf import RFTerminal, rf_link_budget, rf_link_budget_arrays
from repro.phy.optical import (
    OpticalTerminal,
    optical_link_budget,
    optical_link_budget_arrays,
    pointing_loss_db,
)
from repro.phy.linkbudget import (
    LinkBudget,
    LinkBudgetArrays,
    shannon_capacity_bps,
)
from repro.phy.interference import (
    angular_separation_rad,
    interference_pairs,
)
from repro.phy.modulation import (
    ModCod,
    MODCOD_TABLE,
    achievable_rate_bps,
    achievable_rate_bps_array,
    select_modcod,
)

__all__ = [
    "atmospheric_loss_db",
    "free_space_path_loss_db",
    "noise_power_dbw",
    "rain_attenuation_db",
    "dish_gain_dbi",
    "Band",
    "BAND_CATALOG",
    "RFTerminal",
    "rf_link_budget",
    "rf_link_budget_arrays",
    "OpticalTerminal",
    "optical_link_budget",
    "optical_link_budget_arrays",
    "pointing_loss_db",
    "LinkBudget",
    "LinkBudgetArrays",
    "shannon_capacity_bps",
    "angular_separation_rad",
    "interference_pairs",
    "ModCod",
    "MODCOD_TABLE",
    "achievable_rate_bps",
    "achievable_rate_bps_array",
    "select_modcod",
]
