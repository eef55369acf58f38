"""Preemptive QoS planning from public orbital knowledge (paper §2.2).

"For providers who own satellites with diverse technical specifications
... using these known orbital configurations enables suitable distribution
of satellites to meet the needs of a diverse user base, while also making
it possible to preemptively adjust their QoS guarantees.  For example, the
provider can ensure the presence of laser-link-enabled spacecraft to
handle traffic from users with more stringent QoS requirements.  At the
same time, in regions where routing paths will be bottlenecked by
bandwidth-limited links, the provider can adjust advertised plans to
reflect these looser QoS guarantees."

The planner rolls the network forward over future epochs (everything is
predictable from the published elements) and produces, per service region,
the schedule of service classes the provider can honestly advertise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.network import OpenSpaceNetwork
from repro.ground.user import UserTerminal
from repro.orbits.coordinates import GeodeticPoint
from repro.routing.qos import QosRequirement, QosRouter

#: Default advertised classes, most to least stringent.
DEFAULT_CLASSES: List[Tuple[str, QosRequirement]] = [
    ("premium", QosRequirement(min_bandwidth_bps=50e6,
                               max_end_to_end_delay_s=0.120)),
    ("standard", QosRequirement(min_bandwidth_bps=2e6)),
    ("best_effort", QosRequirement()),
]


@dataclass(frozen=True)
class QosForecastEntry:
    """The advertisable service at one region and epoch.

    Attributes:
        time_s: Epoch.
        region_name: The service region.
        admissible_classes: Class names the network can honour, most
            stringent first.
        best_class: The highest class admissible ("none" when the region
            is unserved at this epoch).
    """

    time_s: float
    region_name: str
    admissible_classes: Tuple[str, ...]
    best_class: str


@dataclass
class QosForecast:
    """A full advertised-plan schedule.

    Attributes:
        entries: One entry per (epoch, region).
        horizon_s: Forecast horizon.
    """

    entries: List[QosForecastEntry] = field(default_factory=list)
    horizon_s: float = 0.0

    def for_region(self, region_name: str) -> List[QosForecastEntry]:
        return [e for e in self.entries if e.region_name == region_name]

    def guaranteed_class(self, region_name: str) -> str:
        """The class a provider can advertise *continuously* in a region.

        The honest advertisement is the weakest class over the horizon —
        exactly the paper's "adjust advertised plans to reflect these
        looser QoS guarantees".
        """
        order = [name for name, _req in DEFAULT_CLASSES] + ["none"]
        entries = self.for_region(region_name)
        if not entries:
            return "none"
        worst_index = max(order.index(e.best_class) for e in entries)
        return order[worst_index]

    def availability_of_class(self, region_name: str,
                              class_name: str) -> float:
        """Fraction of epochs a class is admissible in a region."""
        entries = self.for_region(region_name)
        if not entries:
            return 0.0
        hits = sum(
            1 for e in entries if class_name in e.admissible_classes
        )
        return hits / len(entries)


class QosPlanner:
    """Forecasts advertisable QoS per region from orbital knowledge.

    Each region is graded against :data:`DEFAULT_CLASSES` with a default
    :class:`~repro.routing.qos.QosRouter`.

    Args:
        network: The provider's (or federation's) network.
    """

    def __init__(self, network: OpenSpaceNetwork):
        self.network = network
        self.router = QosRouter()

    def forecast(self, regions: Dict[str, GeodeticPoint],
                 start_s: float, horizon_s: float,
                 epoch_s: float = 300.0) -> QosForecast:
        """Roll the network forward and grade each region per epoch.

        Args:
            regions: Region name -> representative user location.
            start_s: Forecast start.
            horizon_s: Forecast length.
            epoch_s: Epoch spacing.

        Returns:
            The advertised-plan schedule.
        """
        if horizon_s <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        if epoch_s <= 0.0:
            raise ValueError(f"epoch must be positive, got {epoch_s}")
        forecast = QosForecast(horizon_s=horizon_s)
        probes = {
            name: UserTerminal(f"probe-{name}", site, "planner",
                               min_elevation_deg=10.0)
            for name, site in regions.items()
        }
        for time_s in np.arange(start_s, start_s + horizon_s, epoch_s):
            snap = self.network.snapshot(float(time_s),
                                         users=list(probes.values()))
            gateways = snap.nodes_of_kind("ground_station")
            for name, probe in probes.items():
                admissible = []
                for class_name, requirement in DEFAULT_CLASSES:
                    if self._region_admits(snap, probe.user_id, gateways,
                                            requirement):
                        admissible.append(class_name)
                forecast.entries.append(QosForecastEntry(
                    time_s=float(time_s),
                    region_name=name,
                    admissible_classes=tuple(admissible),
                    best_class=admissible[0] if admissible else "none",
                ))
        return forecast

    def _region_admits(self, snap, probe_id: str, gateways: List[str],
                       requirement: QosRequirement) -> bool:
        """Whether any gateway path honours the requirement right now."""
        return any(result.admitted for result in self.router.routes(
            snap, probe_id, gateways, requirement))
