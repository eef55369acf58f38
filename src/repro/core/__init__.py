"""OpenSpace core: the paper's primary contribution.

The architecture for "an open and inter-operable LEO space-based Internet
service that is owned, controlled, and managed by distributed entities":

* :mod:`repro.core.interop` — the minimal-hardware interoperability
  profile every participating spacecraft must meet, and spacecraft specs.
* :mod:`repro.core.beacon` — standardized presence beacons with orbital
  information.
* :mod:`repro.core.association` — user association + home-ISP RADIUS
  authentication over ISLs + roaming certificates.
* :mod:`repro.core.handover` — predictive successor handover vs the
  re-authentication baseline.
* :mod:`repro.core.federation` — the multi-operator registry, trust
  distribution, and bad-actor quarantine.
* :mod:`repro.core.network` — the OpenSpaceNetwork facade: builds
  time-varying whole-network graphs (satellites + ground stations + users)
  and answers end-to-end routing queries.
"""

from repro.core.interop import (
    InteropError,
    InteroperabilityProfile,
    SizeClass,
    SpacecraftSpec,
    small_spacecraft,
    medium_spacecraft,
    large_spacecraft,
)
from repro.core.beacon import Beacon, BeaconEvaluator
from repro.core.association import AssociationProtocol, AssociationResult
from repro.core.handover import (
    HandoverScheme,
    HandoverEvent,
    HandoverSimulator,
    PassTimeline,
)
from repro.core.federation import Federation, Operator
from repro.core.network import OpenSpaceNetwork, NetworkSnapshot
from repro.core.policy import (
    DEFAULT_REGIONS,
    PolicyRegistry,
    Region,
    policy_adjacency,
)
from repro.core.spectrum import ChannelPlan, SpectrumCoordinator
from repro.core.discovery import BeaconDiscoverySimulator, DiscoveryResult
from repro.core.qos_planner import (
    QosForecast,
    QosForecastEntry,
    QosPlanner,
)

__all__ = [
    "InteropError",
    "InteroperabilityProfile",
    "SizeClass",
    "SpacecraftSpec",
    "small_spacecraft",
    "medium_spacecraft",
    "large_spacecraft",
    "Beacon",
    "BeaconEvaluator",
    "AssociationProtocol",
    "AssociationResult",
    "HandoverScheme",
    "HandoverEvent",
    "HandoverSimulator",
    "PassTimeline",
    "Federation",
    "Operator",
    "OpenSpaceNetwork",
    "NetworkSnapshot",
    "DEFAULT_REGIONS",
    "PolicyRegistry",
    "Region",
    "policy_adjacency",
    "ChannelPlan",
    "SpectrumCoordinator",
    "BeaconDiscoverySimulator",
    "DiscoveryResult",
    "QosForecast",
    "QosForecastEntry",
    "QosPlanner",
]
