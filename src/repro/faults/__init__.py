"""repro.faults — dynamic fault injection and recovery measurement.

The chaos-engineering layer over the discrete-event engine: seeded fault
schedules (:mod:`repro.faults.schedule`), an injector that replays them
against a live :class:`~repro.core.network.OpenSpaceNetwork` in simulated
time (:mod:`repro.faults.inject`), and recovery metrics — time-to-reroute,
observed MTTR, availability timelines — built from probe streams
(:mod:`repro.faults.metrics`).

The paper's Figure 2(c) caption claims constellation mass beyond bare
coverage buys redundancy so "operational failures, load balancing, and
range cutoffs ... can be handled efficiently"; this package turns that
claim into a measurable quantity.  See
:mod:`repro.experiments.resilience_dynamic` for the sweep drivers and the
``repro faults`` CLI subcommands for the command-line surface.
"""

from repro.faults.model import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultScheduleError,
    Transition,
    combine,
    link_target,
    parse_link_target,
    validate_against,
)
from repro.faults.schedule import (
    fraction_loss_schedule,
    great_circle_km,
    ground_station_outage_schedule,
    link_flap_schedule,
    plane_loss_event,
    plane_members,
    provider_withdrawal_event,
    regional_blackout_event,
    satellite_mtbf_schedule,
    satellite_outage_event,
    stations_within,
)
from repro.faults.inject import FaultInjector
from repro.faults.metrics import (
    AvailabilityTimeline,
    FaultImpact,
    OutageRecord,
    RecoveryTracker,
)

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "FaultScheduleError",
    "Transition",
    "combine",
    "link_target",
    "parse_link_target",
    "validate_against",
    "satellite_mtbf_schedule",
    "ground_station_outage_schedule",
    "link_flap_schedule",
    "plane_members",
    "plane_loss_event",
    "provider_withdrawal_event",
    "satellite_outage_event",
    "fraction_loss_schedule",
    "FaultInjector",
    "RecoveryTracker",
    "AvailabilityTimeline",
    "OutageRecord",
    "FaultImpact",
]
