"""The OpenSpace interoperability profile and spacecraft specifications.

"To facilitate such links with a low entry-barrier, there needs to be a
minimal hardware requirement for a satellite to join OpenSpace, as well as
a protocol to allow satellites to both broadcast their presence, and share
their ISL specifications."  The profile enforces the paper's minimum: RF
ISL capability is mandatory; laser terminals are optional and subject to
power-budget feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.isl.link import LinkTechnology, technology_of
from repro.isl.power import (
    PowerBudget,
    SlewModel,
    largesat_power_budget,
    midsat_power_budget,
    smallsat_power_budget,
)
from repro.isl.topology import IslNode
from repro.orbits.elements import OrbitalElements
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import (
    RFTerminal,
    standard_ku_space_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)

Terminal = Union[RFTerminal, OpticalTerminal]


class InteropError(Exception):
    """Raised when a spacecraft fails the OpenSpace profile."""


class SizeClass(enum.Enum):
    """Coarse spacecraft classes (drive power, mass, and capability)."""

    SMALL = "small"     # cubesat-class: RF ISLs only
    MEDIUM = "medium"   # smallsat bus: can host one laser terminal
    LARGE = "large"     # megaconstellation-class: multiple laser ISLs


@dataclass
class SpacecraftSpec:
    """Everything one spacecraft declares to the federation.

    This is the payload of the paper's ISL pairing spec exchange — "a pair
    request which contains its technical specifications (for example
    whether optical links are supported, and the exact position of its
    laser diodes)".

    Attributes:
        satellite_id: Stable identifier (graph node key).
        owner: Operating firm.
        size_class: Coarse capability class.
        elements: The spacecraft's published orbital elements.
        isl_terminals: ISL-capable terminals (RF and/or optical).
        ground_terminal: The user/ground-facing terminal.
        power: Electrical power budget.
        slew: Attitude-slew model (laser pointing).
        laser_boresights_deg: Body-frame azimuths of mounted laser
            terminals ("the exact position of its laser diodes").
    """

    satellite_id: str
    owner: str
    size_class: SizeClass
    elements: OrbitalElements
    isl_terminals: List[Terminal] = field(default_factory=list)
    ground_terminal: Optional[RFTerminal] = None
    power: PowerBudget = field(default_factory=smallsat_power_budget)
    slew: SlewModel = field(default_factory=SlewModel)
    laser_boresights_deg: List[float] = field(default_factory=list)

    @property
    def supports_optical(self) -> bool:
        return any(
            technology_of(t) is LinkTechnology.OPTICAL for t in self.isl_terminals
        )

    @property
    def rf_isl_terminals(self) -> List[Terminal]:
        return [
            t for t in self.isl_terminals
            if technology_of(t) is not None
            and technology_of(t).is_rf
        ]

    def to_isl_node(self, allow_optical: Optional[bool] = None) -> IslNode:
        """Project to the topology builder's node type."""
        if allow_optical is None:
            allow_optical = self.supports_optical
        return IslNode(
            node_id=self.satellite_id,
            terminals=list(self.isl_terminals),
            max_degree=self.power.max_concurrent_isls,
            allow_optical=allow_optical,
            owner=self.owner,
        )


@dataclass(frozen=True)
class InteroperabilityProfile:
    """The minimal hardware requirement to join OpenSpace.

    Attributes:
        required_rf_technologies: A spacecraft must support at least one of
            these RF ISL technologies (the paper mandates RF at minimum).
        require_ground_terminal: Whether a user/gateway-facing terminal is
            required (relay-only craft may omit it when False).
        min_isl_degree: Minimum concurrent-ISL capability; a craft unable
            to hold two links cannot usefully relay.
    """

    required_rf_technologies: frozenset = frozenset(
        {LinkTechnology.RF_UHF, LinkTechnology.RF_SBAND}
    )
    require_ground_terminal: bool = False
    min_isl_degree: int = 1

    def validate(self, spec: SpacecraftSpec) -> None:
        """Check one spacecraft against the profile.

        Raises:
            InteropError: Listing every violated requirement.
        """
        problems: List[str] = []
        technologies = {
            technology_of(t) for t in spec.isl_terminals
        } - {None}
        if not (technologies & self.required_rf_technologies):
            wanted = ", ".join(sorted(t.value for t in self.required_rf_technologies))
            problems.append(
                f"no mandatory RF ISL terminal (needs one of: {wanted})"
            )
        if self.require_ground_terminal and spec.ground_terminal is None:
            problems.append("no ground-facing terminal")
        if spec.power.max_concurrent_isls < self.min_isl_degree:
            problems.append(
                f"ISL degree {spec.power.max_concurrent_isls} below minimum "
                f"{self.min_isl_degree}"
            )
        if spec.supports_optical and not spec.laser_boresights_deg:
            problems.append(
                "optical terminals declared but no laser boresight positions"
            )
        if problems:
            raise InteropError(
                f"spacecraft {spec.satellite_id!r} fails OpenSpace profile: "
                + "; ".join(problems)
            )

    def is_compliant(self, spec: SpacecraftSpec) -> bool:
        """Boolean convenience wrapper over :meth:`validate`."""
        try:
            self.validate(spec)
        except InteropError:
            return False
        return True


def small_spacecraft(satellite_id: str, owner: str,
                     elements: OrbitalElements) -> SpacecraftSpec:
    """A cubesat-class OpenSpace craft: UHF+S-band RF ISLs, no laser."""
    return SpacecraftSpec(
        satellite_id=satellite_id,
        owner=owner,
        size_class=SizeClass.SMALL,
        elements=elements,
        isl_terminals=[
            standard_uhf_isl_terminal(),
            standard_sband_isl_terminal(),
        ],
        ground_terminal=standard_ku_space_terminal(),
        power=smallsat_power_budget(),
    )


def medium_spacecraft(satellite_id: str, owner: str,
                      elements: OrbitalElements) -> SpacecraftSpec:
    """A smallsat-bus craft: RF ISLs plus one laser terminal."""
    return SpacecraftSpec(
        satellite_id=satellite_id,
        owner=owner,
        size_class=SizeClass.MEDIUM,
        elements=elements,
        isl_terminals=[
            standard_sband_isl_terminal(),
            OpticalTerminal(),
        ],
        ground_terminal=standard_ku_space_terminal(),
        power=midsat_power_budget(),
        laser_boresights_deg=[0.0],
    )


def large_spacecraft(satellite_id: str, owner: str,
                     elements: OrbitalElements) -> SpacecraftSpec:
    """A megaconstellation-class craft: multiple laser ISLs."""
    return SpacecraftSpec(
        satellite_id=satellite_id,
        owner=owner,
        size_class=SizeClass.LARGE,
        elements=elements,
        isl_terminals=[
            standard_sband_isl_terminal(),
            OpticalTerminal(tx_power_w=4.0, aperture_m=0.1),
        ],
        ground_terminal=standard_ku_space_terminal(),
        power=largesat_power_budget(),
        laser_boresights_deg=[0.0, 90.0, 180.0, 270.0],
    )


def build_fleet(constellation, owner: str, size_class: SizeClass,
                id_prefix: str = "sat") -> List[SpacecraftSpec]:
    """One spacecraft spec per satellite in a constellation.

    Args:
        constellation: Iterable of :class:`OrbitalElements`.
        owner: Operator owning the whole fleet.
        size_class: Capability class applied to every craft.
        id_prefix: Satellite ids become ``{prefix}-{owner}-{index}``.
    """
    factory = {
        SizeClass.SMALL: small_spacecraft,
        SizeClass.MEDIUM: medium_spacecraft,
        SizeClass.LARGE: large_spacecraft,
    }[size_class]
    return [
        factory(f"{id_prefix}-{owner}-{index}", owner, elements)
        for index, elements in enumerate(constellation)
    ]
