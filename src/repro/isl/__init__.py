"""Inter-satellite link substrate.

Models the links themselves (RF minimum / optional laser, per the OpenSpace
interoperability profile) and the time-varying ISL topology built from
propagated orbital state, under each spacecraft's ISL-degree ceiling (the
paper notes "the power cost of executing rotations for ISLs and
establishing those links" limits how many ISLs a satellite can run).
"""

from repro.isl.link import (
    IslLink,
    LinkTechnology,
    best_link_between,
)
from repro.isl.topology import IslTopologyBuilder, TopologySnapshot

__all__ = [
    "IslLink",
    "LinkTechnology",
    "best_link_between",
    "IslTopologyBuilder",
    "TopologySnapshot",
]
