"""The inter-satellite link abstraction.

An :class:`IslLink` binds two spacecraft terminals of a mutually supported
technology at a given range, and exposes the capacity, latency, and power
figures the routing and economics layers consume.  Per the OpenSpace
profile, "satellites should be able to communicate through either RF
signals or laser technology, depending on the specifications and current
load of the spacecraft involved" — :func:`best_link_between` implements
that selection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.phy.linkbudget import LinkBudget, LinkBudgetArrays
from repro.phy.modulation import achievable_rate_bps, achievable_rate_bps_array
from repro.phy.optical import (
    OpticalTerminal,
    optical_link_budget,
    optical_link_budget_arrays,
)
from repro.phy.rf import RFTerminal, rf_link_budget, rf_link_budget_arrays

Terminal = Union[RFTerminal, OpticalTerminal]


class LinkTechnology(enum.Enum):
    """ISL technology classes in the OpenSpace interoperability profile."""

    RF_UHF = "rf_uhf"
    RF_SBAND = "rf_sband"
    OPTICAL = "optical"

    @property
    def is_rf(self) -> bool:
        return self in (LinkTechnology.RF_UHF, LinkTechnology.RF_SBAND)


_BAND_TO_TECH = {"uhf": LinkTechnology.RF_UHF, "s_band": LinkTechnology.RF_SBAND}


def technology_of(terminal: Terminal) -> Optional[LinkTechnology]:
    """Classify a terminal as an ISL technology (None for ground bands)."""
    if isinstance(terminal, OpticalTerminal):
        return LinkTechnology.OPTICAL
    return _BAND_TO_TECH.get(terminal.band_name)


@dataclass(frozen=True)
class IslLink:
    """One established (or candidate) inter-satellite link.

    Attributes:
        node_a: Identifier of one endpoint (satellite id).
        node_b: Identifier of the other endpoint.
        technology: Selected link technology.
        distance_km: Slant range at evaluation time.
        budget: Full link-budget detail.
        capacity_bps: MODCOD-limited data rate (0 when the link does not
            close; such links are filtered out by the topology builder).
    """

    node_a: str
    node_b: str
    technology: LinkTechnology
    distance_km: float
    budget: LinkBudget
    capacity_bps: float

    @property
    def propagation_delay_s(self) -> float:
        """One-way speed-of-light delay across the link."""
        return self.distance_km / SPEED_OF_LIGHT_KM_S

    @property
    def usable(self) -> bool:
        """True when the link closes with nonzero capacity."""
        return self.capacity_bps > 0.0


def _evaluate(node_a: str, node_b: str, tech: LinkTechnology,
              term_a: Terminal, term_b: Terminal,
              distance_km: float) -> IslLink:
    """Build an :class:`IslLink` for one concrete terminal pairing."""
    if tech is LinkTechnology.OPTICAL:
        budget = optical_link_budget(term_a, term_b, distance_km)
        # Optical capacity: Shannon-limited but clipped to the terminal's
        # electrical bandwidth at a practical 2 bps/Hz.
        capacity = min(
            budget.shannon_capacity_bps,
            2.0 * min(term_a.data_bandwidth_hz, term_b.data_bandwidth_hz),
        )
        if budget.snr_db < 3.0:
            capacity = 0.0
    else:
        budget = rf_link_budget(term_a, term_b, distance_km)
        capacity = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
    return IslLink(
        node_a=node_a,
        node_b=node_b,
        technology=tech,
        distance_km=distance_km,
        budget=budget,
        capacity_bps=capacity,
    )


def terminals_by_technology(terminals: Sequence[Terminal]
                            ) -> Dict[LinkTechnology, Terminal]:
    """The first terminal of each ISL technology a spacecraft carries."""
    by_tech: Dict[LinkTechnology, Terminal] = {}
    for terminal in terminals:
        tech = technology_of(terminal)
        if tech is not None:
            by_tech.setdefault(tech, terminal)
    return by_tech


def common_technologies(by_tech_a: Dict[LinkTechnology, Terminal],
                        by_tech_b: Dict[LinkTechnology, Terminal],
                        ) -> List[LinkTechnology]:
    """Technologies both sides carry, in :class:`LinkTechnology` order.

    The order is fixed by the enum declaration, never by set iteration
    (which follows string hashes), so a capacity tie between technologies
    resolves the same way in every process.
    """
    return [tech for tech in LinkTechnology
            if tech in by_tech_a and tech in by_tech_b]


def candidate_links(node_a: str, terminals_a: Sequence[Terminal],
                    node_b: str, terminals_b: Sequence[Terminal],
                    distance_km: float) -> Iterable[IslLink]:
    """Every mutually supported technology pairing between two spacecraft,
    in :class:`LinkTechnology` declaration order."""
    by_tech_a = terminals_by_technology(terminals_a)
    by_tech_b = terminals_by_technology(terminals_b)
    for tech in common_technologies(by_tech_a, by_tech_b):
        yield _evaluate(
            node_a, node_b, tech, by_tech_a[tech], by_tech_b[tech], distance_km
        )


def best_link_between(node_a: str, terminals_a: Sequence[Terminal],
                      node_b: str, terminals_b: Sequence[Terminal],
                      distance_km: float,
                      prefer_optical: bool = True) -> Optional[IslLink]:
    """Pick the best usable link between two spacecraft.

    "Satellites must permit RF-based communication links at a minimum and
    optionally also support standardized laser-based links" — so the best
    link is the highest-capacity usable candidate, which in practice means
    optical when both sides carry (and can afford) a laser terminal, and
    the best RF band otherwise.

    Args:
        node_a: Identifier of one endpoint.
        terminals_a: Its ISL-capable terminals.
        node_b: Identifier of the other endpoint.
        terminals_b: Its ISL-capable terminals.
        distance_km: Slant range.
        prefer_optical: When False, optical candidates are skipped — used
            when a spacecraft's power budget cannot afford laser pointing.

    Returns:
        The selected :class:`IslLink`, or None when no candidate closes.
    """
    best: Optional[IslLink] = None
    for link in candidate_links(node_a, terminals_a, node_b, terminals_b,
                                distance_km):
        if not prefer_optical and link.technology is LinkTechnology.OPTICAL:
            continue
        if not link.usable:
            continue
        if best is None or link.capacity_bps > best.capacity_bps:
            best = link
    return best


@dataclass(frozen=True)
class _LinkForm:
    """The scalars one priced technology batch shares across its links.

    ``extra_loss_db`` is None when the extra loss varies per link; the
    optical ``ceiling_bps`` is None for RF.  Values keep the types the
    budget code computed them as, because snapshot digests hash reprs.
    """

    technology: LinkTechnology
    tx_power_dbw: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    extra_loss_db: Optional[float]
    noise_power_dbw: float
    bandwidth_hz: float
    ceiling_bps: Optional[float]


class IslLinkArrays:
    """A set of ISL links as parallel arrays, one entry per link.

    Endpoints are int32 indices into a node list the owner keeps;
    ``form`` indexes :attr:`forms`, which holds each link's technology
    and per-batch budget scalars.  Only these per-link fields are kept,
    never the batch-wide budget arrays they were taken from.
    :meth:`links` makes the :class:`IslLink` objects
    :func:`best_link_between` would return, field types included.
    """

    #: The per-link arrays, in constructor order.
    COLUMNS = ("node_a", "node_b", "distance_km", "capacity_bps",
               "path_loss_db", "extra_loss_db", "form", "at_ceiling")
    __slots__ = COLUMNS + ("forms",)

    def __init__(self, node_a: np.ndarray, node_b: np.ndarray,
                 distance_km: np.ndarray, capacity_bps: np.ndarray,
                 path_loss_db: np.ndarray, extra_loss_db: np.ndarray,
                 form: np.ndarray, at_ceiling: np.ndarray,
                 forms: Sequence[_LinkForm]):
        self.node_a = np.asarray(node_a, dtype=np.int32)
        self.node_b = np.asarray(node_b, dtype=np.int32)
        self.distance_km = np.asarray(distance_km, dtype=float)
        self.capacity_bps = np.asarray(capacity_bps, dtype=float)
        self.path_loss_db = np.asarray(path_loss_db, dtype=float)
        self.extra_loss_db = np.asarray(extra_loss_db, dtype=float)
        self.form = np.asarray(form, dtype=np.int32)
        #: Optical links whose capacity is the terminal ceiling, which
        #: the scalar path keeps as a Python float.
        self.at_ceiling = np.asarray(at_ceiling, dtype=bool)
        self.forms = list(forms)

    @classmethod
    def empty(cls) -> "IslLinkArrays":
        none = np.empty(0)
        return cls(none, none, none, none, none, none, none, none, [])

    @classmethod
    def concatenate(cls, parts: Sequence["IslLinkArrays"]
                    ) -> "IslLinkArrays":
        """The links of every part, in order (form indices rebased)."""
        if not parts:
            return cls.empty()
        columns = {name: np.concatenate([getattr(part, name)
                                         for part in parts])
                   for name in cls.COLUMNS}
        offsets = np.cumsum([0] + [len(part.forms) for part in parts[:-1]])
        columns["form"] = np.concatenate(
            [part.form + offset for part, offset in zip(parts, offsets)])
        return cls(**columns,
                   forms=[form for part in parts for form in part.forms])

    def take(self, positions: np.ndarray) -> "IslLinkArrays":
        """The listed links, in the listed order."""
        return IslLinkArrays(
            *(getattr(self, name)[positions] for name in self.COLUMNS),
            self.forms,
        )

    def __len__(self) -> int:
        return int(self.node_a.shape[0])

    def links(self, node_ids: Sequence[str]) -> List[IslLink]:
        """One :class:`IslLink` per link, endpoints named by ``node_ids``.

        Field types follow the scalar path, since snapshot digests hash
        reprs: the range is a Python float, the path loss a numpy
        float64, an edge-independent extra loss the scalar it was
        computed as, and the optical capacity the float64 Shannon term
        unless the Python-float ceiling binds.
        """
        forms = self.forms
        links = []
        for a, b, distance, loss, extra, capacity, raw_capacity, form_index, \
                at_ceiling in zip(
                    self.node_a.tolist(), self.node_b.tolist(),
                    self.distance_km.tolist(), list(self.path_loss_db),
                    list(self.extra_loss_db), self.capacity_bps.tolist(),
                    list(self.capacity_bps), self.form.tolist(),
                    self.at_ceiling.tolist()):
            form = forms[form_index]
            if form.extra_loss_db is not None:
                extra = form.extra_loss_db
            if form.ceiling_bps is not None:
                capacity = form.ceiling_bps if at_ceiling else raw_capacity
            links.append(IslLink(
                node_ids[a], node_ids[b], form.technology, distance,
                LinkBudget(form.tx_power_dbw, form.tx_gain_dbi,
                           form.rx_gain_dbi, loss, extra,
                           form.noise_power_dbw, form.bandwidth_hz),
                capacity,
            ))
        return links


@dataclass(frozen=True)
class _TechnologyArrays:
    """One technology's budgets and capacities over a batch of ranges."""

    technology: LinkTechnology
    budgets: LinkBudgetArrays
    capacity_bps: np.ndarray
    #: Optical only: the per-edge Shannon term and the 2 bps/Hz
    #: electrical-bandwidth ceiling it is clipped to.
    shannon_bps: Optional[np.ndarray] = None
    ceiling_bps: Optional[float] = None

    def link_arrays(self, indices: np.ndarray, node_a: np.ndarray,
                    node_b: np.ndarray,
                    distances_km: np.ndarray) -> IslLinkArrays:
        """The listed usable edges' fields, as :func:`_evaluate` sets
        them."""
        budgets = self.budgets
        extra = budgets.extra_loss_db
        per_link = isinstance(extra, np.ndarray)
        form = _LinkForm(self.technology, budgets.tx_power_dbw,
                         budgets.tx_gain_dbi, budgets.rx_gain_dbi,
                         None if per_link else extra,
                         budgets.noise_power_dbw, budgets.bandwidth_hz,
                         self.ceiling_bps)
        if self.shannon_bps is None:
            at_ceiling = np.zeros(indices.shape, dtype=bool)
        else:
            # The scalar path's min(shannon, ceiling) returns the ceiling
            # only when it is strictly smaller.
            at_ceiling = self.ceiling_bps < self.shannon_bps[indices]
        return IslLinkArrays(
            node_a, node_b, distances_km, self.capacity_bps[indices],
            budgets.path_loss_db[indices],
            extra[indices] if per_link else np.full(indices.shape, extra),
            np.zeros(indices.shape, dtype=np.int32), at_ceiling, [form],
        )


def _evaluate_arrays(tech: LinkTechnology, term_a: Terminal,
                     term_b: Terminal,
                     distances_km: np.ndarray) -> _TechnologyArrays:
    """The array counterpart of :func:`_evaluate` (same values per edge)."""
    if tech is LinkTechnology.OPTICAL:
        budgets = optical_link_budget_arrays(term_a, term_b, distances_km)
        shannon = budgets.shannon_capacity_bps
        ceiling = 2.0 * min(term_a.data_bandwidth_hz, term_b.data_bandwidth_hz)
        capacity = np.where(budgets.snr_db < 3.0, 0.0,
                            np.minimum(shannon, ceiling))
        return _TechnologyArrays(tech, budgets, capacity, shannon, ceiling)
    budgets = rf_link_budget_arrays(term_a, term_b, distances_km)
    capacity = achievable_rate_bps_array(budgets.snr_db, budgets.bandwidth_hz)
    return _TechnologyArrays(tech, budgets, capacity)


class BestLinkArrays:
    """:func:`best_link_between` for a batch of ranges between one pair
    of terminal sets.

    Every mutually supported technology is priced once over the whole
    batch; per edge the choice is the scalar path's — the first
    technology, in declaration order, with strictly the highest usable
    capacity — so :meth:`link_arrays` (made into objects by
    :meth:`IslLinkArrays.links`) holds exactly the links
    :func:`best_link_between` would return.

    Args:
        terminals_a: ISL terminals of every edge's first endpoint.
        terminals_b: ISL terminals of every edge's second endpoint.
        distances_km: Slant ranges, one per edge.
        prefer_optical: When False, optical candidates are skipped.

    Raises:
        ValueError: For a non-positive range when the sides share any
            technology (the scalar path prices every shared technology,
            skipped optical included, before choosing).
    """

    def __init__(self, terminals_a: Sequence[Terminal],
                 terminals_b: Sequence[Terminal],
                 distances_km: np.ndarray, prefer_optical: bool = True):
        distances = np.asarray(distances_km, dtype=float)
        by_tech_a = terminals_by_technology(terminals_a)
        by_tech_b = terminals_by_technology(terminals_b)
        techs = common_technologies(by_tech_a, by_tech_b)
        if techs and np.any(distances <= 0.0):
            raise ValueError(f"distance must be positive, got {distances}")
        self._options: List[_TechnologyArrays] = []
        best = np.full(distances.shape, -1, dtype=np.intp)
        best_capacity = np.zeros(distances.shape)
        for tech in techs:
            if not prefer_optical and tech is LinkTechnology.OPTICAL:
                continue
            option = _evaluate_arrays(tech, by_tech_a[tech], by_tech_b[tech],
                                      distances)
            # Usable means capacity > 0, so a zero floor doubles as "no
            # link yet"; a later technology must beat the best strictly.
            better = option.capacity_bps > best_capacity
            best = np.where(better, len(self._options), best)
            best_capacity = np.where(better, option.capacity_bps, best_capacity)
            self._options.append(option)
        self._choice = best

    @property
    def usable(self) -> np.ndarray:
        """Per edge, True when some candidate closes."""
        return self._choice >= 0

    def link_arrays(self, indices: np.ndarray, node_a: np.ndarray,
                    node_b: np.ndarray,
                    distances_km: np.ndarray) -> IslLinkArrays:
        """The selected link of each listed usable edge, in that order.

        Args:
            indices: Positions of usable edges in the batch.
            node_a: First endpoint index per listed edge.
            node_b: Second endpoint index per listed edge.
            distances_km: Range per listed edge, stored on the link.
        """
        indices = np.asarray(indices, dtype=np.intp)
        columns = (indices, node_a, node_b, distances_km)
        return gather_link_arrays(self._choice[indices],
                                  [(option, columns) for option in self._options])


def gather_link_arrays(choice: np.ndarray,
                       sources: Sequence[tuple]) -> IslLinkArrays:
    """Per entry, the links of source ``choice[entry]``, in entry order.

    Each source is ``(priced batch, (indices, node_a, node_b,
    distances))``; the batch's ``link_arrays`` receives the entries that
    chose it.
    """
    parts = []
    wheres = []
    for number, (batch, columns) in enumerate(sources):
        where = np.flatnonzero(choice == number)
        if where.size:
            parts.append(batch.link_arrays(*(column[where]
                                             for column in columns)))
            wheres.append(where)
    if not parts:
        return IslLinkArrays.empty()
    merged = IslLinkArrays.concatenate(parts)
    return merged.take(np.argsort(np.concatenate(wheres), kind="stable"))
