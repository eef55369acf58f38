"""Collaboration incentives (paper Discussion, Q4).

"Relatively larger providers may find that collaborating with smaller
providers is not a net benefit for them, and it is worth expanding the
cost model presented in Section 3 to include an incentive for this
collaboration."

This module expands the cost model with contribution-weighted revenue
sharing: a pool of subscription revenue is split among operators by their
*marginal* contribution to system utility (coverage or served traffic),
computed as an exact Shapley value over operator coalitions.  Because
Shapley payments reward enabling others' traffic, a large operator earns
more inside the federation than alone whenever collaboration grows the
total pie — making the incentive explicit and auditable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Sequence, Tuple


@dataclass(frozen=True)
class IncentiveReport:
    """Outcome of one revenue-sharing computation.

    Attributes:
        utilities: Coalition -> utility (the characteristic function, as
            evaluated; useful for auditing).
        shapley: Operator -> Shapley share of the grand-coalition utility.
        payments: Operator -> revenue payment (share x revenue pool).
        standalone: Operator -> utility the operator achieves alone.
        collaboration_surplus: Operator -> payment minus the revenue the
            operator would collect alone under the same per-utility rate.
    """

    utilities: Dict[FrozenSet[str], float]
    shapley: Dict[str, float]
    payments: Dict[str, float]
    standalone: Dict[str, float]
    collaboration_surplus: Dict[str, float]

    @property
    def all_gain(self) -> bool:
        """True when every operator is better off inside the federation."""
        return all(v >= -1e-9 for v in self.collaboration_surplus.values())


def shapley_values(operators: Sequence[str],
                   utility: Callable[[FrozenSet[str]], float]) -> Tuple[
                       Dict[str, float], Dict[FrozenSet[str], float]]:
    """Exact Shapley values for a coalition utility function.

    Exponential in the operator count — fine for the handfuls of
    operators the paper contemplates; raises beyond 12 to avoid surprise
    blowups.

    Args:
        operators: The players.
        utility: Characteristic function over frozensets of operators;
            must satisfy ``utility(frozenset()) == 0`` (checked).

    Returns:
        ``(values, cached_utilities)``.
    """
    players = list(operators)
    if len(players) > 12:
        raise ValueError(
            f"exact Shapley over {len(players)} operators is intractable; "
            "sample or aggregate first"
        )
    if len(set(players)) != len(players):
        raise ValueError(f"duplicate operators: {players}")
    cache: Dict[FrozenSet[str], float] = {}

    def value(coalition: FrozenSet[str]) -> float:
        if coalition not in cache:
            cache[coalition] = float(utility(coalition))
        return cache[coalition]

    empty = value(frozenset())
    if abs(empty) > 1e-12:
        raise ValueError(f"utility of the empty coalition must be 0, got {empty}")

    n = len(players)
    shapley = {p: 0.0 for p in players}
    for player in players:
        others = [p for p in players if p != player]
        for size in range(n):
            weight = (
                math.factorial(size) * math.factorial(n - size - 1)
                / math.factorial(n)
            )
            for subset in itertools.combinations(others, size):
                coalition = frozenset(subset)
                marginal = value(coalition | {player}) - value(coalition)
                shapley[player] += weight * marginal
    return shapley, cache


def revenue_sharing(operators: Sequence[str],
                    utility: Callable[[FrozenSet[str]], float],
                    revenue_pool: float) -> IncentiveReport:
    """Split a revenue pool by Shapley contribution.

    Args:
        operators: Federation members.
        utility: Coalition utility (coverage fraction, served demand, ...).
        revenue_pool: Total subscription revenue to distribute.

    Returns:
        An :class:`IncentiveReport`; ``collaboration_surplus`` compares
        each operator's federated payment against the revenue it could
        collect alone at the same revenue-per-utility rate.
    """
    if revenue_pool < 0.0:
        raise ValueError(f"revenue pool must be >= 0, got {revenue_pool}")
    shapley, cache = shapley_values(operators, utility)
    grand = cache[frozenset(operators)] if operators else 0.0
    total_shapley = sum(shapley.values())
    # Shapley efficiency: shares sum to the grand utility.
    payments = {}
    for operator in operators:
        share = shapley[operator] / total_shapley if total_shapley > 0 else 0.0
        payments[operator] = share * revenue_pool
    standalone = {
        operator: cache.get(frozenset({operator}),
                            float(utility(frozenset({operator}))))
        for operator in operators
    }
    rate = revenue_pool / grand if grand > 0 else 0.0
    surplus = {
        operator: payments[operator] - standalone[operator] * rate
        for operator in operators
    }
    return IncentiveReport(
        utilities=dict(cache),
        shapley=shapley,
        payments=payments,
        standalone=standalone,
        collaboration_surplus=surplus,
    )


def coverage_utility(fleet_by_operator: Dict[str, Sequence],
                     altitude_km: float = 780.0,
                     time_s: float = 0.0) -> Callable[[FrozenSet[str]], float]:
    """A coalition utility: union footprint coverage of the joint fleet.

    Superadditive by construction (more satellites never shrink the
    union), which is what makes collaboration a positive-sum game.

    Args:
        fleet_by_operator: Operator -> its :class:`SpacecraftSpec` list;
            every operator's satellites propagate to ``time_s`` in one
            fleet.
    """
    import numpy as np

    from repro.orbits.kepler import KeplerFleet, batch_positions
    from repro.orbits.visibility import coverage_fraction

    fleets = [list(fleet) for fleet in fleet_by_operator.values()]
    positions = batch_positions(
        KeplerFleet([spec.elements for fleet in fleets for spec in fleet]),
        time_s)[:, 0]
    positions_by_operator = dict(zip(
        fleet_by_operator,
        np.split(positions, np.cumsum([len(fleet) for fleet in fleets])[:-1]),
    ))

    def utility(coalition: FrozenSet[str]) -> float:
        if not coalition:
            return 0.0
        stacked = np.vstack([
            positions_by_operator[op] for op in sorted(coalition)
        ])
        return coverage_fraction(stacked, altitude_km)

    return utility


def viable_service_utility(fleet_by_operator: Dict[str, Sequence],
                           viability_threshold: float = 0.9,
                           altitude_km: float = 780.0,
                           time_s: float = 0.0) -> Callable[[FrozenSet[str]], float]:
    """Coalition utility under the paper's all-or-nothing business model.

    "LEO satellites have an all-or-nothing business model, where a
    constellation needs wide geographical coverage from the start to
    achieve reliable connectivity."  A coalition whose joint coverage
    falls below the viability threshold earns nothing — no customers
    subscribe to patchwork service; above it, utility is the coverage.

    This is the characteristic function under which collaboration is an
    incentive for *everyone*: small operators are individually worthless,
    and even a large operator below the threshold monetizes nothing until
    it federates.

    Args:
        fleet_by_operator: As in :func:`coverage_utility`.
        viability_threshold: Minimum joint coverage for a sellable service.
        altitude_km: Constellation altitude for footprints.
        time_s: Evaluation epoch.
    """
    if not 0.0 < viability_threshold <= 1.0:
        raise ValueError(
            f"viability threshold must be in (0, 1], got {viability_threshold}"
        )
    base = coverage_utility(fleet_by_operator, altitude_km, time_s)

    def utility(coalition: FrozenSet[str]) -> float:
        coverage = base(coalition)
        return coverage if coverage >= viability_threshold else 0.0

    return utility
