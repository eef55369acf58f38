"""The per-flow max-min-fair referee for the flow simulator.

:class:`repro.simulation.flowsim.FlowSimulator` allocates with
:func:`repro.demand.fluid.waterfill_rates` at infinite demand; this is
the progressive-filling loop it replaced, kept to hold that allocator
to the classic algorithm written out flow by flow.
"""

from typing import Dict, Hashable, List, Sequence


def max_min_fair_rates(flow_links: Sequence[Sequence[Hashable]],
                       capacities: Dict[Hashable, float]) -> List[float]:
    """Progressive-filling max-min fair rate of every flow, in order.

    Classic water-filling: repeatedly find the most constrained link
    (capacity / unfrozen flows), freeze its flows at that fair share, and
    continue with residual capacities.  A flow that crosses no
    finite-capacity link is never constrained and gets an infinite
    rate.

    Args:
        flow_links: The links each flow crosses (keys of
            ``capacities``).
        capacities: Link -> capacity in bps.
    """
    residual = dict(capacities)
    users: Dict[Hashable, List[int]] = {}
    rates = [0.0] * len(flow_links)
    for flow, links in enumerate(flow_links):
        for link in links:
            users.setdefault(link, []).append(flow)
    unfrozen = set(range(len(flow_links)))

    while unfrozen:
        # Fair share on each still-loaded link.
        best_link = None
        best_share = float("inf")
        for link, link_flows in users.items():
            active = [f for f in link_flows if f in unfrozen]
            if not active:
                continue
            share = residual[link] / len(active)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            for flow in unfrozen:
                rates[flow] = float("inf")
            break
        # Freeze every unfrozen flow on the bottleneck link.
        for flow in users[best_link]:
            if flow not in unfrozen:
                continue
            rates[flow] = best_share
            unfrozen.discard(flow)
            for link in flow_links[flow]:
                residual[link] = max(0.0, residual[link] - best_share)
    return rates
