"""The scalar greedy ISL assignment, kept as a test oracle.

This is the topology builder as it was before the shell-wise rewrite:
every pair of the upper triangle, the exact range and line-of-sight
filters, one stable nearest-first sort, and a Python walk over the whole
sorted sequence that prices each pair with :func:`best_link_between`
when both endpoints still have spare degree.  It is slow and obviously
right, which is what the property tests compare the builder against.
"""

import networkx as nx
import numpy as np

from repro.isl.link import best_link_between
from tests.orbits.oracle import line_of_sight_mask


def oracle_graph(nodes, positions, max_range_km=6000.0,
                 grazing_altitude_km=80.0, exclude=None):
    """The ISL graph the scalar greedy builds (same node/edge order)."""
    excluded = frozenset(exclude or ())
    nodes = [n for n in nodes if n.node_id not in excluded]
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, owner=node.owner)
    if len(nodes) < 2:
        return graph
    pos_matrix = np.stack(
        [np.asarray(positions[n.node_id], dtype=float) for n in nodes]
    )
    rows, cols = np.triu_indices(len(nodes), k=1)
    delta = pos_matrix[rows] - pos_matrix[cols]
    distances = np.sqrt((delta * delta).sum(axis=-1))
    feasible = (distances <= max_range_km) & line_of_sight_mask(
        pos_matrix[rows], pos_matrix[cols], grazing_altitude_km,
    )
    rows, cols, distances = rows[feasible], cols[feasible], distances[feasible]
    order = np.argsort(distances, kind="stable")

    degree = {node.node_id: 0 for node in nodes}
    for distance, row, col in zip(distances[order].tolist(),
                                  rows[order].tolist(), cols[order].tolist()):
        node_a, node_b = nodes[row], nodes[col]
        if degree[node_a.node_id] >= node_a.max_degree:
            continue
        if degree[node_b.node_id] >= node_b.max_degree:
            continue
        link = best_link_between(
            node_a.node_id, node_a.terminals,
            node_b.node_id, node_b.terminals,
            distance,
            prefer_optical=node_a.allow_optical and node_b.allow_optical,
        )
        if link is None:
            continue
        graph.add_edge(node_a.node_id, node_b.node_id, link=link,
                       delay_s=link.propagation_delay_s,
                       capacity_bps=link.capacity_bps)
        degree[node_a.node_id] += 1
        degree[node_b.node_id] += 1
    return graph
