"""The per-link / per-node health plane.

Samples the network's state once per epoch into compact columnar arrays
(:mod:`array` typecodes, not Python object lists): per-epoch aggregates
(links up, nodes up, active faults), per-link utilization samples, and
per-node ISL-count samples.  Link and node ids are interned to integer
indices so a long run stores each id string once.

The plane also diffs consecutive samples: :meth:`HealthPlane.sample`
returns the link ids that appeared and vanished since the previous
sample, which the recorder turns into ``link.up`` / ``link.down``
timeline events.  A sample taken with ``reset=True`` starts a fresh
series — the first epoch of a scenario establishes a baseline instead of
reporting every link as newly up (and keeps serial sweeps, where one
plane spans many scenarios, byte-identical to parallel sweeps, where
each worker starts fresh).

Export is columnar too: :meth:`HealthPlane.rows` yields three
self-describing records (``health_epochs``, ``health_links``,
``health_nodes``) whose fields are parallel arrays, and
:meth:`HealthPlane.replay_rows` merges such records back — the parallel
sweep runner ships worker planes to the parent this way.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


def link_key(node_a: str, node_b: str) -> str:
    """Canonical order-independent id for an undirected link."""
    if node_b < node_a:
        node_a, node_b = node_b, node_a
    return f"{node_a}--{node_b}"


class HealthPlane:
    """Columnar per-epoch network health samples."""

    def __init__(self):
        # Per-epoch aggregates (parallel arrays, one entry per sample).
        self.epoch_t = array("d")
        self.links_up = array("l")
        self.nodes_up = array("l")
        self.faults_active = array("l")
        # Per-link utilization samples: (epoch idx, link idx, utilization).
        self._link_epoch = array("l")
        self._link_index = array("l")
        self._link_util = array("d")
        # Per-node ISL-count samples: (epoch idx, node idx, isl count).
        self._node_epoch = array("l")
        self._node_index = array("l")
        self._node_isls = array("l")
        # Id interning and presence bookkeeping.
        self._link_ids: List[str] = []
        self._link_slot: Dict[str, int] = {}
        self._link_present = array("l")  # epochs each link was up
        self._node_ids: List[str] = []
        self._node_slot: Dict[str, int] = {}
        self._previous_links: Optional[frozenset] = None

    def __len__(self) -> int:
        """Number of epochs sampled."""
        return len(self.epoch_t)

    def _link(self, link_id: str) -> int:
        slot = self._link_slot.get(link_id)
        if slot is None:
            slot = len(self._link_ids)
            self._link_slot[link_id] = slot
            self._link_ids.append(link_id)
            self._link_present.append(0)
        return slot

    def _node(self, node_id: str) -> int:
        slot = self._node_slot.get(node_id)
        if slot is None:
            slot = len(self._node_ids)
            self._node_slot[node_id] = slot
            self._node_ids.append(node_id)
        return slot

    def sample(self, time_s: float, snap,
               utilization: Optional[Dict[Tuple[str, str], float]] = None,
               faults_active: int = 0,
               reset: bool = False) -> Tuple[List[str], List[str]]:
        """Record one epoch from a snapshot's node list and edge arrays.

        Args:
            time_s: Simulated sample time.
            snap: A :class:`~repro.core.network.NetworkSnapshot`; a
                satellite's ISL count is its number of edges to other
                satellites, which lead its node order.
            utilization: Optional ``(u, v) -> load fraction`` for links
                with known utilization (unlisted links sample as 0 and
                are omitted from the per-link columns).
            faults_active: Faults in effect at this epoch.
            reset: Start a fresh diff series (no up/down reported).

        Returns:
            ``(appeared, vanished)`` — sorted link ids that changed state
            since the previous sample; both empty on a baseline sample.
        """
        epoch = len(self.epoch_t)
        nodes = snap.nodes
        edges = snap.edges
        links = frozenset(
            link_key(nodes[u], nodes[v])
            for u, v in zip(edges.u.tolist(), edges.v.tolist())
        )
        self.epoch_t.append(float(time_s))
        self.links_up.append(len(links))
        self.nodes_up.append(len(nodes))
        self.faults_active.append(int(faults_active))

        # Sorted interning: set iteration order varies with string-hash
        # randomization across processes, and id order is part of the
        # byte-identical export contract.
        for link_id in sorted(links):
            self._link_present[self._link(link_id)] += 1
        if utilization:
            for (u, v), load in sorted(utilization.items()):
                self._link_epoch.append(epoch)
                self._link_index.append(self._link(link_key(u, v)))
                self._link_util.append(float(load))

        satellites = snap.nodes_of_kind("satellite")
        isl = (edges.u < len(satellites)) & (edges.v < len(satellites))
        isls = np.bincount(np.concatenate([edges.u[isl], edges.v[isl]]),
                           minlength=len(satellites)).tolist()
        for node, index in sorted(zip(satellites, range(len(satellites)))):
            self._node_epoch.append(epoch)
            self._node_index.append(self._node(node))
            self._node_isls.append(isls[index])

        previous = self._previous_links
        self._previous_links = links
        if reset or previous is None:
            return [], []
        return sorted(links - previous), sorted(previous - links)

    def rows(self) -> List[Dict]:
        """The plane as three columnar export records (empty plane: [])."""
        if not self.epoch_t:
            return []
        return [
            {
                "type": "health_epochs",
                "t": list(self.epoch_t),
                "links_up": list(self.links_up),
                "nodes_up": list(self.nodes_up),
                "faults_active": list(self.faults_active),
            },
            {
                "type": "health_links",
                "ids": list(self._link_ids),
                "present_epochs": list(self._link_present),
                "epoch": list(self._link_epoch),
                "link": list(self._link_index),
                "utilization": list(self._link_util),
            },
            {
                "type": "health_nodes",
                "ids": list(self._node_ids),
                "epoch": list(self._node_epoch),
                "node": list(self._node_index),
                "isl_count": list(self._node_isls),
            },
        ]

    def replay_rows(self, rows: Iterable[Dict]) -> int:
        """Merge exported health records into this plane.

        Worker epochs append after this plane's current epochs; link and
        node indices are remapped through this plane's intern tables.
        Presence counts accumulate, so the merged plane's per-link
        availability equals the serial equivalent.

        Returns:
            The number of epochs merged.
        """
        rows = list(rows)
        offset = len(self.epoch_t)
        merged = 0
        for row in rows:
            if row.get("type") != "health_epochs":
                continue
            for column, target in (
                ("t", self.epoch_t), ("links_up", self.links_up),
                ("nodes_up", self.nodes_up),
                ("faults_active", self.faults_active),
            ):
                target.extend(row.get(column, []))
            merged += len(row.get("t", []))
        for row in rows:
            kind = row.get("type")
            if kind == "health_links":
                remap = [self._link(link_id) for link_id in row["ids"]]
                for slot, present in zip(remap, row["present_epochs"]):
                    self._link_present[slot] += int(present)
                for epoch, link, util in zip(
                    row["epoch"], row["link"], row["utilization"]
                ):
                    self._link_epoch.append(int(epoch) + offset)
                    self._link_index.append(remap[int(link)])
                    self._link_util.append(float(util))
            elif kind == "health_nodes":
                remap = [self._node(node_id) for node_id in row["ids"]]
                for epoch, node, isls in zip(
                    row["epoch"], row["node"], row["isl_count"]
                ):
                    self._node_epoch.append(int(epoch) + offset)
                    self._node_index.append(remap[int(node)])
                    self._node_isls.append(int(isls))
        # A merged series is a fresh diff baseline, not a continuation.
        self._previous_links = None
        return merged
