"""Outside-in stage tracer for the end-to-end benchmark.

The program carries no stage spans of its own yet, so the traced worker
wraps public callables at the module or class attribute each caller
looks up (``TARGETS``).  Every wrapped call pushes a frame; when it
returns, its duration minus the time its child frames covered is the
stage's self time.  Aggregates stay in memory and are collected once per
step with :meth:`Tracer.take`; nothing is written until the run ends.

Untraced workers never import this module's :func:`install`, so the code
they time is the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

OTHER = "experiment.other"

#: Named stages in pipeline order.
STAGES = (
    "orbits.propagate",
    "isl.candidates",
    "isl.assign",
    "phy.link_budget",
    "network.snapshot_assemble",
    "network.probe",
    "routing.csr_compile",
    "routing.relay_build",
    "routing.dijkstra",
    "demand.route_map",
    "demand.waterfill",
    "faults.apply",
)

#: Work counts reported per stage, per step, as ``(name, unit)``.
#: ``link_yield``, ``cache_hit_ratio`` and ``isl_churn`` are ratios over
#: the whole timed run (see :func:`summarize`), not per-step sums.
WORK = {
    "orbits.propagate": (("sat_epochs", "count"),),
    "isl.candidates": (("pairs", "count"),),
    "isl.assign": (("links", "count"), ("link_yield", "ratio")),
    "phy.link_budget": (("evals", "count"),),
    "network.snapshot_assemble": (
        ("full_builds", "count"), ("delta_builds", "count"),
        ("cache_hit_ratio", "ratio"), ("isl_churn", "ratio"),
    ),
    "network.probe": (("users", "count"),),
    "routing.csr_compile": (("entries", "count"),),
    "routing.relay_build": (("edges", "count"),),
    "routing.dijkstra": (("sources", "count"),),
    "demand.route_map": (("cells", "count"),),
    "demand.waterfill": (("iterations", "count"),),
    "faults.apply": (),
}


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for stage in STAGES:
        units[f"{stage}.self_s"] = "s"
        units[f"{stage}.calls"] = "count"
        for name, unit in WORK[stage]:
            units[f"{stage}.{name}"] = unit
    units[f"{OTHER}.self_s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """A stack of open stage frames plus per-step aggregates.

    Args:
        clock: Monotonic time source (seconds); tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Each frame is [stage, start, seconds covered by child frames].
        self._stack: List[list] = []
        self._totals: Dict[str, float] = defaultdict(float)
        #: Per-network build counters seen at the previous snapshot call.
        self.network_memo = weakref.WeakKeyDictionary()
        #: Snapshots handed out so far, by id, to recognise cache hits.
        self.seen_snapshots = weakref.WeakValueDictionary()

    def wrap(self, stage: str, fn: Callable,
             work: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``stage``; ``work(tracer, args, result)`` then
        records the call's work counts.

        A call made directly inside another call of the same stage adds
        its self time but not a second entry to ``calls``.
        """
        stack = self._stack
        totals = self._totals
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != stage:
                totals[f"{stage}.calls"] += 1
            frame = [stage, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                totals[f"{stage}.self_s"] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if work is not None:
                work(self, args, result)
            return result

        return traced

    def add(self, key: str, amount: float = 1.0) -> None:
        self._totals[key] += amount

    def caller_stage(self) -> Optional[str]:
        """The stage of the innermost open frame (the caller of a call
        whose frame has just closed)."""
        return self._stack[-1][0] if self._stack else None

    def take(self) -> Dict[str, float]:
        """Aggregates since the previous call, then reset."""
        totals = dict(self._totals)
        self._totals.clear()
        return totals


def summarize(steps: Sequence[Dict[str, float]],
              step_s: Sequence[float]) -> Dict[str, float]:
    """Per-step means of every stage aggregate, plus the derived ratios.

    Args:
        steps: One :meth:`Tracer.take` result per timed step.
        step_s: The matching step wall-clock times.

    Returns:
        Every per-layer metric of :func:`layer_metric_units` except
        ``trace.overhead``, which needs the untraced run.
    """
    count = len(steps)
    if count == 0 or count != len(step_s):
        raise ValueError("need one aggregate per timed step")
    total: Dict[str, float] = defaultdict(float)
    for record in steps:
        for key, value in record.items():
            total[key] += value
    wall = float(sum(step_s))

    def ratio(numerator: str, denominator: str) -> float:
        below = total[denominator]
        return total[numerator] / below if below else 0.0

    out: Dict[str, float] = {}
    covered = 0.0
    for stage in STAGES:
        covered += total[f"{stage}.self_s"]
        out[f"{stage}.self_s"] = total[f"{stage}.self_s"] / count
        out[f"{stage}.calls"] = total[f"{stage}.calls"] / count
        for name, unit in WORK[stage]:
            if unit == "count":
                out[f"{stage}.{name}"] = total[f"{stage}.{name}"] / count
    out["isl.assign.link_yield"] = ratio("isl.assign.links",
                                         "isl.assign.budget_evals")
    out["network.snapshot_assemble.cache_hit_ratio"] = ratio(
        "network.snapshot_assemble.cache_hits",
        "network.snapshot_assemble.calls")
    out["network.snapshot_assemble.isl_churn"] = ratio(
        "network.snapshot_assemble.churn_sum",
        "network.snapshot_assemble.churn_builds")
    out[f"{OTHER}.self_s"] = (wall - covered) / count
    out["trace.coverage"] = covered / wall if wall > 0.0 else 0.0
    return out


# -- work counts -----------------------------------------------------------
# Each hook runs after its call returned, so ``caller_stage`` is the
# stage that made the call.

def _sat_epochs(tracer, args, result):
    tracer.add("orbits.propagate.sat_epochs", result.shape[0] * result.shape[1])


def _pairs(tracer, args, result):
    tracer.add("isl.candidates.pairs", result.size)


def _links(tracer, args, result):
    tracer.add("isl.assign.links", result.link_count)


def _isl_budget(tracer, args, result):
    tracer.add("phy.link_budget.evals")
    if tracer.caller_stage() == "isl.assign":
        tracer.add("isl.assign.budget_evals")


def _one_eval(tracer, args, result):
    tracer.add("phy.link_budget.evals")


def _array_evals(tracer, args, result):
    tracer.add("phy.link_budget.evals", result.snr_db.size)


def _snapshot(tracer, args, result):
    """Build kinds from the public ``delta_stats``; a cache hit is a
    snapshot object handed out before."""
    network = args[0]
    stats = network.delta_stats
    full, delta, last = tracer.network_memo.get(network, (0, 0, None))
    tracer.add("network.snapshot_assemble.full_builds",
               stats["full_builds"] - full)
    tracer.add("network.snapshot_assemble.delta_builds",
               stats["delta_builds"] - delta)
    current = network.last_snapshot_delta
    if current is not last and current is not None and current.isl is not None:
        tracer.add("network.snapshot_assemble.churn_sum",
                   current.isl.churn_fraction)
        tracer.add("network.snapshot_assemble.churn_builds")
    tracer.network_memo[network] = (stats["full_builds"],
                                    stats["delta_builds"], current)
    if tracer.seen_snapshots.get(id(result)) is result:
        tracer.add("network.snapshot_assemble.cache_hits")
    else:
        tracer.seen_snapshots[id(result)] = result


def _users(tracer, args, result):
    tracer.add("network.probe.users", len(result))


def _entries(tracer, args, result):
    tracer.add("routing.csr_compile.entries", result.entry_count)


def _leaf_entries(tracer, args, result):
    tracer.add("routing.csr_compile.entries", result[1].size)


def _sources(tracer, args, result):
    tracer.add("routing.dijkstra.sources", len(result.sources))


def _block_sources(tracer, args, result):
    tracer.add("routing.dijkstra.sources", result[0].shape[0])


def _csgraph_sources(tracer, args, result):
    dist = result[0] if isinstance(result, tuple) else result
    tracer.add("routing.dijkstra.sources",
               dist.shape[0] if dist.ndim == 2 else 1)
    if tracer.caller_stage() == "routing.relay_build":
        # The relay graph is built inside figure2 and handed straight to
        # csgraph; its stored entries hold each undirected edge twice.
        tracer.add("routing.relay_build.edges", args[0].nnz // 2)


def _cells(tracer, args, result):
    tracer.add("demand.route_map.cells", len(result))


def _iterations(tracer, args, result):
    tracer.add("demand.waterfill.iterations", result[1])


#: ``(stage, owner, attribute, work hook)``.  ``owner`` is a module, or
#: ``module:Class`` for methods; the attribute is the one the caller
#: looks up, so functions imported by name are wrapped in the importing
#: module.
TARGETS = (
    ("orbits.propagate", "repro.core.network", "batch_positions", _sat_epochs),
    ("orbits.propagate", "repro.orbits.walker", "batch_positions", _sat_epochs),
    ("orbits.propagate", "repro.simulation.batched", "batch_positions",
     _sat_epochs),
    ("isl.candidates", "repro.core.spatial:SpatialGridIndex",
     "candidate_pairs", None),
    ("isl.candidates", "repro.isl.topology", "line_of_sight_mask", _pairs),
    ("isl.assign", "repro.isl.topology:IslTopologyBuilder", "snapshot", _links),
    ("isl.assign", "repro.isl.topology:IslTopologyBuilder", "snapshot_delta",
     None),
    ("phy.link_budget", "repro.isl.topology", "best_link_between", _isl_budget),
    ("phy.link_budget", "repro.core.network", "rf_link_budget", _one_eval),
    ("phy.link_budget", "repro.core.network", "achievable_rate_bps", None),
    ("phy.link_budget", "repro.core.network", "rf_link_budget_arrays",
     _array_evals),
    ("phy.link_budget", "repro.core.network", "achievable_rate_bps_array", None),
    ("network.snapshot_assemble", "repro.core.network:OpenSpaceNetwork",
     "snapshot", _snapshot),
    ("network.probe", "repro.core.network:OpenSpaceNetwork",
     "gateway_probe_paths", _users),
    ("routing.csr_compile", "repro.routing.csr:CsrAdjacency", "from_graph",
     _entries),
    ("routing.csr_compile", "repro.routing.csr:CsrAdjacency",
     "append_leaf_arrays", _leaf_entries),
    ("routing.csr_compile", "repro.core.network:NetworkSnapshot",
     "csr_adjacency", None),
    ("routing.relay_build", "repro.experiments.figure2",
     "_relay_latency_batch_s", None),
    ("routing.dijkstra", "repro.routing.csr:CsrAdjacency", "shortest_paths",
     _sources),
    ("routing.dijkstra", "repro.routing.csr:CsrAdjacency", "single_source",
     None),
    ("routing.dijkstra", "repro.core.network", "block_diagonal_dijkstra",
     _block_sources),
    ("routing.dijkstra", "scipy.sparse.csgraph", "dijkstra", _csgraph_sources),
    ("demand.route_map", "repro.demand.fluid", "map_cells_to_routes", _cells),
    ("demand.waterfill", "repro.demand.fluid", "waterfill_rates", _iterations),
    ("faults.apply", "repro.core.network:OpenSpaceNetwork", "set_fault_state",
     None),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` for the rest of the process.

    All owners are imported before anything is patched: ``repro.routing.
    csr`` binds csgraph's ``dijkstra`` at import, and must bind the
    original so CSR searches are not counted twice.
    """
    owners = [(stage, _owner(path), attribute, work)
              for stage, path, attribute, work in TARGETS]
    for stage, owner, attribute, work in owners:
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, classmethod):
            patched = classmethod(tracer.wrap(stage, original.__func__, work))
        else:
            patched = tracer.wrap(stage, original, work)
        setattr(owner, attribute, patched)
