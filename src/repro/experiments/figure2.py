"""Figure 2 regeneration (the paper's entire quantitative evaluation).

* **2(a)** — the simulated OpenSpace constellation: an Iridium-like Walker
  Star (66 satellites, 780 km, 6 near-polar planes) "achiev[ing] global
  coverage while maintaining inter-satellite distances and trajectories
  that allow for simple and sustained ISLs."
* **2(b)** — propagation latency vs constellation size: latency falls
  sharply up to ~25 satellites then plateaus around 30 ms; about four
  satellites are the minimum for any connectivity.
* **2(c)** — coverage vs constellation size: total earth coverage around
  50 satellites; extra satellites buy redundancy.

Methodology follows the paper: fixed user and ground-station coordinates,
randomly distributed satellite orbital paths, shortest path between the
pickup satellite and the relay satellite, path length -> latency, and the
worst-case overlap rule for coverage (with the union estimate reported
alongside; see EXPERIMENTS.md for the estimator discussion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro import obs as _obs
from repro.isl.topology import IslNode, IslTopologyBuilder
from repro.orbits.constants import (
    IRIDIUM_ALTITUDE_KM,
    SPEED_OF_LIGHT_KM_S,
)
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci_over
from repro.orbits.visibility import (
    chord_clears_grazing,
    cluster_coverage_fraction,
    coverage_fraction,
    elevations_and_ranges,
    line_of_sight_mask,
    squared_norms,
    worst_case_coverage_fraction,
)
from repro.orbits.walker import iridium_like, random_constellation
from repro.parallel import derive_seed, run_grid
from repro.phy.rf import standard_sband_isl_terminal
from repro.simulation.metrics import SeriesCollector

#: The paper's fixed endpoints: a user in an underserved region and a
#: gateway on another continent (exact coordinates are not given in the
#: paper; these choices are documented in EXPERIMENTS.md).
DEFAULT_USER_SITE = GeodeticPoint(-1.29, 36.82, 0.0)      # Nairobi
DEFAULT_GATEWAY_SITE = GeodeticPoint(50.11, 8.68, 0.0)    # Frankfurt


@dataclass
class ConstellationReport:
    """Figure 2(a): the reference constellation's headline properties.

    Attributes:
        name: Constellation label.
        satellite_count: Total satellites.
        plane_count: Orbital planes.
        altitude_km: Constellation altitude.
        inclination_deg: Plane inclination.
        isl_count: Established ISLs at epoch.
        mean_isl_distance_km: Mean established-ISL slant range.
        max_isl_distance_km: Longest established ISL.
        connected: Whether the ISL graph is a single component.
        coverage_union: Footprint-union coverage fraction.
        coverage_worst_case: Paper-rule (pairwise overlap) coverage.
    """

    name: str
    satellite_count: int
    plane_count: int
    altitude_km: float
    inclination_deg: float
    isl_count: int
    mean_isl_distance_km: float
    max_isl_distance_km: float
    connected: bool
    coverage_union: float
    coverage_worst_case: float


def figure_2a_constellation(time_s: float = 0.0) -> ConstellationReport:
    """Build and characterize the paper's reference constellation."""
    with _obs.span("experiment.figure2a", time_s=time_s):
        return _figure_2a_constellation(time_s)


def _figure_2a_constellation(time_s: float) -> ConstellationReport:
    constellation = iridium_like()
    positions = constellation.positions_at(time_s)
    ids = [f"sat{i}" for i in range(len(constellation))]
    nodes = [
        IslNode(ids[i], [standard_sband_isl_terminal()], max_degree=4)
        for i in range(len(constellation))
    ]
    builder = IslTopologyBuilder(nodes)
    snap = builder.snapshot(time_s, dict(zip(ids, positions)))
    links = snap.links
    # Link distances by lower endpoint, acceptance order within one: the
    # order the mean has always summed them in.
    distances = links.distance_km[np.argsort(
        np.minimum(links.node_a, links.node_b), kind="stable")]
    count = len(snap.node_ids)
    adjacency = csr_matrix((np.ones(len(links)), (links.node_a, links.node_b)),
                           shape=(count, count))
    elements = constellation.elements[0]
    return ConstellationReport(
        name=constellation.name,
        satellite_count=len(constellation),
        plane_count=constellation.plane_count,
        altitude_km=elements.altitude_km,
        inclination_deg=math.degrees(elements.inclination_rad),
        isl_count=snap.link_count,
        mean_isl_distance_km=(float(np.mean(distances)) if distances.size
                              else 0.0),
        max_isl_distance_km=(float(np.max(distances)) if distances.size
                             else 0.0),
        connected=connected_components(adjacency, directed=False,
                                       return_labels=False) == 1,
        coverage_union=coverage_fraction(positions, elements.altitude_km),
        coverage_worst_case=worst_case_coverage_fraction(
            positions, elements.altitude_km
        ),
    )


def _checked_counts(satellite_counts: Sequence[int],
                    altitude_km: float) -> List[int]:
    """The sweep's fleet sizes as ints, after the checks both Figure 2
    sweeps make before any fleet is built.

    Raises:
        ValueError: no count, a count below one, a count named twice (its
            seeded trials would be pooled twice), or an altitude that is
            not a finite positive number.
    """
    counts = [int(count) for count in satellite_counts]
    if not counts:
        raise ValueError("satellite_counts must name at least one fleet size")
    for count in counts:
        if count < 1:
            raise ValueError(f"need at least one satellite, got {count}")
    repeated = sorted({count for count in counts if counts.count(count) > 1})
    if repeated:
        raise ValueError(f"satellite counts repeat: {repeated}")
    if not (math.isfinite(altitude_km) and altitude_km > 0.0):
        raise ValueError(
            f"altitude must be a finite positive number, got {altitude_km}")
    return counts


def _relay_latency_batch_s(positions_all: np.ndarray,
                           user_ecis: np.ndarray,
                           gateway_ecis: np.ndarray,
                           min_elevation_deg: float = 10.0,
                           max_isl_range_km: float = 6000.0) -> np.ndarray:
    """All epochs of one trial's relay measurement in one csgraph call.

    Builds a block-diagonal CSR matrix — one disjoint relay graph per
    epoch, ``N + 2`` nodes each (satellites, user, gateway) — straight
    from vectorized elevation, range and line-of-sight tests, then
    answers every epoch's
    user→gateway distance with one ``min_only`` Dijkstra.

    Cheap closed forms only propose candidates or certify a predicate;
    the exact formulas decide every kept value:

    * a batched Gram bound proposes ISL pairs, and the exact
      ``sqrt(squared_norms(a - b)) <= max_isl_range_km`` test and
      ``range / c`` weight run on those candidates only;
    * :func:`chord_clears_grazing` certifies line of sight for the whole
      batch from the lowest satellite radius and the range cap, and
      :func:`line_of_sight_mask` runs on in-range pairs only when it
      cannot;
    * one :func:`elevations_and_ranges` pass per ground site gives every
      (epoch, satellite) elevation and slant range, and the visible
      pairs' ranges are read from it.

    The epoch blocks share no edges, and a Dijkstra distance is the
    minimum of ``d[u] + w`` over settled in-neighbours ``u`` whatever
    order the heap pops them in, so the one vector of distances from all
    sources holds, per block, the bits of a standalone single-epoch
    search.

    Args:
        positions_all: ``(N, K, 3)`` satellite ECI positions over epochs.
        user_ecis: ``(K, 3)`` user ECI positions per epoch.
        gateway_ecis: ``(K, 3)`` gateway positions per epoch.

    Returns:
        ``(K,)`` one-way latencies in seconds; ``inf`` where unreachable.
    """
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    count, epochs = positions_all.shape[0], positions_all.shape[1]
    stride = count + 2
    mask_rad = math.radians(min_elevation_deg)
    # (K, N, 3) with the epoch axis leading; every geometry pass below
    # broadcasts over it, so no Python work scales with epoch count.
    pts = np.ascontiguousarray(positions_all.transpose(1, 0, 2))
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    data: List[np.ndarray] = []
    for offset, ground_ecis in ((count, user_ecis), (count + 1, gateway_ecis)):
        elevations, ranges = elevations_and_ranges(
            np.asarray(ground_ecis, dtype=float)[:, None, :], pts)
        vis_epoch, vis_sat = np.nonzero(elevations >= mask_rad)
        if vis_epoch.size == 0:
            continue
        weights = ranges[vis_epoch, vis_sat] / SPEED_OF_LIGHT_KM_S
        ground_nodes = vis_epoch * stride + offset
        sat_nodes = vis_epoch * stride + vis_sat
        rows.extend((ground_nodes, sat_nodes))
        cols.extend((sat_nodes, ground_nodes))
        data.extend((weights, weights))
    if count >= 2 and epochs:
        norms = squared_norms(pts)
        isl_epoch, first, second, distances = _isl_in_range(
            pts, norms, max_isl_range_km)
        if not chord_clears_grazing(math.sqrt(float(norms.min())),
                                    max_isl_range_km):
            clear = line_of_sight_mask(pts[isl_epoch, first],
                                       pts[isl_epoch, second])
            isl_epoch, first, second, distances = (
                isl_epoch[clear], first[clear], second[clear],
                distances[clear])
        isl_rows = isl_epoch * stride + first
        isl_cols = isl_epoch * stride + second
        weights = distances / SPEED_OF_LIGHT_KM_S
        rows.extend((isl_rows, isl_cols))
        cols.extend((isl_cols, isl_rows))
        data.extend((weights, weights))
    size = epochs * stride
    if rows:
        row_arr = np.concatenate(rows)
        col_arr = np.concatenate(cols)
        data_arr = np.concatenate(data).astype(np.float64)
    else:
        row_arr = col_arr = np.empty(0, dtype=np.int64)
        data_arr = np.empty(0, dtype=np.float64)
    matrix = csr_matrix((data_arr, (row_arr, col_arr)), shape=(size, size))
    sources = np.arange(epochs) * stride + count
    with _obs.span("routing.relay.shortest_path_batch",
                   epochs=epochs, nodes=size, edges=int(data_arr.size // 2)):
        dist = _csgraph_dijkstra(matrix, directed=True, indices=sources,
                                 min_only=True)
    return dist[sources + 1]


def _isl_in_range(pts: np.ndarray, norms: np.ndarray, max_range_km: float):
    """Every ``(epoch, i < j)`` satellite pair within ``max_range_km``.

    One batched ``np.matmul`` gives each epoch's Gram matrix, and
    ``|a|^2 + |b|^2 - 2 a.b <= cap^2 + slack`` proposes candidates.
    With every norm at most ``R``, that expression is within about
    ``10 eps R^2`` of the true squared distance (three roundings in each
    norm and dot product, two to combine them), and a pair the exact
    test keeps is at most ``cap^2 (1 + 4 eps)`` apart squared, so a
    slack of ``64 eps (cap^2 + R^2)`` misses none.  The exact test and
    distance then run on the candidates alone.

    Args:
        pts: ``(K, N, 3)`` positions, epoch axis first.
        norms: ``(K, N)`` squared norms, :func:`squared_norms` of
            ``pts``.
        max_range_km: Inclusive range cap.

    Returns:
        ``(epoch, first, second, distance_km)`` arrays of the kept pairs,
        epoch-major with ``first < second`` in row-major order.
    """
    bound = np.matmul(pts, pts.transpose(0, 2, 1))
    bound *= -2.0
    bound += norms[:, :, None]
    bound += norms[:, None, :]
    cap_sq = max_range_km * max_range_km
    slack = 64.0 * np.finfo(float).eps * (cap_sq + float(norms.max()))
    count = pts.shape[1]
    upper = np.triu(np.ones((count, count), dtype=bool), k=1)
    # Flat index (epoch * N + first) * N + second: its quotient by N is
    # the first satellite's row in the flattened (K * N, 3) positions.
    row_a, second = np.divmod(
        np.flatnonzero((bound <= cap_sq + slack) & upper), count)
    epoch, first = np.divmod(row_a, count)
    flat_pts = pts.reshape(-1, 3)
    distances = np.sqrt(squared_norms(
        np.take(flat_pts, row_a, axis=0)
        - np.take(flat_pts, row_a - first + second, axis=0)))
    keep = distances <= max_range_km
    return epoch[keep], first[keep], second[keep], distances[keep]


def _figure_2b_point(args: tuple) -> Dict:
    """One Figure 2(b) sweep point: all trials/epochs for one count.

    Module-level so :func:`repro.parallel.run_grid` can pickle it into
    worker processes; all randomness comes from the point's derived
    seed, so results are identical at any job count.  The epoch grid and
    the ``(epochs, 3)`` user and gateway ECI tracks on it are the same
    for every point, so the sweep computes them once.

    Every trial's constellation is drawn in turn from the point's RNG
    and propagated over the epoch grid; the trial tensors are joined
    along the epoch axis and ONE relay kernel call answers every
    ``(trial, epoch)`` measurement.  Samples come out trial-major,
    epoch-ascending.
    """
    (count, trials, point_seed, altitude_km, epoch_times,
     user_track, gateway_track) = args
    rng = np.random.default_rng(point_seed)
    recorder = _obs.active()
    samples: List[float] = []
    reached = 0
    total = 0
    with recorder.span("experiment.figure2b.sweep_point",
                       satellites=count, trials=trials,
                       epochs=len(epoch_times)):
        trial_tensors = []
        for _ in range(trials):
            constellation = random_constellation(count, rng,
                                                 altitude_km=altitude_km)
            with recorder.phase("figure2b.propagate"):
                trial_tensors.append(constellation.positions_over(epoch_times))
        with recorder.phase("figure2b.relay_path"):
            latencies = _relay_latency_batch_s(
                np.concatenate(trial_tensors, axis=1),
                np.tile(user_track, (trials, 1)),
                np.tile(gateway_track, (trials, 1)),
                min_elevation_deg=0.0,
            )
        for value in latencies:
            total += 1
            latency = float(value)
            if math.isfinite(latency):
                samples.append(latency * 1000.0)
                reached += 1
                if recorder.enabled:
                    recorder.observe("figure2b.latency_ms",
                                     latency * 1000.0, label=str(count))
    return {"count": count, "samples": samples,
            "reached": reached, "total": total}


def figure_2b_latency(satellite_counts: Sequence[int] = tuple(
                          list(range(4, 30, 3)) + [35, 45, 55, 70]),
                      trials: int = 4,
                      epochs: int = 6,
                      seed: int = 42,
                      altitude_km: float = IRIDIUM_ALTITUDE_KM,
                      user_site: GeodeticPoint = DEFAULT_USER_SITE,
                      gateway_site: GeodeticPoint = DEFAULT_GATEWAY_SITE,
                      jobs: int = 1,
                      engine: str = "batched") -> Dict:
    """Propagation latency vs constellation size (paper Figure 2(b)).

    For each satellite count, ``trials`` random constellations are drawn;
    each is sampled at ``epochs`` instants spread over one day (satellites
    orbit and the Earth rotates, so a satellite eventually "orbit[s] in
    range of the user's or ground station's location" — the paper's
    minimum-four-satellites guarantee is a temporal statement).  Latency is
    collected over the reachable epochs; reachability is the fraction of
    epochs with any relay path.

    Each satellite count is an independent sweep point with its own
    derived seed, so ``jobs > 1`` fans points across processes without
    changing any value in the result.

    A sweep point runs as one tensor pipeline: every trial's constellation
    is propagated over the epoch grid, the trial tensors are joined into
    one ``(sats, trials * epochs, 3)`` tensor, and one relay kernel call
    (Gram-bound ISL candidates, the chord certificate for line of sight,
    one ``min_only`` :func:`scipy.sparse.csgraph.dijkstra` call over the
    block-diagonal relay graph) answers every ``(trial, epoch)`` pair.
    ``engine`` names that pipeline; ``"batched"`` is its only value.

    Returns:
        ``{"series": [...rows...], "reachability": {count: fraction}}``
        where each series row is ``{"x", "mean", "p50", "p95", "n"}`` with
        latency in milliseconds.

    Raises:
        ValueError: before any fleet is built, for an empty, repeated or
            non-positive satellite count, a non-finite or non-positive
            altitude, no trials, no epochs, or an unknown engine.
    """
    counts = _checked_counts(satellite_counts, altitude_km)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    if engine != "batched":
        raise ValueError(f"unknown engine {engine!r}; the only engine is "
                         "'batched'")
    epoch_times = np.linspace(0.0, 86400.0, epochs, endpoint=False)
    user_track = ecef_to_eci_over(user_site.ecef(), epoch_times)
    gateway_track = ecef_to_eci_over(gateway_site.ecef(), epoch_times)
    points = [
        (count, trials, derive_seed(seed, "figure2b", count), altitude_km,
         epoch_times, user_track, gateway_track)
        for count in counts
    ]
    results = run_grid(_figure_2b_point, points, jobs=jobs, label="figure2b")
    series = SeriesCollector("latency_ms")
    reachability: Dict[int, float] = {}
    recorder = _obs.active()
    for result in results:
        count = result["count"]
        for value in result["samples"]:
            series.add(count, value)
        if recorder.enabled:
            recorder.count("figure2b.epochs", result["total"],
                           label=str(count))
            recorder.count("figure2b.reached", result["reached"],
                           label=str(count))
        reachability[count] = result["reached"] / result["total"]
    rows = []
    for x in series.xs():
        stats = series.summary_at(x)
        rows.append({
            "x": x, "mean": stats.mean, "p50": stats.p50,
            "p95": stats.p95, "n": stats.count,
        })
    return {"series": rows, "reachability": reachability}


def _figure_2c_point(args: tuple) -> Dict:
    """One Figure 2(c) sweep point (picklable; seed derived per point)."""
    count, trials, point_seed, altitude_km = args
    rng = np.random.default_rng(point_seed)
    recorder = _obs.active()
    union_vals, worst_vals, cluster_vals = [], [], []
    with recorder.span("experiment.figure2c.sweep_point",
                       satellites=count, trials=trials):
        for _ in range(trials):
            constellation = random_constellation(count, rng,
                                                 altitude_km=altitude_km)
            positions = constellation.positions_at(0.0)
            with recorder.phase("figure2c.coverage"):
                union_vals.append(
                    coverage_fraction(positions, altitude_km)
                )
                worst_vals.append(
                    worst_case_coverage_fraction(positions, altitude_km)
                )
                cluster_vals.append(
                    cluster_coverage_fraction(positions, altitude_km)
                )
    return {
        "satellites": count,
        "union": float(np.mean(union_vals)),
        "worst_case": float(np.mean(worst_vals)),
        "cluster": float(np.mean(cluster_vals)),
    }


def figure_2c_coverage(satellite_counts: Sequence[int] = tuple(
                           [1, 2, 4, 8, 12, 16, 20, 25, 30, 40, 50, 60, 70, 80]),
                       trials: int = 6,
                       seed: int = 42,
                       altitude_km: float = IRIDIUM_ALTITUDE_KM,
                       jobs: int = 1) -> List[Dict]:
    """Coverage vs constellation size (paper Figure 2(c)).

    Reports three estimators per count:

    * ``union`` — true footprint-union coverage (grid estimate); this is
      the series whose shape matches the paper's curve, reaching total
      earth coverage around 50 satellites;
    * ``worst_case`` — the paper's stated pairwise-overlap rule, which
      saturates at the disjoint-cap packing limit;
    * ``cluster`` — the strictest transitive reading (sensitivity bound).

    Each count is an independent sweep point with a derived seed;
    ``jobs > 1`` fans points across processes without changing values.

    Returns:
        One row per satellite count:
        ``{"satellites", "union", "worst_case", "cluster"}`` (trial means).

    Raises:
        ValueError: before any fleet is built, for an empty, repeated or
            non-positive satellite count, a non-finite or non-positive
            altitude, or no trials.
    """
    counts = _checked_counts(satellite_counts, altitude_km)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    points = [
        (count, trials, derive_seed(seed, "figure2c", count), altitude_km)
        for count in counts
    ]
    rows = run_grid(_figure_2c_point, points, jobs=jobs, label="figure2c")
    recorder = _obs.active()
    if recorder.enabled:
        for row in rows:
            recorder.count("figure2c.trials", trials,
                           label=str(row["satellites"]))
    return rows
