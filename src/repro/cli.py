"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script) drives the
reproduction without writing any code:

* ``figure2a`` / ``figure2b`` / ``figure2c`` — regenerate one paper figure;
* ``ablations`` — run every design-axis ablation;
* ``availability`` — reliability and failure-resilience sweeps;
* ``report`` — fast pass of every experiment, written to RESULTS.md;
* ``catalog`` — emit the synthetic public TLE catalog for a constellation
  (the stand-in for the N2YO/AstriaGraph data the paper's routing relies
  on);
* ``latency`` — one-shot user-to-Internet latency query;
* ``faults inject`` / ``faults sweep`` / ``faults replay`` — dynamic
  fault injection: seeded failure schedules replayed in simulated time
  with recovery metrics (time-to-reroute, MTTR, rerouted vs dropped);
* ``reliability sweep`` — control-plane reliability: auth success and
  association-latency inflation under lossy signaling and ISL flaps;
* ``demand sweep`` — the million-user fluid traffic plane: diurnal
  congestion (utilization, delay inflation) and settlement revenue vs
  constellation size, byte-identical at any ``--jobs`` count;
* ``scale sweep`` — mega-constellation scale: topology churn, snapshot
  build counts, and gateway probe latency over one orbital period,
  byte-identical at any ``--jobs`` count;
* ``dtn sweep`` — disrupted communications: IoT telemetry evacuated
  from a regional gateway blackout through the store-and-forward
  bundle plane (delivery ratio/delay, custody retransmissions, buffer
  drops vs blackout radius x duration x buffer budget);
* ``obs summarize`` — render a previously captured telemetry file;
* ``obs report`` — self-contained HTML timeline/health report from a
  captured event stream.

Every experiment subcommand accepts ``--trace PATH`` (full JSONL
telemetry: run manifest, counters, histograms, phases, spans),
``--metrics-out PATH`` (flat CSV of the metric instruments),
``--events-out PATH`` (JSONL event timeline + health plane), and
``--prom-out PATH`` (Prometheus text exposition of the metrics).  With
none of these flags, observability stays on the no-op recorder and
costs nothing.  When a recorder is active and the command dies, the
flight recorder dumps its last events to stderr before the error
propagates (``--flight-recorder N`` sizes the ring).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_figure2a(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import figure_2a_constellation

    report = figure_2a_constellation(time_s=args.time)
    print(f"{report.name}: {report.satellite_count} satellites, "
          f"{report.plane_count} planes, {report.altitude_km:.0f} km, "
          f"{report.inclination_deg:.1f} deg")
    print(f"ISLs: {report.isl_count} (mean {report.mean_isl_distance_km:.0f}"
          f" km, max {report.max_isl_distance_km:.0f} km), connected: "
          f"{report.connected}")
    print(f"coverage: union {report.coverage_union:.3f}, worst-case "
          f"{report.coverage_worst_case:.3f}")
    return 0


def _cmd_figure2b(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import figure_2b_latency

    counts = args.counts or [4, 10, 16, 25, 40, 55, 70]
    try:
        result = figure_2b_latency(satellite_counts=counts,
                                   trials=args.trials, epochs=args.epochs,
                                   seed=args.seed, jobs=args.jobs)
    except ValueError as exc:
        print(f"bad figure2b options: {exc}", file=sys.stderr)
        return 1
    series = {row["x"]: row for row in result["series"]}
    print("satellites reachability latency_mean_ms latency_p95_ms")
    for count in counts:
        row = series.get(count)
        reach = result["reachability"][count]
        if row:
            print(f"{count:>10} {reach:>12.2f} {row['mean']:>15.1f} "
                  f"{row['p95']:>14.1f}")
        else:
            print(f"{count:>10} {reach:>12.2f} {'--':>15} {'--':>14}")
    return 0


def _cmd_figure2c(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import figure_2c_coverage

    counts = args.counts or [1, 4, 12, 25, 50, 80]
    try:
        rows = figure_2c_coverage(satellite_counts=counts, trials=args.trials,
                                  seed=args.seed, jobs=args.jobs)
    except ValueError as exc:
        print(f"bad figure2c options: {exc}", file=sys.stderr)
        return 1
    print("satellites union worst_case cluster")
    for row in rows:
        print(f"{row['satellites']:>10.0f} {row['union']:>5.2f} "
              f"{row['worst_case']:>10.2f} {row['cluster']:>7.2f}")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import run_all_ablations

    results = run_all_ablations(jobs=args.jobs)
    print("== ISL mix ==")
    for row in results["isl_mix"]:
        print(f"laser={row['laser_fraction']:.2f} "
              f"premium_admission={row['premium_admission']:.2f} "
              f"capex=${row['fleet_capex_musd']:.0f}M")
    print("== MAC ==")
    for row in results["mac"]:
        print(f"stations={row['stations']} "
              f"csma_delay={row['csma_delay_ms']:.0f}ms "
              f"tdma_delay={row['tdma_delay_ms']:.0f}ms")
    print("== Handover ==")
    result = results["handover"]
    print(f"handovers={result['handover_count']} "
          f"predictive_outage={result['predictive']['total_interruption_s']:.2f}s "
          f"reauth_outage={result['reauthenticate']['total_interruption_s']:.2f}s")
    print("== Economics ==")
    econ = results["economics"]
    print(f"fraud caught {econ['mismatches_caught']}/{econ['fraud_injected']}, "
          f"peering: {econ['peering_recommended']}")
    print("== Federation ==")
    for row in results["federation"]:
        print(f"operators={row['operators']} "
              f"federated={row['federated_reachability']:.2f} "
              f"solo={row['solo_reachability']:.2f} "
              f"capex/op=${row['per_operator_capex_musd']:.0f}M")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.orbits.tle import catalog_from_constellation
    from repro.orbits.walker import iridium_like, walker_delta, walker_star

    try:
        if args.kind == "iridium":
            constellation = iridium_like()
        elif args.kind == "star":
            constellation = walker_star(args.satellites, args.planes)
        else:
            constellation = walker_delta(args.satellites, args.planes)
    except ValueError as exc:
        print(f"bad catalog options: {exc}", file=sys.stderr)
        return 1
    for record in catalog_from_constellation(constellation,
                                             name_prefix=args.prefix):
        for line in record:
            print(line)
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    from repro.experiments.availability import (
        availability_sweep,
        resilience_sweep,
    )

    try:
        availability = availability_sweep(epochs=args.epochs)
    except ValueError as exc:
        print(f"bad availability options: {exc}", file=sys.stderr)
        return 1
    print("== availability vs fleet size ==")
    for row in availability:
        print(f"{row['satellites']:>4} sats ({row['layout']}): "
              f"mean availability {row['mean']:.2f}")
    print("== resilience to failures ==")
    for row in resilience_sweep(epochs=max(2, args.epochs // 2)):
        print(f"fail {row['failed_fraction']:.0%}: "
              f"{row['surviving']} surviving, availability "
              f"{row['mean_availability']:.2f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a fast pass of every experiment and write a markdown report."""
    from repro.experiments.ablations import (
        ablation_economics,
        ablation_handover,
        ablation_isl_mix,
    )
    from repro.experiments.availability import resilience_sweep
    from repro.experiments.figure2 import (
        figure_2a_constellation,
        figure_2b_latency,
        figure_2c_coverage,
    )
    from repro.obs.export import atomic_write

    lines = ["# RESULTS — fast reproduction pass", ""]
    report = figure_2a_constellation()
    lines += [
        "## Figure 2(a)",
        "",
        f"- constellation: {report.satellite_count} satellites, "
        f"{report.plane_count} planes, {report.altitude_km:.0f} km",
        f"- ISLs: {report.isl_count}, connected: {report.connected}",
        f"- union coverage: {report.coverage_union:.3f}",
        "",
        "## Figure 2(b) — latency vs satellites",
        "",
        "| satellites | reachability | mean ms |",
        "|---|---|---|",
    ]
    fig2b = figure_2b_latency(satellite_counts=[4, 16, 40, 70],
                              trials=args.trials, epochs=6)
    series = {row["x"]: row for row in fig2b["series"]}
    for count in (4, 16, 40, 70):
        row = series.get(count)
        mean = f"{row['mean']:.1f}" if row else "--"
        lines.append(
            f"| {count} | {fig2b['reachability'][count]:.2f} | {mean} |"
        )
    lines += ["", "## Figure 2(c) — coverage vs satellites", "",
              "| satellites | union | worst-case |", "|---|---|---|"]
    for row in figure_2c_coverage(satellite_counts=[4, 25, 50, 80],
                                  trials=args.trials):
        lines.append(
            f"| {row['satellites']:.0f} | {row['union']:.2f} | "
            f"{row['worst_case']:.2f} |"
        )
    lines += ["", "## Key ablations", ""]
    mix = ablation_isl_mix(laser_fractions=(0.0, 1.0))
    lines.append(
        f"- ISL mix: premium admission {mix[0]['premium_admission']:.2f} "
        f"(RF-only) vs {mix[-1]['premium_admission']:.2f} (all-laser)"
    )
    handover = ablation_handover(duration_s=3600.0)
    lines.append(
        f"- handover: predictive outage "
        f"{handover['predictive']['total_interruption_s']:.2f} s vs reauth "
        f"{handover['reauthenticate']['total_interruption_s']:.2f} s"
    )
    econ = ablation_economics(transfer_count=120)
    lines.append(
        f"- ledger: {econ['mismatches_caught']}/{econ['fraud_injected']} "
        f"fraud caught; peering: {econ['peering_recommended']}"
    )
    resilience = resilience_sweep(failure_fractions=(0.0, 0.2, 0.5),
                                  epochs=3)
    lines.append(
        "- resilience: availability "
        + " -> ".join(
            f"{row['mean_availability']:.2f}@{row['failed_fraction']:.0%}"
            for row in resilience
        )
    )
    lines.append("")
    content = "\n".join(lines)
    with atomic_write(args.output) as handle:
        handle.write(content)
    print(f"wrote {args.output} ({len(lines)} lines)")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.core.interop import SizeClass, build_fleet
    from repro.core.network import OpenSpaceNetwork
    from repro.ground.station import default_station_network
    from repro.ground.user import UserTerminal
    from repro.orbits.coordinates import GeodeticPoint
    from repro.orbits.walker import iridium_like

    try:
        user = UserTerminal("cli-user", GeodeticPoint(args.lat, args.lon),
                            "cli", min_elevation_deg=args.mask)
    except ValueError as exc:
        print(f"bad latency options: {exc}", file=sys.stderr)
        return 1
    fleet = build_fleet(iridium_like(), "cli", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())
    latency = network.user_to_internet_latency_s(user, args.time)
    if latency is None:
        print("unreachable: no satellite overhead or no gateway path")
        return 1
    print(f"one-way latency from ({args.lat}, {args.lon}): "
          f"{latency * 1000:.1f} ms")
    return 0


def _print_recovery_rows(rows) -> None:
    header = ("mtbf_h faults absorbed rerouted dropped availability "
              "reroute_s mttr_s")
    print(header)
    for row in rows:
        mttr = row["observed_mttr_s"]
        mttr_text = f"{mttr:8.1f}" if mttr == mttr else "      --"
        print(f"{row['mtbf_h']:>6.2f} {row['faults_injected']:>6} "
              f"{row['faults_absorbed']:>8} {row['flows_rerouted']:>8} "
              f"{row['flows_dropped']:>7} {row['mean_availability']:>12.4f} "
              f"{row['mean_time_to_reroute_s']:>9.1f} {mttr_text}")


def _print_recovery_summary(summary: dict) -> None:
    mttr = summary["observed_mttr_s"]
    mttr_text = f"{mttr:.1f} s" if mttr == mttr else "--"
    print(f"faults: {summary['faults_injected']} injected, "
          f"{summary['faults_repaired']} repaired, "
          f"{summary['faults_absorbed']} absorbed without user impact")
    print(f"flows: {summary['flows_rerouted']} rerouted, "
          f"{summary['flows_dropped']} dropped, "
          f"{summary['flows_unrecovered']} never recovered")
    print(f"availability: {summary['mean_availability']:.4f} "
          f"(time-weighted, {summary['probes']} probes)")
    print(f"mean time-to-reroute: {summary['mean_time_to_reroute_s']:.1f} s, "
          f"mean restore: {summary['mean_restore_s']:.1f} s, "
          f"observed MTTR: {mttr_text}")


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.resilience_dynamic import dynamic_resilience_sweep

    mttr = None if args.mttr < 0 else args.mttr
    try:
        rows = dynamic_resilience_sweep(
            mtbf_hours=tuple(args.mtbf_hours), mttr_s=mttr,
            horizon_s=args.horizon, epochs=args.epochs, seed=args.seed,
            reroute_delay_s=args.reroute_delay, jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bad faults sweep options: {exc}", file=sys.stderr)
        return 1
    _print_recovery_rows(rows)
    return 0


def _cmd_faults_inject(args: argparse.Namespace) -> int:
    from repro.core.interop import SizeClass, build_fleet
    from repro.experiments.resilience_dynamic import (
        _sample_users,
        run_fault_scenario,
    )
    from repro.core.network import OpenSpaceNetwork
    from repro.faults.schedule import (
        combine,
        ground_station_outage_schedule,
        satellite_mtbf_schedule,
    )
    from repro.ground.station import default_station_network
    from repro.orbits.walker import iridium_like

    stations = default_station_network()
    fleet = build_fleet(iridium_like(), "faults", SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, stations)
    mttr = None if args.mttr < 0 else args.mttr
    try:
        schedule = satellite_mtbf_schedule(
            [spec.satellite_id for spec in fleet], args.horizon,
            mtbf_s=args.mtbf_hours * 3600.0, mttr_s=mttr, seed=args.seed,
        )
        if args.station_mtbf_hours is not None:
            schedule = combine(schedule, ground_station_outage_schedule(
                [station.station_id for station in stations], args.horizon,
                mtbf_s=args.station_mtbf_hours * 3600.0, mttr_s=mttr,
                seed=args.seed + 1,
            ))
        result = run_fault_scenario(network, schedule, _sample_users(),
                                    horizon_s=args.horizon,
                                    epochs=args.epochs,
                                    reroute_delay_s=args.reroute_delay)
    except ValueError as exc:
        print(f"bad faults inject options: {exc}", file=sys.stderr)
        return 1
    if args.schedule_out:
        schedule.save(args.schedule_out)
        print(f"wrote {args.schedule_out} ({len(schedule)} fault events)")
    for event in sorted(schedule, key=lambda e: (e.start_s, e.fault_id)):
        print(f"t={event.start_s:9.1f}  {event.kind.value:<14} "
              f"{','.join(event.targets)}  "
              f"{'permanent' if event.end_s is None else f'until {event.end_s:.1f} s'}")
    _print_recovery_summary(result)
    return 0


def _cmd_faults_replay(args: argparse.Namespace) -> int:
    from repro.core.interop import SizeClass, build_fleet
    from repro.experiments.resilience_dynamic import (
        _sample_users,
        run_fault_scenario,
    )
    from repro.core.network import OpenSpaceNetwork
    from repro.faults.model import FaultSchedule
    from repro.ground.station import default_station_network
    from repro.orbits.walker import iridium_like

    try:
        schedule = FaultSchedule.load(args.schedule)
    except FileNotFoundError:
        print(f"no such schedule file: {args.schedule}", file=sys.stderr)
        return 1
    except ValueError as exc:  # FaultScheduleError, or undecodable text
        print(f"malformed schedule file: {exc}", file=sys.stderr)
        return 1
    horizon = args.horizon if args.horizon is not None else schedule.horizon_s
    if horizon <= 0.0:
        print("schedule has no horizon; pass --horizon", file=sys.stderr)
        return 1
    network = OpenSpaceNetwork(build_fleet(iridium_like(), "faults",
                                           SizeClass.MEDIUM),
                               default_station_network())
    try:
        result = run_fault_scenario(network, schedule, _sample_users(),
                                    horizon_s=horizon, epochs=args.epochs,
                                    reroute_delay_s=args.reroute_delay)
    except ValueError as exc:
        print(f"bad faults replay options: {exc}", file=sys.stderr)
        return 1
    print(f"replayed {len(schedule)} fault events over {horizon:.0f} s")
    _print_recovery_summary(result)
    return 0


def _cmd_reliability_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reliability import reliability_sweep

    mttr = None if args.mttr < 0 else args.mttr
    try:
        rows = reliability_sweep(
            loss_rates=tuple(args.loss),
            flap_mtbf_hours=tuple(args.mtbf_hours),
            horizon_s=args.horizon, probes=args.probes, seed=args.seed,
            mttr_s=mttr, flap_fraction=args.flap_fraction,
            max_attempts=args.max_attempts, timeout_s=args.timeout,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bad reliability sweep options: {exc}", file=sys.stderr)
        return 1
    print("loss mtbf_h auth_ok baseline_ok attempts inflation "
          "degraded breaker_opens exch_fail")
    for row in rows:
        inflation = row["latency_inflation"]
        inflation_text = (f"{inflation:9.3f}" if inflation == inflation
                          else "       --")
        print(f"{row['loss']:>4.2f} {row['flap_mtbf_h']:>6.2f} "
              f"{row['auth_success_rate']:>7.3f} "
              f"{row['baseline_success_rate']:>11.3f} "
              f"{row['mean_attempts']:>8.2f} {inflation_text} "
              f"{row['degraded_associations']:>8} "
              f"{row['breaker_opens']:>13} "
              f"{row['exchange_failures']:>9}")
    return 0


def _cmd_demand_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.demand import demand_sweep

    try:
        rows = demand_sweep(
            satellite_counts=tuple(args.satellites),
            hours_utc=tuple(args.hours),
            total_users=args.users, bands=args.bands,
            equator_columns=args.equator_columns,
            distribution=args.distribution, spread_deg=args.spread,
            seed=args.seed, duration_s=args.duration, jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bad demand sweep options: {exc}", file=sys.stderr)
        return 1
    print("sats hour users cells routed offered_gbps served "
          "mean_util peak_util p95_infl revenue_usd iters conv")
    for row in rows:
        print(f"{row['satellites']:>4} {row['hour_utc']:>4.1f} "
              f"{row['users']:>8} {row['cells']:>5} "
              f"{row['routed_cells']:>6} {row['offered_gbps']:>12.3f} "
              f"{row['served_fraction']:>6.4f} "
              f"{row['mean_utilization']:>9.4f} "
              f"{row['peak_utilization']:>9.4f} "
              f"{row['p95_delay_inflation']:>8.3f} "
              f"{row['revenue_usd']:>11.2f} {row['iterations']:>5} "
              f"{str(row['converged']):>5}")
    return 0


def _cmd_scale_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.scale import scale_sweep

    try:
        rows = scale_sweep(
            satellite_counts=tuple(args.satellites),
            epochs=args.epochs, max_range_km=args.range_km, jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bad scale sweep options: {exc}", file=sys.stderr)
        return 1
    print("sats planes epochs edges degree churn_mean churn_max "
          "full delta appeared gone latency_ms reach")
    for row in rows:
        latency = row["probe_latency_ms"]
        latency_text = f"{latency:10.3f}" if latency == latency else (
            "        --")
        print(f"{row['satellites']:>4} {row['planes']:>6} "
              f"{row['epochs']:>6} {row['mean_isl_edges']:>8.1f} "
              f"{row['mean_degree']:>6.2f} {row['churn_mean']:>10.4f} "
              f"{row['churn_max']:>9.4f} {row['full_builds']:>4} "
              f"{row['delta_builds']:>5} {row['edges_appeared']:>8} "
              f"{row['edges_disappeared']:>4} "
              f"{latency_text} {row['probe_reachable_epochs']:>5}")
    return 0


def _cmd_dtn_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.disrupted import disrupted_sweep

    try:
        rows = disrupted_sweep(
            radii_km=tuple(args.radius),
            durations_s=tuple(args.duration),
            buffer_kb=tuple(args.buffer_kb),
            horizon_s=args.horizon, step_s=args.step, loss=args.loss,
            sensors=args.sensors, satellites=args.satellites,
            bundle_interval_s=args.interval,
            bundle_bytes=args.bundle_bytes, ttl_s=args.ttl,
            seed=args.seed, jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bad dtn sweep options: {exc}", file=sys.stderr)
        return 1
    print("radius_km blackout_s buf_kb down created delivered ratio "
          "mean_delay_s max_delay_s retx drops expired replans backlog")
    for row in rows:
        ratio = row["delivery_ratio"]
        ratio_text = f"{ratio:5.3f}" if ratio == ratio else "   --"
        mean_delay = row["mean_delay_s"]
        mean_text = (f"{mean_delay:12.1f}" if mean_delay == mean_delay
                     else "          --")
        max_delay = row["max_delay_s"]
        max_text = (f"{max_delay:11.1f}" if max_delay == max_delay
                    else "         --")
        print(f"{row['radius_km']:>9.0f} {row['blackout_s']:>9.0f} "
              f"{row['buffer_kb']:>6.1f} {row['stations_down']:>4} "
              f"{row['created']:>7} {row['delivered']:>9} {ratio_text} "
              f"{mean_text} {max_text} {row['custody_retx']:>4} "
              f"{row['buffer_drops']:>5} {row['ttl_expired']:>7} "
              f"{row['replans']:>7} {row['backlog']:>7}")
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.export import summarize_file

    try:
        print(summarize_file(args.file, top=args.top))
    except FileNotFoundError:
        print(f"no such trace file: {args.file}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"malformed trace file: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import report_file

    try:
        size = report_file(args.file, args.out, title=args.title,
                           top=args.top)
    except FileNotFoundError:
        print(f"no such trace file: {args.file}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"malformed trace file: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({size} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OpenSpace reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags, shared by every experiment subcommand (a parent
    # parser so `repro figure2b --trace out.jsonl` parses naturally).
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write full JSONL telemetry (manifest, metrics, spans)")
    obs_flags.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write metric instruments as CSV")
    obs_flags.add_argument(
        "--obs-time-events", action="store_true",
        help="also time every simulation-engine event (adds overhead)")
    obs_flags.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="write the structured event timeline + health plane as "
             "JSONL (byte-identical across same-seed runs)")
    obs_flags.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="write metric instruments as Prometheus text exposition")
    obs_flags.add_argument(
        "--flight-recorder", type=int, default=None, metavar="N",
        help="ring-buffer depth of the event flight recorder dumped to "
             "stderr on a crash (default 256)")

    # Parallel-sweep flag, shared by every sweep-shaped subcommand.
    # Results are byte-identical at any job count (see repro.parallel).
    jobs_flags = argparse.ArgumentParser(add_help=False)
    jobs_flags.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep grid (1 = serial; results "
             "are identical for every value)")

    p2a = sub.add_parser("figure2a", parents=[obs_flags],
                         help="reference constellation report")
    p2a.add_argument("--time", type=float, default=0.0)
    p2a.set_defaults(func=_cmd_figure2a)

    p2b = sub.add_parser("figure2b", parents=[obs_flags, jobs_flags],
                         help="latency vs satellite count")
    p2b.add_argument("--counts", type=int, nargs="*", default=None)
    p2b.add_argument("--trials", type=int, default=4)
    p2b.add_argument("--epochs", type=int, default=8)
    p2b.add_argument("--seed", type=int, default=42)
    p2b.set_defaults(func=_cmd_figure2b)

    p2c = sub.add_parser("figure2c", parents=[obs_flags, jobs_flags],
                         help="coverage vs satellite count")
    p2c.add_argument("--counts", type=int, nargs="*", default=None)
    p2c.add_argument("--trials", type=int, default=6)
    p2c.add_argument("--seed", type=int, default=42)
    p2c.set_defaults(func=_cmd_figure2c)

    pab = sub.add_parser("ablations", parents=[obs_flags, jobs_flags],
                         help="run every design ablation")
    pab.set_defaults(func=_cmd_ablations)

    pcat = sub.add_parser("catalog", parents=[obs_flags],
                          help="emit a synthetic TLE catalog")
    pcat.add_argument("--kind", choices=("iridium", "star", "delta"),
                      default="iridium")
    pcat.add_argument("--satellites", type=int, default=66)
    pcat.add_argument("--planes", type=int, default=6)
    pcat.add_argument("--prefix", default="OPENSPACE")
    pcat.set_defaults(func=_cmd_catalog)

    prep = sub.add_parser("report", parents=[obs_flags],
                          help="fast pass of every experiment -> RESULTS.md")
    prep.add_argument("--output", default="RESULTS.md")
    prep.add_argument("--trials", type=int, default=3)
    prep.set_defaults(func=_cmd_report)

    pav = sub.add_parser("availability", parents=[obs_flags],
                         help="availability and failure-resilience sweeps")
    pav.add_argument("--epochs", type=int, default=8)
    pav.set_defaults(func=_cmd_availability)

    plat = sub.add_parser("latency", parents=[obs_flags],
                          help="user-to-Internet latency query")
    plat.add_argument("--lat", type=float, required=True)
    plat.add_argument("--lon", type=float, required=True)
    plat.add_argument("--time", type=float, default=0.0)
    plat.add_argument("--mask", type=float, default=10.0,
                      help="user elevation mask, degrees")
    plat.set_defaults(func=_cmd_latency)

    pfl = sub.add_parser("faults",
                         help="dynamic fault injection and recovery")
    faults_sub = pfl.add_subparsers(dest="faults_command", required=True)

    def _faults_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--epochs", type=int, default=6,
                            help="periodic availability probes")
        parser.add_argument("--reroute-delay", type=float, default=15.0,
                            help="control-plane reconvergence charge, s")

    pfs = faults_sub.add_parser(
        "sweep", parents=[obs_flags, jobs_flags],
        help="recovery metrics vs failure intensity (MTBF sweep)")
    pfs.add_argument("--mtbf-hours", type=float, nargs="+",
                     default=[1.0, 3.0, 12.0],
                     help="per-satellite MTBF points, hours")
    pfs.add_argument("--mttr", type=float, default=900.0,
                     help="mean time to repair, s (negative = permanent)")
    pfs.add_argument("--horizon", type=float, default=7200.0)
    pfs.add_argument("--seed", type=int, default=43)
    _faults_common(pfs)
    pfs.set_defaults(func=_cmd_faults_sweep)

    pfi = faults_sub.add_parser(
        "inject", parents=[obs_flags],
        help="generate one fault schedule, run it, report recovery")
    pfi.add_argument("--mtbf-hours", type=float, default=2.0,
                     help="per-satellite MTBF, hours")
    pfi.add_argument("--station-mtbf-hours", type=float, default=None,
                     help="also inject gateway outages at this MTBF")
    pfi.add_argument("--mttr", type=float, default=600.0,
                     help="mean time to repair, s (negative = permanent)")
    pfi.add_argument("--horizon", type=float, default=3600.0)
    pfi.add_argument("--seed", type=int, default=43)
    pfi.add_argument("--schedule-out", metavar="PATH", default=None,
                     help="write the generated schedule as JSON")
    _faults_common(pfi)
    pfi.set_defaults(func=_cmd_faults_inject)

    pfr = faults_sub.add_parser(
        "replay", parents=[obs_flags],
        help="replay a JSON fault schedule and report recovery")
    pfr.add_argument("schedule", help="JSON file from `faults inject "
                     "--schedule-out` (or hand-written)")
    pfr.add_argument("--horizon", type=float, default=None,
                     help="override the schedule's horizon, s")
    _faults_common(pfr)
    pfr.set_defaults(func=_cmd_faults_replay)

    prel = sub.add_parser("reliability",
                          help="control-plane reliability under lossy "
                               "signaling")
    rel_sub = prel.add_subparsers(dest="reliability_command", required=True)
    prs = rel_sub.add_parser(
        "sweep", parents=[obs_flags, jobs_flags],
        help="auth success & latency inflation vs loss rate x flap MTBF")
    prs.add_argument("--loss", type=float, nargs="+",
                     default=[0.0, 0.05, 0.2],
                     help="per-hop control-frame loss rates")
    prs.add_argument("--mtbf-hours", type=float, nargs="+",
                     default=[0.0, 0.5],
                     help="ISL flap MTBF points, hours (0 = no faults)")
    prs.add_argument("--mttr", type=float, default=240.0,
                     help="flap repair time, s (negative = permanent)")
    prs.add_argument("--horizon", type=float, default=1800.0)
    prs.add_argument("--probes", type=int, default=4,
                     help="association probes per grid point")
    prs.add_argument("--flap-fraction", type=float, default=0.25,
                     help="fraction of the ISL set that flaps")
    prs.add_argument("--max-attempts", type=int, default=4,
                     help="auth retransmission bound")
    prs.add_argument("--timeout", type=float, default=0.5,
                     help="per-attempt auth timeout, s")
    prs.add_argument("--seed", type=int, default=11)
    prs.set_defaults(func=_cmd_reliability_sweep)

    pdem = sub.add_parser("demand",
                          help="million-user fluid traffic plane")
    dem_sub = pdem.add_subparsers(dest="demand_command", required=True)
    pds = dem_sub.add_parser(
        "sweep", parents=[obs_flags, jobs_flags],
        help="diurnal congestion & revenue vs constellation size")
    pds.add_argument("--satellites", type=int, nargs="+",
                     default=[24, 66],
                     help="Walker-Delta fleet sizes to sweep")
    pds.add_argument("--hours", type=float, nargs="+",
                     default=[4.0, 12.0, 20.0],
                     help="UTC hours sampled (diurnal curve runs on "
                          "local solar time)")
    pds.add_argument("--users", type=int, default=1_000_000,
                     help="modeled subscriber count")
    pds.add_argument("--bands", type=int, default=18,
                     help="equal-area latitude bands of the grid")
    pds.add_argument("--equator-columns", type=int, default=36,
                     help="longitude columns at the equator")
    pds.add_argument("--distribution",
                     choices=("uniform_land", "underserved"),
                     default="uniform_land",
                     help="subscriber placement model")
    pds.add_argument("--spread", type=float, default=6.0,
                     help="underserved cluster spread, degrees")
    pds.add_argument("--duration", type=float, default=3600.0,
                     help="settlement interval per point, s")
    pds.add_argument("--seed", type=int, default=7)
    pds.set_defaults(func=_cmd_demand_sweep)

    pscl = sub.add_parser("scale",
                          help="mega-constellation topology churn and "
                               "probe latency")
    scl_sub = pscl.add_subparsers(dest="scale_command", required=True)
    pss = scl_sub.add_parser(
        "sweep", parents=[obs_flags, jobs_flags],
        help="topology churn & probe latency vs fleet size "
             "over one orbital period")
    pss.add_argument("--satellites", type=int, nargs="+",
                     default=[48, 180],
                     help="Walker-Delta fleet sizes to sweep")
    pss.add_argument("--epochs", type=int, default=6,
                     help="snapshot epochs over one orbital period")
    pss.add_argument("--range-km", type=float, default=3000.0,
                     help="hard ISL range limit, km")
    pss.set_defaults(func=_cmd_scale_sweep)

    pdtn = sub.add_parser("dtn",
                          help="disruption-tolerant store-and-forward "
                               "bundle plane")
    dtn_sub = pdtn.add_subparsers(dest="dtn_command", required=True)
    pdt = dtn_sub.add_parser(
        "sweep", parents=[obs_flags, jobs_flags],
        help="blackout evacuation: delivery ratio & delay vs radius x "
             "duration x buffer budget")
    pdt.add_argument("--radius", type=float, nargs="+",
                     default=[0.0, 1500.0, 3500.0],
                     help="blackout radii around the region center, km "
                          "(0 = no-blackout control)")
    pdt.add_argument("--duration", type=float, nargs="+",
                     default=[3600.0],
                     help="blackout durations, s")
    pdt.add_argument("--buffer-kb", type=float, nargs="+",
                     default=[8.0, 64.0],
                     help="per-node custody budgets, KiB")
    pdt.add_argument("--horizon", type=float, default=7200.0)
    pdt.add_argument("--step", type=float, default=600.0,
                     help="scheduler epoch length, s")
    pdt.add_argument("--loss", type=float, default=0.05,
                     help="per-hop custody-frame loss rate")
    pdt.add_argument("--sensors", type=int, default=6,
                     help="IoT sensors in the blackout region")
    pdt.add_argument("--satellites", type=int, default=24,
                     help="Walker-Delta fleet size (6 planes)")
    pdt.add_argument("--interval", type=float, default=900.0,
                     help="telemetry period per sensor, s")
    pdt.add_argument("--bundle-bytes", type=int, default=4096,
                     help="bundle payload size, bytes")
    pdt.add_argument("--ttl", type=float, default=7200.0,
                     help="bundle lifetime, s")
    pdt.add_argument("--seed", type=int, default=17)
    pdt.set_defaults(func=_cmd_dtn_sweep)

    pobs = sub.add_parser("obs", help="inspect captured telemetry")
    obs_sub = pobs.add_subparsers(dest="obs_command", required=True)
    psum = obs_sub.add_parser("summarize",
                              help="print top spans/counters/events of a "
                                   "trace")
    psum.add_argument("file", help="JSONL file written by --trace or "
                                   "--events-out")
    psum.add_argument("--top", type=int, default=10,
                      help="rows per section")
    psum.set_defaults(func=_cmd_obs_summarize)
    prpt = obs_sub.add_parser("report",
                              help="render an HTML timeline/health report")
    prpt.add_argument("file", help="JSONL file written by --events-out "
                                   "(or --trace)")
    prpt.add_argument("--out", metavar="PATH", default="obs_report.html",
                      help="output HTML path")
    prpt.add_argument("--title", default=None, help="report title")
    prpt.add_argument("--top", type=int, default=15,
                      help="rows in the link-availability table")
    prpt.set_defaults(func=_cmd_obs_report)
    return parser


def _manifest_for(args: argparse.Namespace) -> dict:
    from repro.obs.export import run_manifest

    config = {
        key: value for key, value in vars(args).items()
        if key not in ("func", "command") and not key.startswith("_")
    }
    return run_manifest(config, seed=getattr(args, "seed", None),
                        command=args.command)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    events_path = getattr(args, "events_out", None)
    prom_path = getattr(args, "prom_out", None)
    flight_size = getattr(args, "flight_recorder", None)
    # --flight-recorder alone still installs a recorder: the crash dump
    # is useful even when no export file was requested.
    if not (trace_path or metrics_path or events_path or prom_path
            or flight_size is not None):
        return args.func(args)

    from repro import obs
    from repro.obs.export import (
        write_events_jsonl,
        write_metrics_csv,
        write_prometheus_text,
        write_trace_jsonl,
    )

    config_kwargs = {"time_events": getattr(args, "obs_time_events", False)}
    if flight_size is not None:
        config_kwargs["flight_recorder_size"] = flight_size
    try:
        recorder = obs.Recorder(obs.ObsConfig(**config_kwargs))
    except ValueError as error:
        print(f"bad observability options: {error}", file=sys.stderr)
        return 2
    try:
        with obs.use(recorder):
            exit_code = args.func(args)
    except BaseException:
        # Crash path: dump the flight recorder so the timeline leading
        # up to the failure survives even though no export file will.
        tail = recorder.events.tail()
        print(f"-- flight recorder: last {len(tail)} of "
              f"{len(recorder.events)} events --", file=sys.stderr)
        print(obs.format_events(tail), file=sys.stderr)
        raise
    try:
        if trace_path:
            count = write_trace_jsonl(recorder, trace_path,
                                      _manifest_for(args))
            print(f"wrote {trace_path} ({count} telemetry records)")
        if metrics_path:
            count = write_metrics_csv(recorder, metrics_path)
            print(f"wrote {metrics_path} ({count} metric rows)")
        if events_path:
            count = write_events_jsonl(recorder, events_path,
                                       _manifest_for(args))
            print(f"wrote {events_path} ({count} event records)")
        if prom_path:
            count = write_prometheus_text(recorder, prom_path)
            print(f"wrote {prom_path} ({count} exposition lines)")
    except OSError as error:
        print(f"cannot write telemetry: {error}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
