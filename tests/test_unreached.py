"""Unreached-code ratchet: public definitions that nothing runs.

A public top-level function or class of ``src/repro`` counts as reached
when its name appears in ``src/``, ``benchmarks/`` or ``examples/`` as an
identifier -- a name, an attribute, or a word inside a string (the stage
tracer names its targets in strings) -- outside import statements and
``__all__``.  Its own ``def``/``class`` name does not count.

:data:`UNREACHED` freezes the definitions that fail this today.  The
list can only shrink: a new unreached definition fails the suite, and so
does a listed one that became reached or was deleted (take it off the
list then).
"""

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples")

#: Public top-level definitions no CLI command, experiment, example or
#: benchmark reaches (1,038 lines when frozen).
UNREACHED = frozenset({
    "repro.core.beacon.beacon_reception_delay_s",
    "repro.core.interop.derate_power_for_eclipse",
    "repro.core.pairing.PairingProtocol",
    "repro.core.pairing.predict_hold_duration_s",
    "repro.demand.grid.grid_from_population",
    "repro.economics.incentives.revenue_sharing",
    "repro.economics.incentives.viable_service_utility",
    "repro.experiments.export.figure_2b_to_csv",
    "repro.experiments.sensitivity.coverage_altitude_sensitivity",
    "repro.experiments.sensitivity.coverage_mask_sensitivity",
    "repro.experiments.sensitivity.latency_site_sensitivity",
    "repro.faults.model.validate_against",
    "repro.faults.schedule.fraction_loss_schedule",
    "repro.faults.schedule.provider_withdrawal_event",
    "repro.ground.gsaas.GatewayUsageMeter",
    "repro.ground.scheduling.AntennaScheduler",
    "repro.mac.aloha.theoretical_throughput",
    "repro.mac.ofdm.OfdmaScheduler",
    "repro.orbits.contact.isl_feasibility_schedule",
    "repro.orbits.coordinates.look_angles",
    "repro.orbits.coordinates.subsatellite_point",
    "repro.orbits.eclipse.eclipse_windows",
    "repro.orbits.eclipse.orbit_average_generation_w",
    "repro.orbits.kepler.orbital_period",
    "repro.orbits.visibility.pairwise_line_of_sight",
    "repro.orbits.visibility.pairwise_slant_ranges",
    "repro.orbits.visibility.visible_satellites",
    "repro.orbits.walker.cbo_reference",
    "repro.phy.antennas.effective_aperture_m2",
    "repro.phy.antennas.half_power_beamwidth_deg",
    "repro.phy.channel.db_to_linear",
    "repro.phy.channel.linear_to_db",
    "repro.phy.doppler.ground_observer",
    "repro.phy.doppler.max_doppler_over_pass",
    "repro.phy.doppler.worst_case_doppler_ppm",
    "repro.phy.interference.downlink_sinr_db",
    "repro.reliability.channel.perfect_channel",
    "repro.routing.kpaths.k_shortest_paths",
    "repro.simulation.config.load_scenario",
    "repro.simulation.config.save_scenario",
})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Identifiers(ast.NodeVisitor):
    """Every identifier of one module outside imports and ``__all__``."""

    def __init__(self):
        self.found: Set[str] = set()

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in node.targets):
            self.generic_visit(node)

    def visit_AugAssign(self, node):
        if not (isinstance(node.target, ast.Name)
                and node.target.id == "__all__"):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.found.add(node.id)

    def visit_Attribute(self, node):
        self.found.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.found.update(_WORD.findall(node.value))


@lru_cache(maxsize=1)
def _scan() -> Tuple[Dict[str, int], FrozenSet[str]]:
    """Public top-level definitions (qualified name -> line count) and the
    unreached ones, reading each file once."""
    definitions: Dict[str, Tuple[str, int]] = {}
    identifiers: Set[str] = set()
    package = ROOT / "src" / "repro"
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            visitor = _Identifiers()
            visitor.visit(tree)
            identifiers |= visitor.found
            if package not in path.parents:
                continue
            module = ".".join(path.relative_to(ROOT / "src")
                              .with_suffix("").parts)
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and not node.name.startswith("_")):
                    definitions[f"{module}.{node.name}"] = (
                        node.name, node.end_lineno - node.lineno + 1)
    unreached = frozenset(qualified for qualified, (name, _)
                          in definitions.items() if name not in identifiers)
    lines = {qualified: count for qualified, (_, count)
             in definitions.items()}
    return lines, unreached


def test_no_new_unreached_definitions():
    _, unreached = _scan()
    assert sorted(unreached - UNREACHED) == [], (
        "reach these from a CLI command, experiment, example or benchmark, "
        "or delete them"
    )


def test_listed_definitions_are_still_unreached():
    lines, unreached = _scan()
    assert sorted(UNREACHED - unreached) == [], (
        "reached or deleted: take these off UNREACHED"
    )
    assert sum(lines[name] for name in UNREACHED) <= 1038
