"""repro — an OpenSpace simulation stack.

A from-scratch reproduction of "A Roadmap for the Democratization of
Space-Based Communications" (HotNets '24): orbital mechanics, physical
and MAC layers, inter-satellite links, routing, ground segment, security,
economics, and the OpenSpace federation protocols, plus the experiment
drivers that regenerate the paper's evaluation.

Subpackages (bottom-up):

* :mod:`repro.orbits` — propagation, frames, constellations, visibility.
* :mod:`repro.phy` — channels, antennas, link budgets, MODCODs.
* :mod:`repro.mac` — CSMA/CA, TDMA, slotted ALOHA.
* :mod:`repro.isl` — link selection, power, topology.
* :mod:`repro.routing` — proactive / QoS / on-demand / adaptive /
  time-expanded routing.
* :mod:`repro.ground` — stations, users, gateway pricing.
* :mod:`repro.security` — authentication, certificates, bad actors.
* :mod:`repro.core` — the OpenSpace architecture itself.
* :mod:`repro.economics` — cost models, ledger, settlement, incentives.
* :mod:`repro.simulation` — engine, workloads, metrics, flow simulation.
* :mod:`repro.experiments` — paper figure and ablation drivers.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
