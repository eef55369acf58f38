"""Experiment drivers: one function per paper figure plus ablations.

Every figure in the paper's evaluation (Figure 2a/2b/2c) has a driver
here returning plain data structures; the benchmark harness and the
examples print them.  EXPERIMENTS.md records measured-vs-paper values.
"""

from repro.experiments.figure2 import (
    ConstellationReport,
    figure_2a_constellation,
    figure_2b_latency,
    figure_2c_coverage,
)
from repro.experiments.provider_mix import MixResult, provider_mix_sweep
from repro.experiments.availability import (
    availability_sweep,
    resilience_sweep,
)
from repro.experiments.resilience_dynamic import (
    dynamic_resilience_sweep,
    run_fault_scenario,
)
from repro.experiments.sensitivity import (
    coverage_altitude_sensitivity,
    coverage_mask_sensitivity,
    latency_site_sensitivity,
)
from repro.experiments.ablations import (
    ablation_economics,
    ablation_federation,
    ablation_handover,
    ablation_isl_mix,
    ablation_mac,
)
from repro.experiments.demand import demand_sweep
from repro.experiments.scale import scale_sweep

__all__ = [
    "ConstellationReport",
    "figure_2a_constellation",
    "figure_2b_latency",
    "figure_2c_coverage",
    "ablation_economics",
    "ablation_federation",
    "ablation_handover",
    "ablation_isl_mix",
    "ablation_mac",
    "MixResult",
    "provider_mix_sweep",
    "coverage_altitude_sensitivity",
    "coverage_mask_sensitivity",
    "latency_site_sensitivity",
    "availability_sweep",
    "demand_sweep",
    "resilience_sweep",
    "scale_sweep",
    "dynamic_resilience_sweep",
    "run_fault_scenario",
]
