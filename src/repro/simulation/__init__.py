"""Simulation substrate: discrete-event engine, workloads, metrics.

The engine is a binary-heap event scheduler; traffic generators produce
the user populations and flow workloads the paper's discussion calls for
("modelling a potential user base along with potential user traffic
patterns"); metric collectors aggregate latency/coverage/throughput
series for the experiment drivers.
"""

from repro.simulation.engine import Event, SimulationEngine
from repro.simulation.traffic import (
    FlowSpec,
    PoissonFlowGenerator,
    UserPopulation,
    uniform_land_users,
)
from repro.simulation.metrics import (
    LatencyCollector,
    SeriesCollector,
    SummaryStats,
    summarize,
)
from repro.simulation.scenario import Scenario, ScenarioResult
from repro.simulation.flowsim import (
    ActiveFlow,
    CompletedFlow,
    FlowSimResult,
    FlowSimulator,
)
from repro.simulation.sessionsim import (
    SessionSample,
    SessionSimulator,
    SessionTrace,
)

__all__ = [
    "Event",
    "SimulationEngine",
    "FlowSpec",
    "PoissonFlowGenerator",
    "UserPopulation",
    "uniform_land_users",
    "LatencyCollector",
    "SeriesCollector",
    "SummaryStats",
    "summarize",
    "Scenario",
    "ScenarioResult",
    "ActiveFlow",
    "CompletedFlow",
    "FlowSimResult",
    "FlowSimulator",
    "SessionSample",
    "SessionSimulator",
    "SessionTrace",
]
