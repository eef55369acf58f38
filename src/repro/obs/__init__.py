"""repro.obs — unified tracing, metrics, and profiling.

One recorder object owns the three telemetry surfaces of a run:

* a :class:`~repro.obs.registry.MetricsRegistry` of labeled counters,
  gauges, and histograms;
* a :class:`~repro.obs.tracing.Tracer` of timed spans;
* a :class:`~repro.obs.profile.PhaseProfiler` of experiment stages.

The module-level **active recorder** defaults to a :class:`NullRecorder`
whose every operation is a no-op — instrumented hot paths pay one
module-function call and one attribute check when observability is off,
which keeps the default path within benchmark noise of uninstrumented
code (see ``benchmarks/test_perf_primitives.py``).

Usage, instrumented module side::

    from repro import obs

    rec = obs.active()
    if rec.enabled:
        rec.count("flowsim.rejected")
    with obs.span("routing.proactive.precompute", snapshots=n):
        ...

Usage, driver side::

    recorder = obs.Recorder()
    with obs.use(recorder):
        run_experiment()
    obs_export.write_trace_jsonl(recorder, "out.jsonl")

The CLI wires this for every subcommand via ``--trace`` /
``--metrics-out`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.events import DEFAULT_CAPACITY, Event, EventLog, format_events
from repro.obs.health import HealthPlane
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span", "Tracer",
    "PhaseProfiler", "Recorder", "NullRecorder", "ObsConfig",
    "Event", "EventLog", "HealthPlane", "format_events",
    "DEFAULT_SIZE_BUCKETS", "DEFAULT_TIME_BUCKETS_S",
    "active", "install", "reset", "use", "span", "phase", "count",
    "observe", "gauge", "event", "sample_health",
]


class ObsConfig:
    """Recorder options.

    Attributes:
        time_events: Opt-in per-event wall-clock timing in the simulation
            engine.  Off by default even when a recorder is active —
            calling ``perf_counter`` twice per event is the one
            instrument whose cost is visible at engine scale.
        queue_sample_interval: The engine samples queue depth every Nth
            processed event (1 = every event).
        flight_recorder_size: Ring-buffer depth of the event-timeline
            flight recorder (the last N events dumped on a crash).
        retain_events: Keep the complete event stream for export; off,
            only the flight-recorder ring survives.
    """

    def __init__(self, time_events: bool = False,
                 queue_sample_interval: int = 64,
                 flight_recorder_size: int = DEFAULT_CAPACITY,
                 retain_events: bool = True):
        if queue_sample_interval < 1:
            raise ValueError(
                f"queue_sample_interval must be >= 1, got "
                f"{queue_sample_interval}"
            )
        if flight_recorder_size < 1:
            raise ValueError(
                f"flight_recorder_size must be >= 1, got "
                f"{flight_recorder_size}"
            )
        self.time_events = time_events
        self.queue_sample_interval = queue_sample_interval
        self.flight_recorder_size = flight_recorder_size
        self.retain_events = retain_events


class Recorder:
    """A live telemetry sink: metrics + tracer + profiler + timeline."""

    enabled = True

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.profiler = PhaseProfiler()
        self.events = EventLog(capacity=self.config.flight_recorder_size,
                               retain_all=self.config.retain_events)
        self.health = HealthPlane()

    # -- convenience forwarding (the instrumented-code surface) --------

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def phase(self, name: str):
        return self.profiler.phase(name)

    def count(self, name: str, amount: float = 1.0, label: str = "") -> None:
        self.metrics.counter(name, label).inc(amount)

    def gauge(self, name: str, value: float, label: str = "") -> None:
        self.metrics.gauge(name, label).set(value)

    def observe(self, name: str, value: float, label: str = "",
                buckets: Optional[Sequence[float]] = None) -> None:
        self.metrics.histogram(name, label, buckets=buckets).observe(value)

    def event(self, kind: str, time_s: float, subject: str = "",
              **attrs) -> None:
        """Append one timeline event (see :mod:`repro.obs.events`)."""
        self.events.emit(kind, time_s, subject=subject, **attrs)

    def sample_health(self, time_s: float, snap,
                      utilization: Optional[Dict[Tuple[str, str],
                                                 float]] = None,
                      faults_active: int = 0, reset: bool = False) -> None:
        """Record one health-plane epoch from a network snapshot.

        Link-set changes since the previous sample become ``link.up`` /
        ``link.down`` events (suppressed on the baseline sample of a
        series — pass ``reset=True`` at each scenario start).
        """
        appeared, vanished = self.health.sample(
            time_s, snap, utilization=utilization,
            faults_active=faults_active, reset=reset,
        )
        for link_id in appeared:
            self.events.emit("link.up", time_s, subject=link_id)
        for link_id in vanished:
            self.events.emit("link.down", time_s, subject=link_id)


@contextmanager
def _null_context() -> Iterator[None]:
    yield None


class NullRecorder:
    """The default sink: every operation is a no-op.

    ``enabled`` is False, so hot paths that guard their instrumentation
    with ``if rec.enabled:`` skip even argument construction; the
    context-manager surface still works so un-guarded ``with obs.span``
    blocks run unchanged.
    """

    enabled = False

    def span(self, name: str, **attrs):
        return _null_context()

    def phase(self, name: str):
        return _null_context()

    def count(self, name: str, amount: float = 1.0, label: str = "") -> None:
        pass

    def gauge(self, name: str, value: float, label: str = "") -> None:
        pass

    def observe(self, name: str, value: float, label: str = "",
                buckets: Optional[Sequence[float]] = None) -> None:
        pass

    def event(self, kind: str, time_s: float, subject: str = "",
              **attrs) -> None:
        pass

    def sample_health(self, time_s: float, snap,
                      utilization: Optional[Dict[Tuple[str, str],
                                                 float]] = None,
                      faults_active: int = 0, reset: bool = False) -> None:
        pass


NULL_RECORDER = NullRecorder()

_active: "Recorder | NullRecorder" = NULL_RECORDER


def active() -> "Recorder | NullRecorder":
    """The currently installed recorder (the NullRecorder by default)."""
    return _active


def install(recorder: "Recorder | NullRecorder") -> None:
    """Make ``recorder`` the process-wide active recorder."""
    global _active
    _active = recorder


def reset() -> None:
    """Restore the no-op default."""
    install(NULL_RECORDER)


@contextmanager
def use(recorder: "Recorder | NullRecorder") -> Iterator["Recorder | NullRecorder"]:
    """Scoped install: active inside the block, previous sink restored after."""
    previous = _active
    install(recorder)
    try:
        yield recorder
    finally:
        install(previous)


# -- module-level forwarding to the active recorder --------------------
# Non-hot-path call sites use these directly; hot loops should fetch
# ``obs.active()`` once and guard on ``.enabled``.

def span(name: str, **attrs):
    """Open a span on the active recorder (no-op context when disabled)."""
    return _active.span(name, **attrs)


def phase(name: str):
    """Charge a phase on the active recorder (no-op context when disabled)."""
    return _active.phase(name)


def count(name: str, amount: float = 1.0, label: str = "") -> None:
    _active.count(name, amount, label)


def gauge(name: str, value: float, label: str = "") -> None:
    _active.gauge(name, value, label)


def observe(name: str, value: float, label: str = "",
            buckets: Optional[Sequence[float]] = None) -> None:
    _active.observe(name, value, label, buckets)


def event(kind: str, time_s: float, subject: str = "", **attrs) -> None:
    """Append a timeline event on the active recorder."""
    _active.event(kind, time_s, subject, **attrs)


def sample_health(time_s: float, snap,
                  utilization: Optional[Dict[Tuple[str, str], float]] = None,
                  faults_active: int = 0, reset: bool = False) -> None:
    """Record a health-plane epoch on the active recorder."""
    _active.sample_health(time_s, snap, utilization=utilization,
                          faults_active=faults_active, reset=reset)
