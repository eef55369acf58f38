"""Each sweep builds one snapshot per network, instant and fault state.

The network keeps no snapshot, so a sweep that asks twice for one
instant pays for two builds.  Counting ``OpenSpaceNetwork.snapshot``
requests and ``_base_snapshot`` builds holds the sweeps that used to ask
twice (per-user availability and solo-reachability probes, the DTN step
beside its contact plan) to one of each per ``(network, time, fault
epoch)``.
"""

from collections import Counter

import pytest

from repro.core.network import OpenSpaceNetwork
from repro.experiments.ablations import ablation_federation
from repro.experiments.availability import availability_sweep, resilience_sweep
from repro.experiments.disrupted import disrupted_sweep


@pytest.fixture
def calls(monkeypatch):
    """Calls of each method per ``(network, time, fault epoch)``."""
    counts = {}
    for name in ("snapshot", "_base_snapshot"):
        counter = counts[name] = Counter()
        method = getattr(OpenSpaceNetwork, name)

        def counting(network, time_s, *args, _method=method,
                     _counter=counter, **kwargs):
            _counter[network, float(time_s), network.fault_epoch] += 1
            return _method(network, time_s, *args, **kwargs)

        monkeypatch.setattr(OpenSpaceNetwork, name, counting)
    return counts


SWEEPS = {
    "availability": lambda: availability_sweep(
        fleet_sizes=(24,), epochs=3, include_structured=False),
    "resilience": lambda: resilience_sweep(
        failure_fractions=(0.0, 0.2), epochs=3),
    "solo_reachability": lambda: ablation_federation(
        operator_counts=(2,), satellite_count=24),
    "disrupted": lambda: disrupted_sweep(
        radii_km=(0.0, 3500.0), buffer_kb=(64.0,), horizon_s=3600.0,
        step_s=600.0, sensors=3, satellites=24, bundle_interval_s=600.0,
        bundle_bytes=2048),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_one_build_per_instant(calls, name):
    SWEEPS[name]()
    for method, counter in calls.items():
        assert counter and max(counter.values()) == 1, method
