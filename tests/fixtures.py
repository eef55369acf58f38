"""Small builders several test modules share.

* :func:`perfect_channel` — a zero-loss control channel, the
  perfect-delivery baseline the reliability and DTN tests compare against;
* :func:`provider_withdrawal_event` — a PROVIDER fault, which the injector
  expands against the live fleet's ``owner`` fields at apply time;
* :func:`has_faults` — whether a network holds any failed element.
"""

from typing import Optional

from repro.faults.model import FaultEvent, FaultKind
from repro.reliability.channel import LossyControlChannel


#: A channel that never loses anything — the perfect-delivery baseline.
def perfect_channel(network=None) -> LossyControlChannel:
    """A zero-loss channel (delivery draws short-circuit; no RNG use)."""
    return LossyControlChannel(loss_scale=0.0, base_loss=0.0, network=network)


def provider_withdrawal_event(provider: str, start_s: float,
                              duration_s: Optional[float] = None,
                              fault_id: Optional[str] = None) -> FaultEvent:
    """A provider pulls its whole fleet out of the federation.

    The multi-operator failure mode unique to OpenSpace: bankruptcy,
    regulatory cutoff, or a voluntary withdrawal takes every satellite
    the provider owns. The injector expands the provider name against
    the live fleet's ``owner`` fields at apply time.
    """
    return FaultEvent(
        fault_id=fault_id or f"withdrawal-{provider}",
        kind=FaultKind.PROVIDER,
        targets=(provider,),
        start_s=start_s,
        duration_s=duration_s,
        cause="provider-withdrawal",
    )


def has_faults(network) -> bool:
    """Whether any satellite, station or link of the network is failed."""
    return bool(network.failed_satellites or network.failed_stations
                or network.failed_links)
