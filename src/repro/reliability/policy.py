"""The degraded-mode counter the reliability layer shares.

Association's fallback (alternate auth anchors, secondary beacon
candidates) lives with the protocol itself in
:class:`repro.core.association.ReliableAssociationProtocol`; every
activation of it is counted here, labeled by mode.
"""

from __future__ import annotations

from repro import obs as _obs

#: Counter every degraded-mode activation increments, labeled by mode.
DEGRADED_COUNTER = "reliability.degraded"


def note_degraded(mode: str, amount: float = 1.0) -> None:
    """Record one degraded-mode activation in the active recorder."""
    recorder = _obs.active()
    if recorder.enabled:
        recorder.count(DEGRADED_COUNTER, amount, label=mode)
