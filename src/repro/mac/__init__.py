"""Media-access control substrate.

The paper: "CSMA/CA allows for flexibility in synchronization between
satellites, however is prone to higher overhead and corresponding larger
latency due to Inter-Frame Spacing and backoff window requirements".
This subpackage implements:

* a slotted CSMA/CA simulator with DIFS/SIFS inter-frame spacing and
  binary-exponential backoff (the paper's ISL MAC);
* a TDMA comparator (the synchronized alternative CSMA/CA's flexibility is
  traded against);
* a slotted-ALOHA floor (no coordination at all).
"""

from repro.mac.aloha import AlohaConfig, SlottedAlohaSimulator
from repro.mac.csma import CsmaCaConfig, CsmaCaSimulator, MacResult
from repro.mac.tdma import TdmaConfig, TdmaSimulator

__all__ = [
    "AlohaConfig",
    "SlottedAlohaSimulator",
    "CsmaCaConfig",
    "CsmaCaSimulator",
    "MacResult",
    "TdmaConfig",
    "TdmaSimulator",
]
