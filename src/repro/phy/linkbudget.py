"""Link-budget result types and capacity estimation.

Two containers share one set of derived-quantity formulas:

* :class:`LinkBudget` — one point-to-point link (scalar fields);
* :class:`LinkBudgetArrays` — a whole batch of links sharing terminals
  (``path_loss_db``/``extra_loss_db`` are ndarrays over the edge axis).

Because every derived quantity is an elementwise numpy expression and
numpy ufuncs round independently of array shape, the array container is
bitwise identical, edge for edge, to evaluating :class:`LinkBudget` in a
Python loop — the property tests under ``tests/properties`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


class _LinkBudgetMath:
    """Derived link quantities shared by the scalar and array budgets."""

    @property
    def received_power_dbw(self):
        return (
            self.tx_power_dbw
            + self.tx_gain_dbi
            + self.rx_gain_dbi
            - self.path_loss_db
            - self.extra_loss_db
        )

    @property
    def snr_db(self):
        return self.received_power_dbw - self.noise_power_dbw

    @property
    def shannon_capacity_bps(self):
        """Shannon capacity ``B log2(1 + SNR)`` over the channel bandwidth."""
        return shannon_capacity_bps(self.bandwidth_hz, self.snr_db)


@dataclass(frozen=True)
class LinkBudget(_LinkBudgetMath):
    """The outcome of a point-to-point link-budget computation.

    Attributes:
        tx_power_dbw: Transmit power.
        tx_gain_dbi: Transmit antenna/terminal gain.
        rx_gain_dbi: Receive antenna/terminal gain.
        path_loss_db: Free-space path loss.
        extra_loss_db: Sum of atmospheric, rain, pointing, implementation
            losses.
        noise_power_dbw: Receiver noise floor.
        bandwidth_hz: Channel bandwidth used for capacity.
    """

    tx_power_dbw: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    path_loss_db: float
    extra_loss_db: float
    noise_power_dbw: float
    bandwidth_hz: float


@dataclass(frozen=True)
class LinkBudgetArrays(_LinkBudgetMath):
    """Link budgets for a batch of edges sharing one terminal pair.

    The terminal-side quantities (powers, gains, noise, bandwidth) are
    scalars; the geometry-side quantities (``path_loss_db``, and
    ``extra_loss_db`` when it includes elevation-dependent terms) are
    arrays over the edge axis.  An edge-independent ``extra_loss_db``
    stays the scalar the per-edge path computes.  All derived properties
    broadcast.
    """

    tx_power_dbw: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    path_loss_db: np.ndarray
    extra_loss_db: Union[float, np.ndarray]
    noise_power_dbw: float
    bandwidth_hz: float

    def __len__(self) -> int:
        return int(np.broadcast(self.path_loss_db, self.extra_loss_db).size)


def _db_to_linear(value_db):
    """``10^(x/10)`` through the array power ufunc for any input shape.

    Numpy's scalar power kernel rounds the last ulp differently from its
    array kernel, so scalars are promoted to a one-element array first —
    array power is shape-independent, which keeps scalar and batched
    budgets bitwise identical.
    """
    if isinstance(value_db, np.ndarray):
        return 10.0 ** (value_db / 10.0)
    return float((10.0 ** (np.asarray([value_db], dtype=float) / 10.0))[0])


def shannon_capacity_bps(bandwidth_hz: float, snr_db):
    """Shannon channel capacity in bits per second.

    Polymorphic over the SNR: scalar in, scalar out; ndarray in,
    elementwise capacity array out (bitwise identical per element).

    Args:
        bandwidth_hz: Channel bandwidth (must be positive).
        snr_db: Signal-to-noise ratio(s) in dB; very low SNR yields ~0
            capacity.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    snr = _db_to_linear(snr_db)
    return bandwidth_hz * np.log2(1.0 + snr)
