"""First-order radio energy model and the energy ledger.

Transmitting k bits over distance d costs E_elec*k + eps_amp*k*d^2; receiving
costs E_elec*k. Both protocols pay for frames through World.broadcast,
DsdvProtocol._send and MleachProtocol._walk, which price them with
RadioModel's formulas and charge EnergyLedger, so totals, clamping, and
death bookkeeping live in one place. Broadcasts call ``consume`` and
``charge_many``. _send, per run of DSDV frames, and _walk, per mleach
backlog, share one charging rule: a payer whose residual exceeds the
charge pays inline, ``consume``'s Neumaier and Kahan steps operation for
operation, and stays alive, as e - j > 0 whenever e > j; every other
charge (an exact or partial payment, an inf or NaN price) goes through
``consume``. So the clamp and the death mark live only in ``consume`` and
``kernels.charge_uniform``. Arguments come from a validated config and
are not checked again. The base station is infrastructure: it is never
charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class RadioModel:
    e_elec_j_per_bit: float = 50e-9
    eps_amp_j_per_bit_m2: float = 120e-12

    def tx_energy(self, k: int, d: float) -> float:
        """Energy to transmit k bits over d meters."""
        return self.e_elec_j_per_bit * k + self.eps_amp_j_per_bit_m2 * k * (d * d)

    def rx_energy(self, k: int) -> float:
        """Energy to receive k bits."""
        return self.e_elec_j_per_bit * k


class EnergyLedger:
    """Residual and consumed energy per node, with clamped charging.

    A node whose residual cannot cover a charge burns what remains, hits
    zero, and the action fails; a node that pays exactly its residual
    succeeds and then dies. A node's death time is written once, when it
    dies; readers take deaths from ``alive`` and ``death_time_us``, and
    ``deaths`` counts them, so a reader can tell that none happened since
    it last looked.

    Totals are compensated: the grand total is a Kahan-summed scalar fed by
    every charge, and per-node subtotals carry Neumaier correction terms,
    so reported consumption stays within ~1 ulp of the true sum of charges
    even after millions of them. The two are computed independently, which
    lets conservation be checked rather than assumed.
    """

    def __init__(self, node_count: int, initial_energy_j: float) -> None:
        self.energy = np.full(node_count, float(initial_energy_j))
        self.consumed = np.zeros(node_count)
        self.consumed_comp = np.zeros(node_count)
        self.alive = np.ones(node_count, dtype=bool)
        self.death_time_us = np.full(node_count, -1, dtype=np.int64)
        self._energy_mv = memoryview(self.energy)
        self._consumed_mv = memoryview(self.consumed)
        self._comp_mv = memoryview(self.consumed_comp)
        self.alive_mv = memoryview(self.alive)
        self._total = 0.0
        self._total_comp = 0.0
        self.deaths = 0

    def _total_add(self, x: float) -> None:
        y = x - self._total_comp
        t = self._total + y
        self._total_comp = (t - self._total) - y
        self._total = t

    def _mark_dead(self, i: int, now_us: int) -> None:
        if not self.alive_mv[i]:
            return
        self.alive_mv[i] = False
        self.death_time_us[i] = now_us
        self.deaths += 1

    def consume(self, i: int, j: float, now_us: int) -> bool:
        """Charge node i. Returns True iff the paid-for action succeeds.

        Works on Python floats read and written through the views: the
        clamp, then the node's Neumaier step, then the total's Kahan step,
        each the same IEEE operations as on numpy scalars, so the results
        are identical bit for bit.
        """
        energy = self._energy_mv
        e = energy[i]
        ok = e >= j
        x = j if ok else e
        e = e - j if ok else 0.0
        energy[i] = e
        consumed = self._consumed_mv
        s = consumed[i]
        t = s + x
        comp = self._comp_mv
        comp[i] += (s - t) + x if s >= x else (x - t) + s
        consumed[i] = t
        self._total_add(x)
        if e == 0.0:
            self._mark_dead(i, now_us)
        return ok

    def charge_many(self, ids: np.ndarray, amount: float, now_us: int) -> np.ndarray:
        """Charge every node in ids (sorted, alive). Returns the ids that paid in full.

        When nobody falls short that is ids itself, not a copy.
        """
        if len(ids) == 0:
            return ids
        paid, died, burned = kernels.charge_uniform(
            self.energy, self.consumed, self.consumed_comp, ids, amount
        )
        self._total_add(amount * len(paid))
        if len(burned):
            self._total_add(math.fsum(burned.tolist()))
        for i in died.tolist():
            self._mark_dead(i, now_us)
        return paid

    def node_consumed(self) -> np.ndarray:
        """Per-node consumed energy with the correction terms folded in."""
        return self.consumed + self.consumed_comp

    def total_consumed(self) -> float:
        return self._total

    def max_consumed(self) -> float:
        return float(np.max(self.node_consumed()))

    def conservation_drift(self) -> float:
        """|running total - exact sum of per-node subtotals|.

        The running total is Kahan-accumulated per charge; the reference
        side sums the unfolded per-node parts exactly with fsum. The two
        paths share no arithmetic, so agreement bounds the bookkeeping
        error of both.
        """
        exact = math.fsum(self.consumed.tolist() + self.consumed_comp.tolist())
        return abs(self._total - exact)
