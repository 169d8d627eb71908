"""On-Off traffic generation and synthetic sensor readings.

Every node alternates fixed-length On and Off phases; during On it emits
readings at rate_pps with the fractional remainder carried between seconds.
Each node owns an independent substream (derived from the traffic stream
seed and its id), so the offered load a node produces depends only on the
seed, never on what any protocol or any other node did. Phase starts are
staggered per node by a uniform offset in one full On+Off cycle.

Readings follow a bounded-step random walk: each new value is the previous
plus a uniform step in [-1, 1] sensor units, starting from 0. ``generate``
only counts readings, for all nodes at once; their values are drawn on
demand by ``values``, when a protocol first needs them. A node's substream
feeds nothing but its phase offset and its walk, and PCG64 yields the same
doubles, in the same order, whether they are drawn one per reading, one
call per second or one call per backlog, so the values do not depend on
when they are asked for. A protocol that never reads a value never draws
one: readings it drops unread are passed over with ``skip`` and drawn,
with the same call, only when the node's next values are asked for. The
walk itself runs on Python floats, the same IEEE operations as on numpy
scalars.
"""

from __future__ import annotations

import zlib

import numpy as np


class OnOffTraffic:
    def __init__(
        self,
        node_count: int,
        on_s: float,
        off_s: float,
        rate_pps: float,
        seed: int,
    ) -> None:
        self.on_s = on_s
        self.cycle_s = on_s + off_s
        self.rate_pps = rate_pps
        tag = zlib.crc32(b"traffic")
        self._gen = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, i])))
            for i in range(node_count)
        ]
        self.phase_offset = np.array([g.random() * self.cycle_s for g in self._gen])
        self.acc = np.zeros(node_count)
        self.reading = np.zeros(node_count)
        # readings per node that were skipped: generated, never read, not yet drawn
        self._skipped = [0] * node_count

    def generate(self, ids: np.ndarray, t_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Readings the nodes ids emit over [t_s, t_s + 1), phase judged at t_s.

        Returns the ids that emit any, in the order given, and how many
        each emits. Only nodes in their On phase carry the fraction on.
        """
        on = ids[(t_s + self.phase_offset[ids]) % self.cycle_s < self.on_s]
        acc = self.acc[on] + self.rate_pps
        counts = np.floor(acc)
        self.acc[on] = acc - counts
        emit = counts > 0.0
        return on[emit], counts[emit].astype(np.int64)

    def values(self, i: int, n: int) -> list[float]:
        """Node i's next n readings, in the order generated.

        Readings skipped since the last call are drawn first, in the same
        call, and walked through: the walk goes on from the last of them.
        """
        skipped = self._skipped[i]
        self._skipped[i] = 0
        value = self.reading.item(i)
        out = []
        for u in self._gen[i].random(skipped + n).tolist():
            value += u * 2.0 - 1.0
            out.append(value)
        self.reading[i] = value
        return out[skipped:]

    def skip(self, i: int, n: int) -> None:
        """Pass over node i's next n readings, which nobody will read.

        They are drawn only when ``values`` is next asked for node i, so a
        node that never sends again never draws them.
        """
        self._skipped[i] += n
