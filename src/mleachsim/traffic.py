"""On-Off traffic generation and synthetic sensor readings.

Every node alternates fixed-length On and Off phases; during On it emits
readings at rate_pps with the fractional remainder carried between seconds.
Each node owns an independent substream (derived from the traffic stream
seed and its id), so the offered load a node produces depends only on the
seed, never on what any protocol or any other node did. Phase starts are
staggered per node by a uniform offset in one full On+Off cycle.

Readings follow a bounded-step random walk: each new value is the previous
plus a uniform step in [-1, 1] sensor units, starting from 0. A call to
generate draws all of its steps from the node's substream in one call;
PCG64 yields the same doubles, in the same order, as one draw per reading,
so the stream is used exactly as a per-reading draw would use it. The walk
itself runs on Python floats, the same IEEE operations as on numpy scalars.
"""

from __future__ import annotations

import math
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

    def is_on(self, i: int, t_s: float) -> bool:
        return (t_s + self.phase_offset[i]) % self.cycle_s < self.on_s

    def generate(self, i: int, t_s: float) -> list[float]:
        """Readings node i emits over [t_s, t_s + 1). Phase judged at t_s."""
        if not self.is_on(i, t_s):
            return []
        acc = self.acc.item(i) + self.rate_pps
        n = math.floor(acc)
        self.acc[i] = acc - n
        value = self.reading.item(i)
        out = []
        for u in self._gen[i].random(n).tolist():
            value += u * 2.0 - 1.0
            out.append(value)
        self.reading[i] = value
        return out
