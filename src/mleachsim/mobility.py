"""Random-waypoint movement, sampled once per simulated second.

Each node walks toward a uniformly drawn target at a uniformly drawn speed,
pauses on arrival, then draws the next leg. Overshoot clamps to the target,
so positions never leave the field. Dead nodes stop moving.

State is held in arrays indexed by node id (``target``, ``speed`` and
``pause``, the seconds of pause left), and all nodes step at once. A leg
is three draws, (x, y, speed), and a step draws its arrivals' legs in id
order: the stream is consumed as a node-by-node walk would consume it.
"""

from __future__ import annotations

import numpy as np


class MobilityField:
    """Waypoint state for a whole deployment over a positions array."""

    def __init__(
        self,
        positions: np.ndarray,
        stream: np.random.Generator,
        width: float,
        height: float,
        speed_min: float,
        speed_max: float,
        pause_s: float,
    ) -> None:
        self.positions = positions
        self.stream = stream
        self.width = width
        self.height = height
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause_s = pause_s
        n = len(positions)
        self.target = np.empty((n, 2))
        self.speed = np.empty(n)
        self.pause = np.zeros(n)
        self._draw_legs(np.arange(n))

    def _draw_legs(self, ids: np.ndarray) -> None:
        """A new (target, speed) for each of ids, ascending."""
        u = self.stream.random((len(ids), 3))
        self.target[ids, 0] = u[:, 0] * self.width
        self.target[ids, 1] = u[:, 1] * self.height
        self.speed[ids] = self.speed_min + u[:, 2] * (self.speed_max - self.speed_min)

    def step(self, alive: np.ndarray) -> None:
        """Advance every live node by one second.

        A node that reaches its target lands on it exactly, starts its
        pause and draws its next leg; a pausing node stays put.
        """
        pause = self.pause
        waiting = alive & (pause > 0.0)
        pause[waiting] = np.maximum(0.0, pause[waiting] - 1.0)
        movers = np.flatnonzero(alive & ~waiting)
        pos = self.positions
        d = self.target[movers] - pos[movers]
        remaining = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        speed = self.speed[movers]
        arrive = speed >= remaining
        walk = ~arrive
        pos[movers[walk]] += d[walk] * (speed[walk] / remaining[walk])[:, None]
        arrived = movers[arrive]
        pos[arrived] = self.target[arrived]
        pause[arrived] = self.pause_s
        self._draw_legs(arrived)
