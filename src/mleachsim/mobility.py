"""Random-waypoint movement, sampled once per simulated second.

Each node walks toward a uniformly drawn target at a uniformly drawn speed,
pauses on arrival, then draws the next leg. Overshoot clamps to the target,
so positions never leave the field. Dead nodes stop moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class WaypointState:
    target: tuple[float, float]
    speed: float
    pause_remaining_s: float = 0.0


def draw_leg(
    stream: np.random.Generator,
    width: float,
    height: float,
    speed_min: float,
    speed_max: float,
) -> tuple[tuple[float, float], float]:
    """One (target, speed) pair from the mobility stream."""
    tx = stream.random() * width
    ty = stream.random() * height
    speed = speed_min + stream.random() * (speed_max - speed_min)
    return (tx, ty), speed


def step_waypoint(
    pos: tuple[float, float],
    wp: WaypointState,
    stream: np.random.Generator,
    width: float,
    height: float,
    speed_min: float,
    speed_max: float,
    pause_s: float,
) -> tuple[float, float]:
    """Advance one node by one second, mutating wp. Returns the new position.

    Arrival during a step clamps to the target (no leftover motion), starts
    the pause, and immediately draws the next leg so stream consumption
    stays in a fixed order.
    """
    if wp.pause_remaining_s > 0.0:
        wp.pause_remaining_s = max(0.0, wp.pause_remaining_s - 1.0)
        return pos
    dx = wp.target[0] - pos[0]
    dy = wp.target[1] - pos[1]
    remaining = math.sqrt(dx * dx + dy * dy)
    if wp.speed >= remaining:
        arrived = wp.target
        wp.pause_remaining_s = pause_s
        wp.target, wp.speed = draw_leg(stream, width, height, speed_min, speed_max)
        return arrived
    scale = wp.speed / remaining
    return (pos[0] + dx * scale, pos[1] + dy * scale)


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
        self.waypoints = []
        for _ in range(len(positions)):
            target, speed = draw_leg(stream, width, height, speed_min, speed_max)
            self.waypoints.append(WaypointState(target, speed))

    def step(self, alive: np.ndarray) -> None:
        for i in range(len(self.waypoints)):
            if not alive[i]:
                continue
            pos = (self.positions[i, 0], self.positions[i, 1])
            new = step_waypoint(
                pos,
                self.waypoints[i],
                self.stream,
                self.width,
                self.height,
                self.speed_min,
                self.speed_max,
                self.pause_s,
            )
            self.positions[i, 0] = new[0]
            self.positions[i, 1] = new[1]
