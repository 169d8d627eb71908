"""Deterministic discrete-event core: queue, clock, named random streams,
and the error a run raises when one of its invariant checks fails.

Time is a 64-bit count of microseconds. Events at equal timestamps are
ordered by kind (the enum value doubles as the same-instant priority), then
by insertion order, so the full trace is a strict total order and replays
bit-identically for a fixed config and seed.
"""

from __future__ import annotations

import heapq
import zlib
from enum import IntEnum
from typing import Any

import numpy as np

US = 1_000_000  # microseconds per second


class InvariantViolation(RuntimeError):
    """A structural invariant failed during a run; every run checks its own."""


class EventKind(IntEnum):
    """Same-instant processing order, lowest first.

    Metric samples run before anything else mutates state at that instant,
    so a sample at t reflects the world as of t-. Mobility precedes protocol
    work within a second; the end-of-run marker always goes last.
    """

    METRIC_SAMPLE = 0
    MOBILITY_STEP = 1
    ROUND_START = 2
    BS_ROUTE_DUMP = 3
    TRAFFIC_GEN = 4
    SLOT_START = 5
    ORPHAN_FLUSH = 6
    ROUND_FINISH = 7
    ROUTE_DUMP = 8
    DATA_SEND = 9
    SIM_END = 10


class EventQueue:
    """Min-heap of (time_us, kind, seq) with opaque payloads."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, EventKind, int, Any]] = []
        self._seq = 0
        self.now_us = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at_us: int, kind: EventKind, payload: Any = None) -> None:
        if fire_at_us < self.now_us:
            raise ValueError(
                f"cannot schedule {kind.name} at {fire_at_us} us; clock is {self.now_us} us"
            )
        heapq.heappush(self._heap, (fire_at_us, kind, self._seq, payload))
        self._seq += 1

    def head(self) -> tuple[int, EventKind] | None:
        """The (time, kind) of the event pop() returns next, or None if nothing is queued.

        A handler that sends a run of its own items reads it to stop before
        any queued event that sorts first.
        """
        return self._heap[0][:2] if self._heap else None

    def pop(self) -> tuple[int, EventKind, Any]:
        fire_at_us, kind, _, payload = heapq.heappop(self._heap)
        self.now_us = fire_at_us
        return fire_at_us, kind, payload


class RandomStreams:
    """Named generators derived independently from one 64-bit seed.

    Each name gets its own PCG64 seeded from (seed, crc32(name)), so drawing
    more from one stream never shifts any other. Streams in use: placement,
    bs-placement, mobility, election, dsdv, channel. Traffic draws from none
    of them: OnOffTraffic seeds one substream per node from the seed itself.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, zlib.crc32(name.encode("ascii"))])
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[name] = gen
        return gen
